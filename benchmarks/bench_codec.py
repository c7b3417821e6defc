"""Codec microbenchmark: encode/decode ns/op per hot wire type.

The runtime's per-datagram cost is one :func:`repro.common.codec.frame` on
the sender and one :func:`~repro.common.codec.unframe` on the receiver, so
the codec *is* the wire hot path.  This bench measures each hot wire type —
the messages that dominate live traffic (data-link tokens every heartbeat,
counter quorum reads/writes per client op, recMA flags) — through
:func:`codec.frame` and :func:`codec.unframe`.

Each type's encode and decode are timed ``REPEATS`` times, each a loop of
``REPS`` calls; reported per type are the minimum and the quartiles of the
per-repeat ns/op (read the minimum: a mean of one loop carries whatever else
the host ran) and the frame bytes.  Run directly (it finds ``src/`` itself)
or with ``make bench-micro``::

    python benchmarks/bench_codec.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.common import codec  # noqa: E402
from repro.core.recma import RecMAMessage  # noqa: E402
from repro.counters.counter import Counter, CounterPair  # noqa: E402
from repro.counters.service import (  # noqa: E402
    CounterGossipMessage,
    MaxReadRequest,
    MaxReadResponse,
    MaxWriteRequest,
)
from repro.datalink.token_exchange import DataLinkMessage  # noqa: E402
from repro.labels.label import EpochLabel  # noqa: E402

_LABEL = EpochLabel(creator=2, sting=7, antistings=frozenset({1, 3}))
_COUNTER = Counter(label=_LABEL, seqn=5, wid=2)
_CPAIR = CounterPair(mct=_COUNTER, cct=_COUNTER)

#: Timed loops per type and direction, and calls per loop.
REPEATS = 15
REPS = 2_000


def hot_exemplars() -> Dict[str, Any]:
    """Representative instances of the wire types dominating live traffic."""
    return {
        "DataLinkMessage": DataLinkMessage(kind="data", link_sender=1, seq=1),
        "MaxReadRequest": MaxReadRequest(sender=2, op_id=41),
        "MaxReadResponse": MaxReadResponse(
            sender=3, op_id=41, counter=_CPAIR, aborted=False
        ),
        "MaxWriteRequest": MaxWriteRequest(
            sender=2, op_id=41, counter=_COUNTER
        ),
        "RecMAMessage": RecMAMessage(sender=0, no_maj=False, need_reconf=True),
        "CounterGossipMessage": CounterGossipMessage(
            sender=1, sent_max=_CPAIR, last_sent=None
        ),
    }


def _time_ns(fn) -> Dict[str, float]:
    """Min and quartiles of ``REPEATS`` timed loops of ``REPS`` calls, ns/op."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for _ in range(REPS):
            fn()
        samples.append((time.perf_counter_ns() - t0) / REPS)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "min": round(min(samples), 1),
        "q1": round(q1, 1),
        "median": round(median, 1),
        "q3": round(q3, 1),
    }


def bench_codec() -> Dict[str, Any]:
    """Measure the wire format over the hot types; return the result entry."""
    entry: Dict[str, Any] = {"repeats": REPEATS, "reps": REPS, "types": {}}
    for name, value in hot_exemplars().items():
        binary_frame = codec.frame(value)
        # Round-trip equality is asserted here too — a microbench that
        # measures a broken fast path would be worse than no bench.
        assert codec.unframe(binary_frame)[0] == value

        entry["types"][name] = {
            "encode_ns": _time_ns(lambda v=value: codec.frame(v)),
            "decode_ns": _time_ns(lambda f=binary_frame: codec.unframe(f)),
            "frame_bytes": len(binary_frame),
        }
    entry["all_ok"] = True
    return entry


def _row(cell: Dict[str, float]) -> str:
    return f"{cell['min']:.0f} [{cell['q1']:.0f} {cell['median']:.0f} {cell['q3']:.0f}]"


def main() -> int:
    entry = bench_codec()
    print(json.dumps(entry, indent=2, sort_keys=True))
    for name, cell in sorted(entry["types"].items()):
        print(
            f"[bench-codec] {name}: encode {_row(cell['encode_ns'])} / "
            f"decode {_row(cell['decode_ns'])} ns, min [quartiles] "
            f"({cell['frame_bytes']}B)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
