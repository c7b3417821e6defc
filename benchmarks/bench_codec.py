"""Codec microbenchmark: encode/decode ns/op per hot wire type.

The runtime's per-datagram cost is one :func:`repro.common.codec.frame` on
the sender and one :func:`~repro.common.codec.unframe` on the receiver, so
the codec *is* the wire hot path.  This bench measures each hot wire type —
the messages that dominate live traffic (data-link tokens every heartbeat,
counter quorum reads/writes per client op, recMA flags) — through
:func:`codec.frame` and :func:`codec.unframe`.

Reported per type: encode ns/op, decode ns/op and frame bytes.  Run
directly (it finds ``src/`` itself) or with ``make bench-micro``::

    python benchmarks/bench_codec.py
"""

from __future__ import annotations

import json
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


def hot_exemplars() -> Dict[str, Any]:
    """Representative instances of the wire types dominating live traffic."""
    return {
        "DataLinkMessage": DataLinkMessage(
            kind="data", link_sender=1, seq=1, payload=("hb", 3)
        ),
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


def _time_ns(fn, reps: int) -> float:
    t0 = time.perf_counter_ns()
    for _ in range(reps):
        fn()
    return (time.perf_counter_ns() - t0) / reps


def bench_codec(reps: int = 20_000) -> Dict[str, Any]:
    """Measure the wire format over the hot types; return the result entry."""
    entry: Dict[str, Any] = {"reps": reps, "types": {}}
    for name, value in hot_exemplars().items():
        binary_frame = codec.frame(value)
        # Round-trip equality is asserted here too — a microbench that
        # measures a broken fast path would be worse than no bench.
        assert codec.unframe(binary_frame)[0] == value

        entry["types"][name] = {
            "encode_ns": round(_time_ns(lambda v=value: codec.frame(v), reps), 1),
            "decode_ns": round(
                _time_ns(lambda f=binary_frame: codec.unframe(f), reps), 1
            ),
            "frame_bytes": len(binary_frame),
        }
    entry["all_ok"] = True
    return entry


def main() -> int:
    entry = bench_codec()
    print(json.dumps(entry, indent=2, sort_keys=True))
    for name, cell in sorted(entry["types"].items()):
        print(
            f"[bench-codec] {name}: "
            f"{cell['encode_ns']:.0f}/{cell['decode_ns']:.0f} ns "
            f"({cell['frame_bytes']}B)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
