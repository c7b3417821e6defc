"""Codec microbenchmark: encode/decode ns/op per hot wire type.

The runtime's per-datagram cost is one :func:`repro.common.codec.frame` on
the sender and one :func:`~repro.common.codec.unframe` on the receiver, so
the codec *is* the wire hot path.  This bench measures each hot wire type —
the messages that dominate live traffic (data-link tokens every heartbeat,
counter quorum reads/writes per client op, recMA flags) — through the wire format and, for scale, the reference encoding the
tests compare it against:

* ``binary``  — the wire format (:func:`codec.frame` /
  :func:`codec.unframe`);
* ``json``    — the tagged-JSON reference (``json.dumps`` of
  :func:`codec.encode`, ``json.loads`` into :func:`codec.decode`); nothing
  sends it.

Reported per type: encode ns/op, decode ns/op, frame bytes, and the
combined encode+decode speedup of binary over JSON.  Run directly (it finds
``src/`` itself) or with ``make bench-micro``::

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


def _reference_dumps(value: Any) -> str:
    """The tagged-JSON reference encoding of *value* as compact JSON text."""
    return json.dumps(codec.encode(value), separators=(",", ":"))


def _time_ns(fn, reps: int) -> float:
    t0 = time.perf_counter_ns()
    for _ in range(reps):
        fn()
    return (time.perf_counter_ns() - t0) / reps


def bench_codec(reps: int = 20_000) -> Dict[str, Any]:
    """Measure both encodings over the hot types; return the result entry."""
    entry: Dict[str, Any] = {"reps": reps, "types": {}}
    speedups = []
    for name, value in hot_exemplars().items():
        binary_frame = codec.frame(value)
        json_text = _reference_dumps(value)
        # Round-trip equality is asserted here too — a microbench that
        # measures a broken fast path would be worse than no bench.
        assert codec.unframe(binary_frame)[0] == codec.decode(json.loads(json_text))

        bin_enc = _time_ns(lambda v=value: codec.frame(v), reps)
        bin_dec = _time_ns(lambda f=binary_frame: codec.unframe(f), reps)
        json_enc = _time_ns(lambda v=value: _reference_dumps(v), reps)
        json_dec = _time_ns(lambda t=json_text: codec.decode(json.loads(t)), reps)
        speedup = round((json_enc + json_dec) / (bin_enc + bin_dec), 2)
        speedups.append(speedup)
        entry["types"][name] = {
            "binary": {
                "encode_ns": round(bin_enc, 1),
                "decode_ns": round(bin_dec, 1),
                "frame_bytes": len(binary_frame),
            },
            "json": {
                "encode_ns": round(json_enc, 1),
                "decode_ns": round(json_dec, 1),
                "frame_bytes": len(json_text.encode("utf-8")),
            },
            "speedup_encode_decode": speedup,
        }
    entry["min_speedup"] = min(speedups)
    entry["median_speedup"] = sorted(speedups)[len(speedups) // 2]
    entry["all_ok"] = True
    return entry


def main() -> int:
    entry = bench_codec()
    print(json.dumps(entry, indent=2, sort_keys=True))
    for name, cell in sorted(entry["types"].items()):
        print(
            f"[bench-codec] {name}: binary "
            f"{cell['binary']['encode_ns']:.0f}/{cell['binary']['decode_ns']:.0f} ns "
            f"({cell['binary']['frame_bytes']}B)  json "
            f"{cell['json']['encode_ns']:.0f}/{cell['json']['decode_ns']:.0f} ns "
            f"({cell['json']['frame_bytes']}B)  "
            f"speedup {cell['speedup_encode_decode']}x",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
