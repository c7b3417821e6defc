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

``--base REV`` compares two codecs instead: REV's committed tree (exported
with ``git archive``) and this checkout's.  Two timings of one tree taken
seconds apart differ by more than a codec change does on a host whose speed
drifts, so the two trees are timed interleaved: one persistent child process
per tree, each timed loop of one tree followed by one of the other, the
side that goes first alternating.  Reported per type and direction is the
median of the ``REPEATS`` paired ratios (this tree over REV, below 1 is
faster) beside each side's median ns/op; both trees must write identical
frame bytes::

    python benchmarks/bench_codec.py --base HEAD~1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Timed loops per type and direction, and calls per loop.
REPEATS = 15
REPS = 2_000


def hot_exemplars() -> Dict[str, Any]:
    """Representative instances of the wire types dominating live traffic."""
    from repro.core.recma import RecMAMessage
    from repro.counters.counter import Counter, CounterPair
    from repro.counters.service import (
        CounterGossipMessage,
        MaxReadRequest,
        MaxReadResponse,
        MaxWriteRequest,
    )
    from repro.datalink.token_exchange import DataLinkMessage
    from repro.labels.label import EpochLabel

    label = EpochLabel(creator=2, sting=7, antistings=frozenset({1, 3}))
    counter = Counter(label=label, seqn=5, wid=2)
    pair = CounterPair(mct=counter, cct=counter)
    return {
        "DataLinkMessage": DataLinkMessage(kind="data", link_sender=1, seq=1),
        "MaxReadRequest": MaxReadRequest(sender=2, op_id=41),
        "MaxReadResponse": MaxReadResponse(sender=3, op_id=41, counter=pair, aborted=False),
        "MaxWriteRequest": MaxWriteRequest(sender=2, op_id=41, counter=counter),
        "RecMAMessage": RecMAMessage(sender=0, no_maj=False, need_reconf=True),
        "CounterGossipMessage": CounterGossipMessage(sender=1, sent_max=pair, last_sent=None),
    }


def _loop_ns(fn: Callable[[], Any]) -> float:
    """ns per call over one timed loop of ``REPS`` calls."""
    t0 = time.perf_counter_ns()
    for _ in range(REPS):
        fn()
    return (time.perf_counter_ns() - t0) / REPS


def _timers() -> Dict[str, Callable[[], Any]]:
    """``"<type> encode"`` / ``"<type> decode"`` -> one call of that direction.

    Round-trip equality is asserted here — a microbench that measures a
    broken fast path would be worse than no bench.
    """
    from repro.common import codec

    timers: Dict[str, Callable[[], Any]] = {}
    for name, value in hot_exemplars().items():
        binary_frame = codec.frame(value)
        assert codec.unframe(binary_frame)[0] == value
        timers[f"{name} encode"] = lambda v=value: codec.frame(v)
        timers[f"{name} decode"] = lambda f=binary_frame: codec.unframe(f)
    return timers


def _quartiles(samples: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "min": round(min(samples), 1),
        "q1": round(q1, 1),
        "median": round(median, 1),
        "q3": round(q3, 1),
    }


def bench_codec() -> Dict[str, Any]:
    """Measure the wire format over the hot types; return the result entry."""
    from repro.common import codec

    timers = _timers()
    entry: Dict[str, Any] = {"repeats": REPEATS, "reps": REPS, "types": {}}
    for name, value in hot_exemplars().items():
        entry["types"][name] = {
            f"{direction}_ns": _quartiles(
                [_loop_ns(timers[f"{name} {direction}"]) for _ in range(REPEATS)]
            )
            for direction in ("encode", "decode")
        }
        entry["types"][name]["frame_bytes"] = len(codec.frame(value))
    entry["all_ok"] = True
    return entry


def serve() -> int:
    """Child side of ``--base``: answer one command per stdin line.

    ``frames`` -> the hex frame of every exemplar; ``<type> <direction>`` ->
    ns/op of one timed loop.  The tree's ``src/`` is already on ``sys.path``.
    """
    from repro.common import codec

    timers = _timers()
    for line in sys.stdin:
        command = line.strip()
        if command == "frames":
            answer: Any = {name: codec.frame(v).hex() for name, v in hot_exemplars().items()}
        else:
            answer = _loop_ns(timers[command])
        print(json.dumps(answer), flush=True)
    return 0


class _Child:
    """A persistent ``--serve`` process timing the codec of one tree."""

    def __init__(self, src: Path) -> None:
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--serve", str(src)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def ask(self, command: str) -> Any:
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        reply = self.process.stdout.readline()
        if not reply:
            raise RuntimeError(f"codec bench child exited on {command!r}")
        return json.loads(reply)

    def close(self) -> None:
        assert self.process.stdin is not None
        self.process.stdin.close()
        self.process.wait(timeout=10)


def compare(base_rev: str) -> Dict[str, Any]:
    """Interleaved per-type timings of *base_rev*'s codec and this tree's."""
    from spine_pairs import export_tree  # this script's directory

    with tempfile.TemporaryDirectory(prefix="bench-codec-") as scratch:
        base_tree = Path(scratch) / "base"
        export_tree(base_rev, base_tree)
        children = {"base": _Child(base_tree / "src"), "change": _Child(REPO_ROOT / "src")}
        try:
            frames = {side: child.ask("frames") for side, child in children.items()}
            if frames["base"] != frames["change"]:
                raise SystemExit("the two trees write different frame bytes")
            result: Dict[str, Any] = {"base": base_rev, "repeats": REPEATS, "reps": REPS,
                                      "types": {}}
            for name in hot_exemplars():
                cells = result["types"][name] = {}
                for direction in ("encode", "decode"):
                    command = f"{name} {direction}"
                    for child in children.values():
                        child.ask(command)  # warm-up loop, not reported
                    samples: Dict[str, List[float]] = {"base": [], "change": []}
                    for repeat in range(REPEATS):
                        order = ("base", "change") if repeat % 2 == 0 else ("change", "base")
                        for side in order:
                            samples[side].append(children[side].ask(command))
                    ratios = [c / b for b, c in zip(samples["base"], samples["change"])]
                    cells[direction] = {
                        "base_ns": round(statistics.median(samples["base"]), 1),
                        "change_ns": round(statistics.median(samples["change"]), 1),
                        "ratio_median": round(statistics.median(ratios), 3),
                        "ratio_min": round(min(ratios), 3),
                        "ratio_max": round(max(ratios), 3),
                    }
        finally:
            for child in children.values():
                child.close()
    return result


def _row(cell: Dict[str, float]) -> str:
    return f"{cell['min']:.0f} [{cell['q1']:.0f} {cell['median']:.0f} {cell['q3']:.0f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default=None, help="compare against this tree-ish")
    parser.add_argument("--serve", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.serve:
        sys.path.insert(0, args.serve)
        return serve()
    sys.path.insert(0, str(REPO_ROOT / "src"))
    if args.base:
        result = compare(args.base)
        print(json.dumps(result, indent=2, sort_keys=True))
        for name, cells in result["types"].items():
            print(
                f"[bench-codec] {name}: "
                + " / ".join(
                    f"{direction} {cell['base_ns']:.0f} -> {cell['change_ns']:.0f} ns, "
                    f"ratio {cell['ratio_median']:.3f} [{cell['ratio_min']:.3f} "
                    f"{cell['ratio_max']:.3f}]"
                    for direction, cell in cells.items()
                )
                + " (median paired ratio [min max])",
                file=sys.stderr,
            )
        return 0
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
