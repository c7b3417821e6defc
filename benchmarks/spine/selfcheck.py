"""Seconds-long check of the benchmark's own arithmetic and checkers.

    python benchmarks/spine/selfcheck.py

Not collected by pytest (the file name is not ``test_*``): it guards the
measuring instrument, not the program.  Each checker must accept a right
history and reject a planted fault.
"""

from __future__ import annotations

import sys

import repo

repo.add_src_to_path()

import check  # noqa: E402 - needs src/ on the path
import compare  # noqa: E402
from hostclock import REFERENCE_COST_S, HostClock, reference_work  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import (  # noqa: E402
    percentile, relative_iqr, slice_counts, slice_rate, stall_windows, trimmed_mean,
)

from repro.counters.counter import Counter  # noqa: E402
from repro.labels.label import EpochLabel  # noqa: E402


def check_stats() -> None:
    assert percentile([5, 1, 4, 2, 3], 0.5) == 3
    assert percentile(list(range(100)), 0.99) == 99
    assert percentile([7], 0.99) == 7
    times = [0.1, 0.2, 1.5, 2.1, 2.2, 2.3, 9.0]
    assert slice_counts(times, 0.0, 3) == [2, 1, 3]
    assert slice_rate(times, 0.0, 3, 0.5) == 2 and slice_rate(times, 0.0, 3, 0.9) == 3
    assert slice_counts([4.9, 5.0, 5.1], 5.0, 1) == [2], "before the window is not slice 0"
    assert relative_iqr([10.0]) is None
    assert trimmed_mean([9.0, 1.0, 2.0, 3.0, 4.0, 100.0], 1 / 6) == 4.5, "one cut at each end"
    assert trimmed_mean([5.0, 7.0], 1 / 6) == 6.0, "too few to cut any"
    assert abs(relative_iqr([9, 10, 10, 10, 11]) - 0.1) < 1e-9
    # Two cycles: the first stalls from the request due at 1.0 until 1.9,
    # the second never exceeds the limit.
    requests = [(0.5, 0.51), (1.0, 1.6), (1.2, 1.9), (1.4, 1.45), (3.0, 3.05), (3.5, 3.52)]
    assert stall_windows(requests, [0.9, 2.9], 0.1) == [1.9 - 1.0, 0.1]


def check_self_time() -> None:
    # root 0..10 holds a (1..4) and b (5..9); b holds c (6..8).
    tracer = Tracer()
    root = tracer.record("root", 0.0, 10.0)
    tracer.record("a", 1.0, 4.0, parent=root)
    b = tracer.record("b", 5.0, 9.0, parent=root)
    tracer.record("c", 6.0, 8.0, parent=b)
    table = tracer.aggregate()
    assert table["root"]["self_s"] == 3.0 and table["root"]["total_s"] == 10.0
    assert table["a"]["self_s"] == 3.0
    assert table["b"]["self_s"] == 2.0 and table["c"]["self_s"] == 2.0
    assert sum(row["self_s"] for row in table.values()) == 10.0, "self times partition the root"
    # A range that starts after the root keeps the children whole.
    ranged = tracer.aggregate(first=1)
    assert "root" not in ranged and ranged["b"]["self_s"] == 2.0

    calls = []
    traced = tracer.wrap("outer", lambda: calls.append(inner()))
    inner = tracer.wrap("inner", lambda: 1)
    traced()
    assert calls == [1] and tracer.parent[-1] == len(tracer) - 2, "inner's parent is outer"


def check_host_clock() -> None:
    assert reference_work() == reference_work(), "the reference work is fixed"
    clock = HostClock()
    # Four rounds: two at the reference cost, two on a host half as fast;
    # the one that began at 9.0 lies outside the interval asked for.
    clock.began = [1.0, 2.0, 3.0, 9.0]
    clock.cost = [REFERENCE_COST_S, 2 * REFERENCE_COST_S, REFERENCE_COST_S, 2 * REFERENCE_COST_S]
    speed, sampling_s, rounds = clock.read(0.0, 5.0)
    assert rounds == 3 and abs(speed - (1 + 0.5 + 1) / 3) < 1e-12
    assert abs(sampling_s - 4 * REFERENCE_COST_S) < 1e-12
    # 2 s of busy time on that host, less what the rounds took, in reference seconds.
    assert abs(clock.reference_seconds(0.0, 5.0, 2.0) - (2.0 - sampling_s) * speed) < 1e-12
    assert clock.read(5.0, 8.0) == (1.0, 0.0, 0), "no round, no correction"


def check_counters() -> None:
    label = EpochLabel(creator=0, sting=0, antistings=frozenset())
    value = lambda seqn, wid=0: Counter(label=label, seqn=seqn, wid=wid)  # noqa: E731
    op = check.OpRecord
    good = [op(0, 0.0, 1.0, value(1)), op(1, 0.5, 1.5, value(2, 1)), op(0, 1.1, 2.0, value(3))]
    assert check.check_counters(good) == []
    duplicate = good + [op(1, 2.5, 3.0, value(3))]
    assert any("duplicate" in p for p in check.check_counters(duplicate))
    many = good + [op(1, 2.5 + k, 3.0 + k, value(3)) for k in range(50)]
    assert sum("duplicate" in p for p in check.check_counters(many)) == 50, "every wrong answer counts"
    backwards = good + [op(0, 2.1, 3.0, value(2))]  # client 0 goes 1, 3, 2
    assert any("not above" in p for p in check.check_counters(backwards))
    overlapping = [op(0, 0.0, 2.0, value(5)), op(1, 0.1, 1.0, value(4))]
    assert check.check_counters(overlapping) == [], "concurrent increments may land either way"


def check_smr() -> None:
    commands = [("spine", c, s) for s in range(3) for c in range(2)]
    histories = {0: list(commands), 1: list(commands), 2: list(commands)}
    assert check.check_smr(commands, histories) == []
    lagging = {**histories, 2: commands[:4]}
    assert any("delivered acknowledged" in p for p in check.check_smr(commands, lagging))
    assert check.check_smr(commands[:4], lagging) == [], "a prefix is fine for what it acknowledges"
    reordered = {**histories, 1: [commands[2], commands[0]] + commands[1:2] + commands[3:]}
    problems = check.check_smr(commands, reordered)
    assert any("after seq" in p for p in problems), "client order broken"
    assert any("not a prefix" in p for p in problems), "replicas disagree on the order"
    diverged = {**histories, 2: commands[:5] + [("spine", 9, 0)]}
    assert any("not a prefix" in p for p in check.check_smr(commands[:5], diverged))
    twice = {**histories, 0: commands + commands[:1]}
    assert any("2 times" in p for p in check.check_smr(commands, twice))


def check_sim_and_audit() -> None:
    assert check.check_canary(check.CANARY_EVENTS, check.CANARY_DELIVERIES) == []
    assert check.check_canary(check.CANARY_EVENTS + 1, check.CANARY_DELIVERIES)
    assert check.check_sim(True, frozenset(range(4)), 4) == []
    assert check.check_sim(False, frozenset(range(4)), 4)
    assert check.check_sim(True, frozenset(range(3)), 4)
    assert check.check_sim(True, None, 4)
    cell = {"case": "audit:x", "seed": 1, "certified": True, "error": None, "invariants": None}
    assert check.check_audit_cell(cell) == []
    assert check.check_audit_cell(dict(cell, certified=False))
    assert check.check_audit_cell(dict(cell, invariants={"ok": False, "intervals": [{}]}))
    assert check.check_repeat("events", {"sim.events": 7}, {"sim.events": 7}) == []
    assert check.check_repeat("events", {"sim.events": 7}, {"sim.events": 8}), "a repetition drifted"


def check_verdicts() -> None:
    steady_a, steady_b = [100, 101, 99], [100, 102, 98]
    assert compare.verdict(steady_a, steady_b, "higher", 0.1) == "same"
    assert compare.verdict(steady_a, [80, 81, 79], "higher", 0.1) == "worse"
    assert compare.verdict(steady_a, [80, 81, 79], "lower", 0.1) == "better"
    noisy = [70, 100, 130]
    assert compare.verdict(noisy, [75, 104, 128], "higher", 0.1) == "unresolved"
    assert compare.verdict(noisy, [140, 150, 170], "higher", 0.1) == "better", "every run better"
    assert compare.verdict([0.0, 0.0], [0.0, 0.01], "lower", None) == "worse", "failed_share rose"
    assert compare.verdict([0.01], [0.0], "lower", None) == "same"


def main() -> int:
    for part in (check_stats, check_self_time, check_host_clock, check_counters, check_smr,
                 check_sim_and_audit, check_verdicts):
        part()
        print(f"ok {part.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
