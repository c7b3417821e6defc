"""Compare two sets of benchmark results under the benchmark's own bounds.

    python benchmarks/spine/compare.py A.json[,A2.json,...] B.json[,B2.json,...] [--layers]

Each side is one or more files written by ``run.py --out``; A is the base.
One row per workload x judged metric: both medians, the ratio B/A, each
side's run-to-run spread (inter-quartile distance over the median, from two
runs up) and a verdict:

``worse``       B's median is worse than A's by more than the metric's bound;
``unresolved``  not worse, but a side's spread exceeds the bound, so "no
                change" cannot be told from a change — unless every run of B
                reads better than every run of A, which is ``better``;
``better``      B's median is better than A's by more than the bound;
``same``        within the bound, and the spread is too.

Judged are ``BENCHMARK.json``'s end-to-end metrics under its bounds, and the
readings in :data:`WORKLOAD_BOUNDS`: those only some workloads have, so the
driver's gate (every workload reports every end-to-end metric) cannot hold
them and this comparison does.
``failed_share`` has no relative bound: any increase is ``worse``.
``--layers`` adds the per-layer metrics as plain ratios (they have no bound).
Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

import repo
from stats import relative_iqr

Key = Tuple[str, str]  # (workload, metric)

#: Workload-specific readings this comparison judges besides the end-to-end
#: metrics, with the bound by which each may worsen: the issue's starting
#: bounds, widened to about three times the spread calibrated on the
#: reference box (README, "Noise").  Only readings steady enough for that to
#: mean something are here; live_smr's two-mode p50 and every p99 are
#: reported, not judged.  The three in simulated units repeat exactly for a
#: seed, so between runs of one seed any difference is a change of behaviour.
WORKLOAD_BOUNDS: Dict[Key, float] = {
    ("live_counters", "latency_p50_ms"): 0.25,
    ("live_churn", "latency_p50_ms"): 0.25,
    ("live_churn", "joining.rejoin_s_p50"): 0.20,
    ("sim_scale", "sim.bootstrap_wall_s"): 0.25,
    ("sim_scale", "sim.window_su_per_s"): 0.25,
    ("sim_scale", "sim.bootstrap_su"): 0.05,
    ("audit_recovery", "audit.stabilization_su_p50"): 0.05,
    ("audit_recovery", "audit.stabilization_su_max"): 0.05,
}


def load_side(argument: str) -> Dict[Key, List[Dict[str, Any]]]:
    """Every metric row of every file of one side, grouped by workload x name.

    A metric both passes read (a count, a rejoin time) is taken from the
    untraced pass: tracing slows what it measures.
    """
    by_trace: Dict[Key, Dict[int, List[Dict[str, Any]]]] = {}
    for path in argument.split(","):
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        for row in document["metrics"]:
            key = (row["workload"], row["name"])
            by_trace.setdefault(key, {}).setdefault(row["trace"], []).append(row)
    return {key: rows[min(rows)] for key, rows in by_trace.items()}


def verdict(
    a: List[float], b: List[float], better: str, bound: Optional[float]
) -> str:
    """The row's verdict; *bound* None means any worsening counts (failed_share)."""
    base, new = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    if bound is None:
        return "worse" if sign * (new - base) > 0 else "same"
    if base == 0:
        return "same" if new == 0 else "unresolved"
    worsening = sign * (new - base) / abs(base)
    if worsening > bound:
        return "worse"
    spreads = [s for s in (relative_iqr(a), relative_iqr(b)) if s is not None]
    if spreads and max(spreads) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "better" if all_better else "unresolved"
    return "better" if worsening < -bound else "same"


def _spread(values: List[float]) -> str:
    spread = relative_iqr(values)
    return "   n/a" if spread is None else f"{spread:6.3f}"


def compare(
    side_a: Dict[Key, List[Dict[str, Any]]],
    side_b: Dict[Key, List[Dict[str, Any]]],
    spec: Dict[str, Any],
    layers: bool,
) -> int:
    gated: Dict[str, Optional[float]] = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    gated["failed_share"] = None
    per_layer = {entry["name"] for entry in spec["per_layer"]}
    worse = 0
    print(
        f"{'workload':15s} {'metric':32s} {'A median':>12s} {'B median':>12s} "
        f"{'B/A':>7s} {'spread A':>8s} {'spread B':>8s}  verdict"
    )
    for workload in [entry["name"] for entry in spec["workloads"]]:
        bounds = dict(gated)
        bounds.update({n: bound for (w, n), bound in WORKLOAD_BOUNDS.items() if w == workload})
        listed = set(bounds) | (per_layer if layers else set())
        names = [n for (w, n) in side_a if w == workload and n in listed and (w, n) in side_b]
        for name in names:
            rows_a, rows_b = side_a[(workload, name)], side_b[(workload, name)]
            a = [row["value"] for row in rows_a]
            b = [row["value"] for row in rows_b]
            if name not in bounds and not any(a) and not any(b):
                continue  # a layer this workload never enters
            base, new = statistics.median(a), statistics.median(b)
            ratio = f"{new / base:7.3f}" if base else "    n/a"
            if name in bounds:
                outcome = verdict(a, b, rows_a[0]["better"], bounds[name])
                worse += outcome == "worse"
                if bounds[name] is not None:
                    outcome += f" (bound {bounds[name]:.2f})"
            else:
                outcome = "-"
            print(
                f"{workload:15s} {name:32s} {base:12.5g} {new:12.5g} {ratio} "
                f"{_spread(a):>8s} {_spread(b):>8s}  {outcome}  "
                f"(base {base:.5g} {rows_a[0]['unit']}, n={len(a)} vs {len(b)} runs)"
            )
    return worse


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="base: one result file or several, comma-separated")
    parser.add_argument("b", help="change: one result file or several, comma-separated")
    parser.add_argument("--layers", action="store_true", help="also list per-layer ratios")
    args = parser.parse_args(argv)
    worse = compare(load_side(args.a), load_side(args.b), repo.load_benchmark_json(), args.layers)
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
