"""Convergence bounds: what a named audit matrix is allowed to take.

An audit matrix is deterministic: the same code produces the same
stabilization time for every run, so the matrix's worst case — and each
case's own worst — is a *convergence bound* the repository pins in
``benchmarks/audit_baseline.json`` under ``matrices.<name>``.
``python -m repro.audit --matrix NAME`` certifies the matrix and compares
its bounds against that entry in the same process; ``--pin`` rewrites the
one entry from the report, in the same schema the comparison reads, so pin
and report can never drift structurally.

A report fails against its pin when any run did not converge, when its
worst case exceeds the pinned worst by more than :data:`TOLERANCE`, or when
it no longer covers what was pinned: a pinned case is missing or the run
count differs.  Per-case regressions beyond the tolerance are warnings that
attribute a move of the worst case to one adversary.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

#: The checked-in pins, found from the source tree rather than the CWD.
BASELINE = Path(__file__).resolve().parents[3] / "benchmarks" / "audit_baseline.json"
#: Allowed relative regression of a matrix's worst-case stabilization time.
TOLERANCE = 0.25


def extract_bounds(report: Dict[str, Any]) -> Dict[str, Any]:
    """The gate-relevant slice of a sweep report (also the pin schema)."""
    stabilization = report.get("stabilization") or {}
    return {
        "worst": stabilization.get("worst"),
        "runs": stabilization.get("runs", 0),
        "unconverged": stabilization.get("unconverged", []),
        "by_case": stabilization.get("by_case", {}),
    }


def compare(current: Dict[str, Any], baseline: Dict[str, Any]) -> Dict[str, Any]:
    """Compare current bounds against their pin; collect failures."""
    failures: List[str] = []
    warnings: List[str] = []
    if current.get("worst") is None:
        failures.append("current sweep has no stabilization times at all")
    if current.get("unconverged"):
        failures.append(f"unconverged runs: {current['unconverged']}")
    baseline_worst = baseline.get("worst")
    if baseline_worst is None:
        failures.append("baseline has no worst-case bound; re-pin with --pin")
    elif current.get("worst") is not None:
        limit = baseline_worst * (1.0 + TOLERANCE)
        if current["worst"] > limit:
            failures.append(
                f"worst-case stabilization regressed: {current['worst']:.2f} > "
                f"{limit:.2f} (baseline {baseline_worst:.2f} + {TOLERANCE:.0%})"
            )
    if current.get("runs") != baseline.get("runs"):
        failures.append(
            f"run count changed: {current.get('runs')} vs pinned {baseline.get('runs')}"
        )
    current_cases = current.get("by_case", {})
    pinned_cases = baseline.get("by_case", {})
    missing = sorted(set(pinned_cases) - set(current_cases))
    if missing:
        failures.append(f"pinned cases missing from the report: {missing}")
    for case, time in sorted(current_cases.items()):
        pinned = pinned_cases.get(case)
        if pinned and time > pinned * (1.0 + TOLERANCE):
            warnings.append(
                f"{case}: {time:.2f} vs baseline {pinned:.2f} (+{time / pinned - 1:.0%})"
            )
    return {
        "ok": not failures,
        "failures": failures,
        "warnings": warnings,
        "current_worst": current.get("worst"),
        "baseline_worst": baseline_worst,
        "tolerance": TOLERANCE,
    }


def load_pins() -> Dict[str, Dict[str, Any]]:
    """``matrix name -> pinned bounds`` from the baseline file."""
    return json.loads(BASELINE.read_text())["matrices"]


def pin(name: str, bounds: Dict[str, Any]) -> None:
    """Rewrite matrix *name*'s entry in the baseline, leaving the others."""
    baseline = json.loads(BASELINE.read_text())
    baseline["matrices"][name] = bounds
    BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
