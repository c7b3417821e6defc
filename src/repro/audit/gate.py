"""Convergence-bound regression gate over audit-sweep verdicts.

The audit smoke matrix (``python -m repro.audit --smoke``) is deterministic:
the same code produces the same worst-case stabilization time, so that time
is a *convergence bound* the repository can pin.  This gate compares the
``stabilization`` section of a sweep report against a checked-in baseline
JSON and fails CI when the worst case regresses beyond the tolerance —
a protocol change that silently makes recovery 25% slower now breaks the
build instead of drifting unnoticed.

Usage::

    python -m repro.audit.gate AUDIT_smoke.json                 # compare
    python -m repro.audit.gate AUDIT_smoke.json --refresh       # re-pin
    python -m repro.audit.gate AUDIT_n24.json --tier n24        # a tier
    python -m repro.audit.gate AUDIT_smoke.json \\
        --baseline benchmarks/audit_baseline.json --tolerance 0.25

The baseline is refreshed (``--refresh``) whenever a deliberate
change moves the bound; the refresh rewrites the JSON from the same report
format the gate reads, so baseline and verdict can never drift structurally.

Beyond the default smoke bounds, the baseline file carries

* ``tiers.<name>`` — stabilization bounds of additional matrix tiers (the
  ``n24`` tier's bounds live under ``tiers.n24``; select with ``--tier``),
  preserved across refreshes of other tiers;
* ``matrix_wall_seconds.<tier>`` — the pinned wall-clock of the sweep, used
  by a **soft gate**: a matrix that takes >50% longer than its pin prints a
  warning (never a failure — wall-clock is load-dependent), so sweep
  throughput regressions surface in CI logs next to the hard bounds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

DEFAULT_BASELINE = Path("benchmarks/audit_baseline.json")
DEFAULT_TOLERANCE = 0.25
#: Soft wall-clock gate: warn when the sweep takes >50% longer than pinned.
WALL_TOLERANCE = 0.50


def extract_bounds(report: Dict[str, Any]) -> Dict[str, Any]:
    """The gate-relevant slice of a sweep report (also the baseline schema)."""
    stabilization = report.get("stabilization") or {}
    return {
        "worst": stabilization.get("worst"),
        "runs": stabilization.get("runs", 0),
        "unconverged": stabilization.get("unconverged", []),
        "by_case": stabilization.get("by_case", {}),
    }


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[str, Any]:
    """Compare current bounds against the baseline; collect failures.

    The hard gate is the overall worst case; per-case regressions beyond the
    tolerance are reported as warnings (they attribute a worst-case move to a
    specific adversary but only fail the gate when they *are* the worst).
    """
    failures: List[str] = []
    warnings: List[str] = []
    if current.get("worst") is None:
        failures.append("current sweep has no stabilization times at all")
    if current.get("unconverged"):
        failures.append(f"unconverged runs: {current['unconverged']}")
    baseline_worst = baseline.get("worst")
    if baseline_worst is None:
        failures.append("baseline has no worst-case bound; re-pin with --refresh")
    elif current.get("worst") is not None:
        limit = baseline_worst * (1.0 + tolerance)
        if current["worst"] > limit:
            failures.append(
                f"worst-case stabilization regressed: {current['worst']:.2f} > "
                f"{limit:.2f} (baseline {baseline_worst:.2f} + {tolerance:.0%})"
            )
    baseline_cases = baseline.get("by_case", {})
    for case, time in sorted(current.get("by_case", {}).items()):
        pinned = baseline_cases.get(case)
        if pinned and time > pinned * (1.0 + tolerance):
            warnings.append(
                f"{case}: {time:.2f} vs baseline {pinned:.2f} (+{time / pinned - 1:.0%})"
            )
    return {
        "ok": not failures,
        "failures": failures,
        "warnings": warnings,
        "current_worst": current.get("worst"),
        "baseline_worst": baseline_worst,
        "tolerance": tolerance,
    }


def wall_warning(
    wall_seconds: Optional[float],
    pinned_seconds: Optional[float],
    tolerance: float = WALL_TOLERANCE,
) -> Optional[str]:
    """The soft throughput gate: a warning string, or ``None`` when fine.

    Deliberately never a failure — wall-clock depends on runner load — but a
    matrix that slowed >50% against its pin is exactly the regression the
    sweep-throughput engine exists to prevent, so it must be visible.
    """
    if not wall_seconds or not pinned_seconds:
        return None
    limit = pinned_seconds * (1.0 + tolerance)
    if wall_seconds <= limit:
        return None
    return (
        f"matrix wall-clock regressed: {wall_seconds:.1f}s > {limit:.1f}s "
        f"(pinned {pinned_seconds:.1f}s + {tolerance:.0%}; soft gate, not failing)"
    )


def _baseline_slice(baseline: Dict[str, Any], tier: Optional[str]) -> Dict[str, Any]:
    """The bounds to compare against: a named tier's, or the top level."""
    if tier:
        return baseline.get("tiers", {}).get(tier, {})
    return baseline


def _merge_refresh(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tier: Optional[str],
    wall_seconds: Optional[float],
) -> Dict[str, Any]:
    """Pin *current* into *baseline* without clobbering other tiers/pins."""
    if tier:
        baseline.setdefault("tiers", {})[tier] = current
    else:
        baseline.update(current)
    if wall_seconds:
        baseline.setdefault("matrix_wall_seconds", {})[tier or "smoke"] = round(
            wall_seconds, 2
        )
    return baseline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.audit.gate", description=__doc__
    )
    parser.add_argument("report", help="sweep report JSON (from python -m repro.audit)")
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help=f"checked-in baseline JSON (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative regression of the worst case (default: 0.25)",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="pin the report's bounds into the baseline instead of comparing "
        "(preserves other tiers and wall-clock pins)",
    )
    parser.add_argument(
        "--tier",
        default=None,
        help="compare/refresh a named baseline tier (e.g. 'n24') instead of "
        "the top-level smoke bounds",
    )
    args = parser.parse_args(argv)

    report = json.loads(Path(args.report).read_text())
    cache = (report.get("meta") or {}).get("cache") or {}
    if cache.get("enabled"):
        # Surface the sweep-cache economics next to the bounds: how much of
        # the matrix was answered from disk, and how many rows a source
        # change has invalidated (stale salts awaiting a prune).
        print(
            f"[gate] cache: {cache.get('hits', 0)} hit(s), "
            f"{cache.get('misses', 0)} miss(es) "
            f"(hit rate {cache.get('hit_rate', 0.0):.0%}), "
            f"{cache.get('snapshot_hits', 0)} prefix snapshot hit(s), "
            f"{cache.get('stale_results', 0) + cache.get('stale_snapshots', 0)} "
            f"invalidated row(s), salt {cache.get('salt')}"
        )
    if not report.get("certified", False):
        print(f"[gate] sweep not certified: {report.get('failed')}", file=sys.stderr)
        return 1
    current = extract_bounds(report)
    wall_seconds = (report.get("meta") or {}).get("wall_seconds")

    baseline_path = Path(args.baseline)
    if args.refresh:
        baseline = (
            json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
        )
        baseline = _merge_refresh(baseline, current, args.tier, wall_seconds)
        baseline_path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(
            f"[gate] pinned baseline {baseline_path}"
            f"{f' tier {args.tier}' if args.tier else ''} "
            f"(worst={current['worst']:.2f} over {current['runs']} runs)"
        )
        return 0

    if not baseline_path.exists():
        print(
            f"[gate] no baseline at {baseline_path}; run with --refresh to pin one",
            file=sys.stderr,
        )
        return 1
    baseline = json.loads(baseline_path.read_text())
    slice_ = _baseline_slice(baseline, args.tier)
    if not slice_:
        print(
            f"[gate] baseline has no tier {args.tier!r}; "
            f"run with --refresh --tier {args.tier} to pin it",
            file=sys.stderr,
        )
        return 1
    outcome = compare(current, slice_, tolerance=args.tolerance)
    # The wall pin describes one specific matrix shape; comparing a custom
    # sweep (different run count) against the smoke pin would warn on every
    # run and train people to ignore the soft gate.
    soft = None
    if current.get("runs") == slice_.get("runs"):
        soft = wall_warning(
            wall_seconds,
            baseline.get("matrix_wall_seconds", {}).get(args.tier or "smoke"),
        )
    if soft:
        print(f"[gate] warning: {soft}")
    for warning in outcome["warnings"]:
        print(f"[gate] warning: {warning}")
    if not outcome["ok"]:
        for failure in outcome["failures"]:
            print(f"[gate] FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"[gate] ok: worst-case stabilization {outcome['current_worst']:.2f} "
        f"within {args.tolerance:.0%} of baseline {outcome['baseline_worst']:.2f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
