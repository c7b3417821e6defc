"""CLI: certify a named audit matrix and gate it against its pinned bounds.

Examples::

    python -m repro.audit --list                       # matrices, schedulers,
                                                       # Byzantine behaviors
    python -m repro.audit --matrix smoke --workers 4   # CI gate: 57 runs
    python -m repro.audit --matrix n24 --pin           # re-pin after a
                                                       # deliberate change

A matrix is a named list of audit cases swept over fixed simulator seeds
(:data:`MATRICES`); its stabilization bounds were pinned on exactly those
seeds, so a run certifies the matrix and then compares it against
``matrices.<name>`` of ``benchmarks/audit_baseline.json``
(:mod:`repro.audit.gate`).  Exploration outside the named matrices calls
:func:`~repro.audit.harness.build_cases` and
:func:`~repro.audit.harness.certify` directly.

Every run recomputes the whole matrix; within the one sweep, cases that
share a pre-corruption prefix resume one warm in-memory snapshot instead of
each bootstrapping (:mod:`repro.audit.harness`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.audit.arbitrary_state import PROFILES
from repro.audit.byzantine import BEHAVIORS, ByzantineSpec, available_behaviors
from repro.audit.gate import BASELINE, compare, extract_bounds, load_pins, pin
from repro.audit.harness import AuditCase, build_cases, certify
from repro.audit.schedulers import (
    available_schedulers,
    dynamic_schedulers,
    get_scheduler,
    static_schedulers,
)
from repro.node.config import coherent_start

#: Every registered traitor behavior at once (f = 1 < n/3 at n = 5).
_BYZ_FULL = ByzantineSpec(
    behaviors=("forge", "mutate", "drop", "equivocate", "inflate"), traitors=1
)
#: The adaptive adversary: the *current coordinator* turns traitor.
_BYZ_COORDINATOR = ByzantineSpec(
    behaviors=("equivocate", "mutate", "inflate"), traitors=1, selection="coordinator"
)

#: ``name -> (cases, simulator seeds)``: every matrix the CLI certifies and
#: every entry of ``matrices`` in the baseline, one-to-one.
MATRICES: Dict[str, Tuple[List[AuditCase], Tuple[int, ...]]] = {
    # The CI smoke matrix.  Static schedulers keep their 2-corruption
    # coverage on the bare stack; every dynamic adversary runs once; the
    # SMR-replicating stacks run with smr_agreement armed (under the benign
    # baseline and, for vs_smr, the adaptive coordinator-targeting
    # adversary); the labels stack runs once under the benign baseline.  Two
    # Byzantine cases ride along: f < n/3 traitors running every registered
    # behavior against Bracha reliable broadcast, and an equivocating
    # coordinator against vs_smr_rb (all three invariants).
    "smoke": (
        build_cases(schedulers=static_schedulers(), corruption_seeds=[0, 1])
        + build_cases(schedulers=dynamic_schedulers(), corruption_seeds=[0])
        + build_cases(
            schedulers=["uniform", "target_coordinator"],
            corruption_seeds=[0],
            stacks=["vs_smr"],
        )
        + build_cases(
            schedulers=["uniform"], corruption_seeds=[0], stacks=["shared_register"]
        )
        + build_cases(schedulers=["uniform"], corruption_seeds=[0], stacks=["labels"])
        + build_cases(
            schedulers=["uniform"],
            corruption_seeds=[0],
            stacks=["rb_bracha"],
            profiles=["none"],
            byzantine=_BYZ_FULL,
        )
        + build_cases(
            schedulers=["uniform"],
            corruption_seeds=[0],
            stacks=["vs_smr_rb"],
            profiles=["none"],
            byzantine=_BYZ_COORDINATOR,
        ),
        (0, 1, 2),
    ),
    # The active-adversary matrix (docs/byzantine.md).  Every registered
    # behavior attacks both reliable-broadcast variants; the coordinator
    # traitor attacks vs_smr_rb under the benign and the coordinator-hunting
    # scheduler; and one case layers the full transient corruption on top of
    # live traitors — arbitrary state while under active attack.
    "byzantine": (
        build_cases(
            schedulers=["uniform", "delay_skew"],
            corruption_seeds=[0],
            stacks=["rb_bracha"],
            profiles=["none"],
            byzantine=_BYZ_FULL,
        )
        + build_cases(
            schedulers=["uniform"],
            corruption_seeds=[0],
            stacks=["rb_dolev"],
            profiles=["none"],
            byzantine=_BYZ_FULL,
        )
        + build_cases(
            schedulers=["uniform", "target_coordinator"],
            corruption_seeds=[0],
            stacks=["vs_smr_rb"],
            profiles=["none"],
            byzantine=_BYZ_COORDINATOR,
        )
        + build_cases(
            schedulers=["uniform"],
            corruption_seeds=[0],
            stacks=["rb_bracha"],
            profiles=["default"],
            byzantine=ByzantineSpec(behaviors=("forge", "inflate"), traitors=1),
        ),
        (0, 1, 2),
    ),
    # Recovery time against corruption intensity: every registered
    # CorruptionProfile under one benign and one skewed scheduler; the
    # pinned by_case worst is the per-profile column.
    "profiles": (
        build_cases(
            schedulers=["uniform", "delay_skew"],
            corruption_seeds=[0],
            profiles=sorted(PROFILES),
        ),
        (0, 1),
    ),
    # The large-topology tier: n=24 under the literal Section-2 model (link
    # cleaning on every link, un-throttled heartbeats) and the two harshest
    # dynamic adversaries.  The corruption lands at t=120, after the ~t=83
    # bootstrap convergence, so every run certifies re-convergence of a
    # long-running converged system; warm prefix snapshots share each
    # adversary's bootstrap across the corruption seeds.
    "n24": (
        build_cases(
            schedulers=["crash_recovery", "partition_leak"],
            corruption_seeds=[0, 1],
            n=24,
            config="paper_faithful",
            corrupt_at=120.0,
            convergence_budget=8_000.0,
        ),
        (0,),
    ),
    # The scale tier: n=128 on a coherent start.  Only reachable with the
    # failure detector's gap slack scaled to 2n: with the default slack the
    # heartbeat-ramp spread at this size turns ordinary staggering into
    # perpetual suspicion churn and any disturbance into an endless reset
    # storm.  With it, recovery from the full transient-fault model (40% of
    # nodes scrambled plus stuffed channels) completes within a few time
    # units — the global reset reconfigures as fast as a cold bootstrap —
    # and channel_only certifies stale-packet absorption on its own.  One
    # static and one dynamic adversary keep the tier tractable.
    "n128": (
        build_cases(
            schedulers=["uniform", "crash_recovery"],
            corruption_seeds=[0],
            n=128,
            config=coherent_start(fd_gap_slack=256),
            profiles=["default", "channel_only"],
            corrupt_at=20.0,
            convergence_budget=120.0,
            # 0.2-unit tracker cadence (= fast_sim's min link delay): exact
            # per-event tracking pays a ~60 us scan of the converged
            # cluster after each of ~10 000 events per sim-unit.
            convergence_poll=0.2,
        ),
        (0,),
    ),
}


def _render(report: dict) -> str:
    verdicts = report["verdicts"]
    width = max([len("case")] + [len(verdict["case"]) for verdict in verdicts])
    row = f"{{:{width}}}  {{:>4}}  {{:9}}  {{:9}}  {{}}".format
    lines = [
        f"audit sweep ({report['meta']['runs']} runs, {report['meta']['workers']} worker(s))",
        row("case", "seed", "certified", "converged", "stabilized_at"),
    ]
    for verdict in verdicts:
        stabilized = (verdict.get("convergence") or {}).get("stabilization_time")
        cells = (verdict["case"], verdict["seed"], verdict["certified"], verdict["converged"])
        lines.append(row(*map(str, cells), f"{stabilized:.2f}" if stabilized is not None else "-"))
    return "\n".join(lines)


def _print_list() -> None:
    print("matrices:")
    for name, (cases, seeds) in MATRICES.items():
        print(f"  {name:14s} {len(cases)} cases x {len(seeds)} seeds = "
              f"{len(cases) * len(seeds)} runs")
    print("schedulers:")
    for name in available_schedulers():
        print(f"  {name:18s} {get_scheduler(name).description}")
    print("behaviors:")
    for name in available_behaviors():
        print(f"  {name:18s} {BEHAVIORS[name].description}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.audit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--matrix", choices=list(MATRICES), help="certify and gate this named matrix"
    )
    mode.add_argument(
        "--list",
        action="store_true",
        help="list matrices, schedulers and Byzantine behaviors and exit",
    )
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    parser.add_argument("--output", default=None, help="write the verdict JSON here")
    parser.add_argument(
        "--pin",
        action="store_true",
        help="re-pin this matrix's bounds in the baseline instead of gating",
    )
    args = parser.parse_args(argv)

    if args.list:
        _print_list()
        return 0

    cases, seeds = MATRICES[args.matrix]
    report = certify(cases, seeds=seeds, workers=args.workers)
    print(_render(report))
    if args.output:
        path = Path(args.output)
        path.write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
        print(f"wrote {path}")
    if not report["certified"]:
        print(f"NOT CERTIFIED: {report['failed']}", file=sys.stderr)
        return 1
    print(
        f"[audit] certified {report['meta']['runs']} runs "
        f"({len(cases)} corrupted-state x scheduler cases x {len(seeds)} seeds)"
    )

    bounds = extract_bounds(report)
    if args.pin:
        pin(args.matrix, bounds)
        print(
            f"[gate] pinned {args.matrix} in {BASELINE}: worst "
            f"{bounds['worst']:.2f} over {bounds['runs']} runs"
        )
        return 0
    pinned = load_pins().get(args.matrix)
    if pinned is None:
        print(f"[gate] no pin for {args.matrix!r}; run with --pin", file=sys.stderr)
        return 1
    outcome = compare(bounds, pinned)
    for warning in outcome["warnings"]:
        print(f"[gate] warning: {warning}")
    if not outcome["ok"]:
        for failure in outcome["failures"]:
            print(f"[gate] FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"[gate] ok: {args.matrix} worst-case stabilization "
        f"{outcome['current_worst']:.2f} within {outcome['tolerance']:.0%} of "
        f"baseline {outcome['baseline_worst']:.2f} over {bounds['runs']} runs"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
