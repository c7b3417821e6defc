"""CLI: certify self-stabilization from arbitrary states.

Examples::

    python -m repro.audit --list-schedulers
    python -m repro.audit --list-behaviors
    python -m repro.audit --smoke                      # CI gate: 54 runs
    python -m repro.audit --byzantine --workers 4      # active-adversary
                                                       # matrix (traitor
                                                       # programs vs RB)
    python -m repro.audit --schedulers delay_skew,slow_node \\
        --corruptions 0:4 --seeds 0:4 --workers 4 --output audit.json
    python -m repro.audit --stacks vs_smr,shared_register --seeds 0:2
    python -m repro.audit --profile-grid --workers 4   # stabilization-time
                                                       # distribution vs
                                                       # corruption intensity
    python -m repro.audit --demo-shrink                # broken invariant ->
                                                       # minimal reproducer

Sweeps run against a persistent content-addressed cache (``.audit_cache/``
by default): unchanged cells are answered from disk and warm pre-corruption
prefixes are resumed from stored snapshots, so re-running a matrix after an
edit only recomputes what the edit could have changed.  ``--no-cache``
disables it, ``--refresh`` forces recompute (with write-back), and
``python -m repro.audit.store stats`` inspects the store.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from repro.analysis import probes
from repro.audit.arbitrary_state import PROFILES
from repro.audit.byzantine import (
    BEHAVIORS,
    ByzantineSpec,
    available_behaviors,
)
from repro.audit.harness import (
    AuditCase,
    build_cases,
    certify,
    shrink_case,
    sweep_profile_grid,
)
from repro.audit.schedulers import (
    available_schedulers,
    dynamic_schedulers,
    get_scheduler,
    static_schedulers,
)
from repro.audit.store import DEFAULT_CACHE_DIR, SweepStore
from repro.scenarios.__main__ import parse_seeds


#: Every registered traitor behavior at once — the smoke matrix's Byzantine
#: adversary (f = 1 < n/3 for the default n = 5).
_BYZ_FULL = ByzantineSpec(
    behaviors=("forge", "mutate", "drop", "equivocate", "inflate"), traitors=1
)
#: The adaptive adversary: the *current coordinator* turns traitor.
_BYZ_COORDINATOR = ByzantineSpec(
    behaviors=("equivocate", "mutate", "inflate"), traitors=1, selection="coordinator"
)


def smoke_cases(n: int = 5, convergence_budget: float = 6_000.0) -> List[AuditCase]:
    """The CI smoke matrix (certified per sim seed by ``--smoke``).

    Static schedulers keep their historical 2-corruption coverage on the
    bare stack; every dynamic adversary runs once; the SMR-replicating
    stacks run with the ``smr_agreement`` invariant armed (under both the
    benign baseline and the adaptive coordinator-targeting adversary for
    ``vs_smr``).  Two Byzantine cases ride along: ``f < n/3`` traitors
    running *every* registered behavior against Bracha reliable broadcast
    (``rb_agreement`` / ``rb_validity`` armed), and an equivocating
    *coordinator* against the combined ``vs_smr_rb`` stack (all three
    invariants armed).  ``--n`` and ``--budget`` pass through; the stack mix
    is fixed by design (``--stacks`` applies to explicit sweeps only).
    """
    overrides = {"n": n, "convergence_budget": convergence_budget}
    return (
        build_cases(
            schedulers=static_schedulers(), corruption_seeds=[0, 1], **overrides
        )
        + build_cases(
            schedulers=dynamic_schedulers(), corruption_seeds=[0], **overrides
        )
        + build_cases(
            schedulers=["uniform", "target_coordinator"],
            corruption_seeds=[0],
            stacks=["vs_smr"],
            **overrides,
        )
        + build_cases(
            schedulers=["uniform"],
            corruption_seeds=[0],
            stacks=["shared_register"],
            **overrides,
        )
        + build_cases(
            schedulers=["uniform"],
            corruption_seeds=[0],
            stacks=["rb_bracha"],
            profiles=["none"],
            byzantine=_BYZ_FULL,
            **overrides,
        )
        + build_cases(
            schedulers=["uniform"],
            corruption_seeds=[0],
            stacks=["vs_smr_rb"],
            profiles=["none"],
            byzantine=_BYZ_COORDINATOR,
            **overrides,
        )
    )


def byzantine_cases(
    n: int = 5, convergence_budget: float = 6_000.0
) -> List[AuditCase]:
    """The dedicated active-adversary matrix (``--byzantine``).

    Every registered behavior attacks both reliable-broadcast variants; the
    adaptive coordinator-traitor attacks the combined SMR+RB stack under the
    benign and the coordinator-hunting scheduler; and one case layers the
    full transient corruption *on top of* live traitors (arbitrary state
    while under active attack — the hardest composition the audit
    certifies).
    """
    overrides = {"n": n, "convergence_budget": convergence_budget}
    return (
        build_cases(
            schedulers=["uniform", "delay_skew"],
            corruption_seeds=[0],
            stacks=["rb_bracha"],
            profiles=["none"],
            byzantine=_BYZ_FULL,
            **overrides,
        )
        + build_cases(
            schedulers=["uniform"],
            corruption_seeds=[0],
            stacks=["rb_dolev"],
            profiles=["none"],
            byzantine=_BYZ_FULL,
            **overrides,
        )
        + build_cases(
            schedulers=["uniform", "target_coordinator"],
            corruption_seeds=[0],
            stacks=["vs_smr_rb"],
            profiles=["none"],
            byzantine=_BYZ_COORDINATOR,
            **overrides,
        )
        + build_cases(
            schedulers=["uniform"],
            corruption_seeds=[0],
            stacks=["rb_bracha"],
            profiles=["default"],
            byzantine=ByzantineSpec(behaviors=("forge", "inflate"), traitors=1),
            **overrides,
        )
    )


def n24_cases(
    convergence_budget: float = 8_000.0,
    corrupt_at: float = 120.0,
) -> List[AuditCase]:
    """The large-topology tier: ``n=24`` under the paper-faithful model.

    Two dynamic adversaries (crash-recovery blackouts and the leaky one-way
    partition) against a 24-processor cluster running the literal Section-2
    communication model (link cleaning on every link, un-throttled
    heartbeats).  The corruption lands at t=120 — after the ~t=83 bootstrap
    convergence — so every run certifies re-convergence of a long-running
    converged system.  Tractable because of the sweep engine: the warm
    prefix path bootstraps each adversary's 120-time-unit prefix once and
    fans the corruption seeds out from the snapshot (on machines with more
    idle cores than fan-out, ``certify`` runs the group cold-parallel
    instead — whichever is faster).
    """
    return build_cases(
        schedulers=["crash_recovery", "partition_leak"],
        corruption_seeds=[0, 1],
        n=24,
        config="paper_faithful",
        corrupt_at=corrupt_at,
        convergence_budget=convergence_budget,
    )


def n128_cases(
    convergence_budget: float = 120.0,
    corrupt_at: float = 20.0,
) -> List[AuditCase]:
    """The scale tier: ``n=128`` full-state corruption on a coherent start.

    Only reachable with the failure detector's gap slack scaled to ``2n``
    (``fd_gap_slack=256``): with the default slack the heartbeat-count
    ramp's spread at this size turns ordinary staggering into perpetual
    suspicion churn, the cluster-wide no-reconfiguration windows never
    align, and *any* disturbance — even a converged system left alone —
    degenerates into an endless reset storm (a probe with default slack
    was still unconverged after 600 time units and 76k resets).  With the
    scaled slack the same system is stable, and recovery from the paper's
    full transient-fault model — 40% of nodes scrambled field-by-field
    *and* stale/garbled packets stuffed into in-flight channels (the
    ``default`` profile) — completes within a few time units: the global
    reset it triggers reconfigures as fast as a (slack-scaled) cold
    bootstrap, which the PR 7 fast paths made cheap.  The runs exercise
    exactly those paths: garbled fulls break delta chains (fallback +
    full-vector repair), corruption flips the convergence ledger's dirty
    sets, and the per-event cost rides the incremental predicate.  One
    static and one dynamic adversary keep the tier tractable: at this
    size every run executes hundreds of thousands of events even with
    the warm prefix shared.
    """
    from repro.sim.config import coherent_start

    return build_cases(
        schedulers=["uniform", "crash_recovery"],
        corruption_seeds=[0],
        n=128,
        config=coherent_start(fd_gap_slack=256),
        profiles=["default", "channel_only"],
        corrupt_at=corrupt_at,
        convergence_budget=convergence_budget,
        # 0.2-unit tracker cadence (= fast_sim's min link delay): exact
        # per-event tracking is a ~300 us/event monitor tax at this size.
        convergence_poll=0.2,
    )


TIERS = {"n24": n24_cases, "n128": n128_cases}


def _scale_smoke(n: int, horizon: float, output: str | None) -> int:
    """Soft large-topology smoke: a coherent n-processor window (``--scale-smoke``).

    Builds the full cluster (lazy channels keep the ~n^2 link space
    virtual), runs ``horizon`` sim-units and reports event counts, wall
    clock and whether the ledger still sees the pre-installed configuration
    as converged.  Soft by design — it exercises construction, the delta
    gossip paths and the incremental ledger at sizes (n=512) where a
    certification run would be too slow for CI, and only fails on a crash
    or a completely dead cluster.
    """
    import time as _time

    from repro.sim.cluster import build_cluster
    from repro.sim.config import coherent_start

    t0 = _time.perf_counter()
    # Slack scaled to 2n: without it, suspicion churn at these sizes turns
    # the window into a reset storm and the event count measures the storm,
    # not steady-state gossip throughput.
    cluster = build_cluster(n=n, seed=0, config=coherent_start(fd_gap_slack=2 * n))
    built = _time.perf_counter() - t0
    t0 = _time.perf_counter()
    cluster.run(until=horizon)
    ran = _time.perf_counter() - t0
    stats = cluster.statistics()
    report = {
        "n": n,
        "horizon": horizon,
        "build_seconds": round(built, 3),
        "run_seconds": round(ran, 3),
        "executed_events": stats["executed_events"],
        "delivered_messages": stats["delivered_messages"],
        "converged": cluster.is_converged(),
        "channels_materialized": len(cluster.simulator.network._channels),
        "channels_possible": n * (n - 1),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if output:
        Path(output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {output}")
    if stats["executed_events"] <= 0:
        print(f"[audit] scale smoke: no events executed at n={n}", file=sys.stderr)
        return 1
    return 0


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


def _print_cache(meta: dict) -> None:
    """One-line cache summary after a sweep (hits, warm prefixes, salt)."""
    cache = (meta or {}).get("cache") or {}
    if not cache.get("enabled"):
        return
    total = cache.get("hits", 0) + cache.get("misses", 0)
    stale = cache.get("stale_results", 0) + cache.get("stale_snapshots", 0)
    line = (
        f"[audit] cache: {cache.get('hits', 0)}/{total} result hits "
        f"({cache.get('hit_rate', 0.0):.0%}), "
        f"{cache.get('snapshot_hits', 0)} prefix snapshot(s) from disk, "
        f"salt {cache.get('salt')}"
    )
    if cache.get("refreshed"):
        line += " (refreshed)"
    if stale:
        line += f"; {stale} stale row(s) from other salts (prune to reclaim)"
    print(line)


def _demo_shrink(output: str | None, store: SweepStore | None = None) -> int:
    """Certify against a deliberately-too-strong invariant and shrink.

    ``no_reset_in_progress`` is violated by any corruption that triggers a
    brute-force reset, so the demo is *expected* to fail certification —
    success here means the shrinker reduced the violating corruption plan to
    a minimal reproducer that still fails.
    """
    case = AuditCase(
        scheduler="uniform",
        corruption_seed=0,
        invariants=(probes.no_reset_invariant(),),
    )
    print(f"[audit] demo case {case.name}: deliberately broken invariant "
          f"'no_reset_in_progress' (any reset violates it)")
    reproducer = shrink_case(case, seed=0, store=store)
    print(json.dumps(reproducer, indent=2, default=str))
    if output:
        Path(output).write_text(json.dumps(reproducer, indent=2, default=str) + "\n")
        print(f"wrote {output}")
    ok = (
        reproducer.get("still_fails")
        and reproducer.get("minimal_size", 0) >= 1
        and reproducer.get("minimal_size") < reproducer.get("atoms_total", 0)
    )
    if not ok:
        print("demo shrink FAILED to produce a minimal reproducer", file=sys.stderr)
        return 1
    print(
        f"[audit] shrank {reproducer['atoms_total']} corruption atoms to "
        f"{reproducer['minimal_size']} in {reproducer['trials']} trials"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.audit", description=__doc__)
    parser.add_argument(
        "--schedulers",
        default=None,
        help="comma-separated scheduler names (default: every registered one)",
    )
    parser.add_argument(
        "--corruptions", default="0", help='corruption-seed spec: "0,1", "0:4" or "7"'
    )
    parser.add_argument("--seeds", default="0", help='simulator-seed spec, same syntax')
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    parser.add_argument("--n", type=int, default=5, help="cluster size")
    parser.add_argument(
        "--stacks",
        default="bare",
        help="comma-separated stack profiles (SMR stacks arm smr_agreement)",
    )
    parser.add_argument(
        "--budget", type=float, default=6_000.0, help="re-convergence budget (sim time)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: static x2 + dynamic adversaries + SMR-stack invariant "
        "cases + Byzantine traitor cases, 3 sim seeds each (54 runs)",
    )
    parser.add_argument(
        "--byzantine",
        action="store_true",
        help="the active-adversary matrix: traitor programs (every registered "
        "behavior) against Bracha/Dolev reliable broadcast and the combined "
        "vs_smr_rb stack, 3 sim seeds each",
    )
    parser.add_argument(
        "--profile-grid",
        action="store_true",
        help="sweep corruption intensities (light/default/heavy) and report "
        "stabilization-time distributions per profile (schedulers default to "
        "uniform,delay_skew here to bound the grid; widen with --schedulers)",
    )
    parser.add_argument(
        "--profiles",
        default=None,
        help=f"comma-separated profile names for --profile-grid "
        f"(default: {','.join(sorted(PROFILES))})",
    )
    parser.add_argument(
        "--tier",
        default=None,
        choices=sorted(TIERS),
        help="run a named matrix tier (n24: 24 processors, paper_faithful "
        "config, two dynamic adversaries, corruption at t=120; n128: 128 "
        "processors, coherent start, light corruption at t=60)",
    )
    parser.add_argument(
        "--scale-smoke",
        type=int,
        default=None,
        metavar="N",
        help="soft large-topology smoke: build a coherent N-processor "
        "cluster, run a short window, report events/wall/convergence "
        "(n=512 in CI; fails only on a dead cluster)",
    )
    parser.add_argument(
        "--smoke-horizon",
        type=float,
        default=2.0,
        help="sim-time window of --scale-smoke (default: 2.0)",
    )
    parser.add_argument(
        "--cold",
        action="store_true",
        help="disable warm prefix sharing (every run pays its own bootstrap; "
        "results are identical, only slower)",
    )
    parser.add_argument(
        "--demo-shrink",
        action="store_true",
        help="run the broken-invariant shrinking demonstration and exit",
    )
    cache_group = parser.add_argument_group(
        "persistent sweep cache",
        "content-addressed result + prefix-snapshot store (repro.audit.store); "
        "fingerprints fold in a source-tree salt, so any change under "
        "src/repro invalidates every cached row automatically",
    )
    cache_group.add_argument(
        "--cache-dir",
        default=str(DEFAULT_CACHE_DIR),
        help=f"cache directory (default: {DEFAULT_CACHE_DIR}; created on "
        "demand, safe to share between concurrent invocations)",
    )
    cache_group.add_argument(
        "--no-cache",
        action="store_true",
        help="run without the persistent cache (no reads, no writes)",
    )
    cache_group.add_argument(
        "--refresh",
        action="store_true",
        help="ignore cached results/snapshots but write fresh ones back",
    )
    parser.add_argument(
        "--list-schedulers", action="store_true", help="list schedulers and exit"
    )
    parser.add_argument(
        "--list-behaviors",
        action="store_true",
        help="list registered Byzantine behaviors and exit",
    )
    parser.add_argument("--output", default=None, help="write the verdict JSON here")
    args = parser.parse_args(argv)

    if args.list_schedulers:
        for name in available_schedulers():
            print(f"{name:16s} {get_scheduler(name).description}")
        return 0

    if args.list_behaviors:
        for name in available_behaviors():
            print(f"{name:16s} {BEHAVIORS[name].description}")
        return 0

    store = None if args.no_cache else SweepStore(args.cache_dir)
    try:
        return _dispatch(args, store)
    finally:
        if store is not None:
            store.close()


def _dispatch(args: argparse.Namespace, store: SweepStore | None) -> int:
    """Run the selected mode against the (possibly disabled) sweep cache."""
    if args.demo_shrink:
        return _demo_shrink(args.output, store=store)

    if args.scale_smoke is not None:
        return _scale_smoke(args.scale_smoke, args.smoke_horizon, args.output)

    if args.profile_grid:
        schedulers = (
            args.schedulers.split(",") if args.schedulers else ["uniform", "delay_skew"]
        )
        report = sweep_profile_grid(
            schedulers=schedulers,
            seeds=parse_seeds(args.seeds),
            profiles=args.profiles.split(",") if args.profiles else None,
            stacks=args.stacks.split(","),
            corruption_seeds=parse_seeds(args.corruptions),
            workers=args.workers,
            n=args.n,
            convergence_budget=args.budget,
            store=store,
            refresh=args.refresh,
        )
        print(json.dumps(report["grid"], indent=2, sort_keys=True))
        _print_cache(report.get("meta") or {})
        if args.output:
            path = Path(args.output)
            path.write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
            print(f"wrote {path}")
        if not report["certified"]:
            print(f"NOT CERTIFIED: {report['failed']}", file=sys.stderr)
            return 1
        return 0

    if args.tier:
        # A tier is a fixed matrix; silently ignoring contradictory flags
        # would certify a different sweep than the user asked for.
        ignored = [
            flag
            for flag, value, default in (
                ("--schedulers", args.schedulers, None),
                ("--corruptions", args.corruptions, "0"),
                ("--stacks", args.stacks, "bare"),
                ("--profiles", args.profiles, None),
                ("--n", args.n, 5),
                ("--budget", args.budget, 6_000.0),
            )
            if value != default
        ]
        if ignored:
            print(
                f"[audit] --tier {args.tier} fixes the matrix; drop {ignored} "
                f"(only --seeds/--workers/--cold/--output and the cache flags "
                f"apply to a tier)",
                file=sys.stderr,
            )
            return 2
        cases = TIERS[args.tier]()
        seeds = parse_seeds(args.seeds)
    elif args.smoke:
        cases = smoke_cases(n=args.n, convergence_budget=args.budget)
        seeds = [0, 1, 2]
    elif args.byzantine:
        cases = byzantine_cases(n=args.n, convergence_budget=args.budget)
        seeds = [0, 1, 2]
    else:
        schedulers = (
            args.schedulers.split(",") if args.schedulers else available_schedulers()
        )
        cases = build_cases(
            schedulers=schedulers,
            corruption_seeds=parse_seeds(args.corruptions),
            n=args.n,
            stacks=args.stacks.split(","),
            convergence_budget=args.budget,
        )
        seeds = parse_seeds(args.seeds)

    report = certify(
        cases,
        seeds=seeds,
        workers=args.workers,
        reuse_prefix=not args.cold,
        store=store,
        refresh=args.refresh,
    )
    print(_render(report))
    _print_cache(report.get("meta") or {})

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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
