"""Benchmark runner: measures the perf-critical scenarios and emits JSON.

Runs without pytest so it can be wired into CI / ``make bench``: each entry
measures wall-clock plus the experiment metrics of one scenario and the
whole trajectory is written to ``BENCH_<tag>.json`` at the repository root,
so successive PRs accumulate comparable perf records.

Every simulated workload is expressed through the declarative scenario
engine (:mod:`repro.scenarios`) — a :class:`ScenarioSpec` per measurement
instead of hand-wired cluster construction — and the composed scenario
library is swept across seeds with the engine's multiprocessing matrix.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full run
    PYTHONPATH=src python benchmarks/run_bench.py --quick    # <60s smoke run
    PYTHONPATH=src python benchmarks/run_bench.py --tag pr1  # output name
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.scenarios import ScenarioSpec, run_matrix, run_scenario  # noqa: E402

from bench_hotpath import _event_throughput  # noqa: E402


#: Measurements of the pre-fast-path tree (PR0 seed) on the same scenarios,
#: taken with the same harness on the CI container; kept in the emitted JSON
#: so every BENCH_*.json is self-contained when comparing trajectories.
SEED_BASELINE = {
    "bootstrap_n16": {
        "wall_seconds": 0.249,
        "time_to_converge": 4.82,
        "executed_events": 3209,
        "messages_delivered": 3142,
    },
    "steady_state_n16": {
        "horizon": 200.0,
        "messages_delivered": 192521,
    },
}

#: Pre-PR7 tree (commit 992c9b2) measured with the same harness, serially,
#: on the same single-CPU container (seed 89): the first 12 sim-units of an
#: n=128 cold bootstrap, full bootstrap-to-convergence at the sizes the old
#: tree could finish, and the headline — an n=128 bootstrap with the failure
#: detector's gap slack scaled to 2n (applied to the old tree by setting
#: ``gap_slack`` on every detector post-build, which is trajectory-identical
#: to this tree's ``fd_gap_slack`` config knob).  ``scale_curve`` compares
#: against these, so every BENCH_pr7.json carries its own before/after
#: evidence for the scale push.
PRE_PR7_BASELINE = {
    "scale_window_n128": {
        "horizon": 12.0,
        "wall_seconds": 9.53,
        "executed_events": 280_673,
    },
    "bootstrap_n24": {
        "time_to_converge": 4.998914279380158,
        "wall_seconds": 0.41,
        "executed_events": 4_166,
    },
    "bootstrap_n48": {
        "time_to_converge": 1041.0157662868814,
        "wall_seconds": 101.64,
        "executed_events": 3_168_013,
    },
    # The acceptance measurement: with default slack the old tree *never*
    # converges at n=128 (the per-event full-scan convergence predicate then
    # burns Theta(n^2) per event forever); with slack=2n it converges at
    # t~5.13 after 153.93s of wall.  This tree: 5.78s (detection throttled
    # to the poll cadence, t=5.2013, +1.37%) or 46.9s with exact per-event
    # polling (byte-identical trajectory: same t, events, resets).
    "bootstrap_n128_scaled_fd": {
        "fd_gap_slack": 256,
        "time_to_converge": 5.131209,
        "wall_seconds": 153.93,
        "executed_events": 125_295,
        "resets": 515,
    },
}

#: The composed scenarios swept by the matrix entry (the library's
#: fault-model scenarios, not the trivial boot baselines).
MATRIX_SCENARIOS = [
    "churn_during_corruption",
    "quorum_edge_crash_storm",
    "flash_join_wave",
    "partition_heal",
    "register_under_churn",
    "arbitrary_state_recovery",
    "arbitrary_state_reorder",
]

#: The time-varying environment-program scenarios swept by the
#: environment-sweep entry (dynamic adversaries over repro.sim.environment).
ENVIRONMENT_SCENARIOS = [
    "coordinator_hunt",
    "partition_leak_recovery",
    "crash_recovery_pulse",
]


def bench_event_throughput(n_events: int) -> dict:
    """Raw event queue schedule+drain throughput (shared with bench_hotpath)."""
    t0 = time.perf_counter()
    _event_throughput(n_events)
    elapsed = time.perf_counter() - t0
    return {
        "events": n_events,
        "wall_seconds": elapsed,
        "events_per_second": n_events / elapsed if elapsed else None,
    }


def bench_bootstrap(n: int, seed: int, timeout: float = 6_000.0) -> dict:
    """Self-organizing bootstrap to convergence (the E11 scalability core)."""
    spec = ScenarioSpec(
        name=f"bootstrap_n{n}", n=n, config="fast_sim", bootstrap_timeout=timeout
    )
    t0 = time.perf_counter()
    result = run_scenario(spec, seed=seed)
    elapsed = time.perf_counter() - t0
    stats = result["statistics"]
    return {
        "n": n,
        "seed": seed,
        "converged": result["bootstrapped"],
        "wall_seconds": elapsed,
        "time_to_converge": stats["time"],
        "executed_events": stats["executed_events"],
        "messages_delivered": stats["delivered_messages"],
        "messages_sent": stats["net_sent"],
        "recsa_broadcasts_sent": stats["recsa_broadcasts_sent"],
        "recsa_broadcasts_skipped": stats["recsa_broadcasts_skipped"],
        "recma_broadcasts_sent": stats["recma_broadcasts_sent"],
        "recma_broadcasts_skipped": stats["recma_broadcasts_skipped"],
    }


def bench_steady_state(n: int, seed: int, horizon: float = 200.0) -> dict:
    """Post-convergence steady-state traffic over a fixed sim-time horizon."""
    spec = ScenarioSpec(
        name=f"steady_state_n{n}",
        n=n,
        config="fast_sim",
        bootstrap_timeout=6_000.0,
        measure_window=horizon,
    )
    result = run_scenario(spec, seed=seed)
    if not result["bootstrapped"]:
        return {"n": n, "seed": seed, "converged": False}
    window = result["window"]
    elapsed = window["wall_seconds"]
    return {
        "n": n,
        "seed": seed,
        "converged": True,
        "horizon": horizon,
        "wall_seconds": elapsed,
        "events": window["executed_events"],
        "messages_delivered": window["delivered_messages"],
        "messages_per_simtime": window["delivered_messages"] / horizon,
        "events_per_second": window["executed_events"] / elapsed if elapsed else None,
    }


def bench_audit_sweep(corruption_seeds, seeds, workers: int) -> dict:
    """Adversarial audit: certify re-convergence from arbitrary states.

    Sweeps every registered adversarial scheduler against seeded full-state
    corruption (see ``docs/audit.md``); the entry records certification plus
    the worst-case stabilization time across the sweep.
    """
    from repro.audit.harness import build_cases, certify
    from repro.audit.schedulers import available_schedulers

    t0 = time.perf_counter()
    cases = build_cases(corruption_seeds=corruption_seeds)
    report = certify(cases, seeds=seeds, workers=workers, shrink_failures=False)
    elapsed = time.perf_counter() - t0
    stabilizations = [
        v["convergence"]["stabilization_time"]
        for v in report["verdicts"]
        if v.get("convergence") and v["convergence"].get("stabilization_time")
    ]
    return {
        "schedulers": available_schedulers(),
        "corruption_seeds": list(corruption_seeds),
        "seeds": list(seeds),
        "runs": report["meta"]["runs"],
        "all_ok": report["certified"],
        "failed": report["failed"],
        "worst_stabilization_time": max(stabilizations) if stabilizations else None,
        "wall_seconds": elapsed,
    }


def bench_environment_sweep(seeds, workers: int, quick: bool) -> dict:
    """Time-varying adversaries: dynamic audit cases + the intensity grid.

    Two measurements in one entry: (a) the three dynamic environment
    programs (crash-recovery blackouts, leaky one-way partition, adaptive
    coordinator targeting) certified against full-state corruption, with the
    worst-case stabilization-time distribution; (b) the environment-driven
    scenario library swept across seeds; and (c) on full runs, the
    CorruptionProfile intensity grid's worst case per profile.
    """
    from repro.audit.harness import build_cases, certify, sweep_profile_grid
    from repro.audit.schedulers import dynamic_schedulers

    t0 = time.perf_counter()
    cases = build_cases(schedulers=dynamic_schedulers(), corruption_seeds=[0])
    report = certify(cases, seeds=seeds, workers=workers, shrink_failures=False)
    sweep = run_matrix(ENVIRONMENT_SCENARIOS, seeds=seeds, workers=workers)
    entry = {
        "dynamic_schedulers": dynamic_schedulers(),
        "scenarios": ENVIRONMENT_SCENARIOS,
        "seeds": list(seeds),
        "runs": report["meta"]["runs"] + len(sweep["results"]),
        "all_ok": report["certified"]
        and all(item.get("ok") for item in sweep["results"]),
        "failed": report["failed"]
        + [
            f"{item['scenario']}@{item['seed']}"
            for item in sweep["results"]
            if not item.get("ok")
        ],
        "stabilization": report["stabilization"],
        "environment_transitions": sum(
            item.get("environment", {}).get("transitions", 0)
            for item in sweep["results"]
        ),
    }
    if not quick:
        grid = sweep_profile_grid(
            schedulers=["uniform", "delay_skew"], seeds=seeds, workers=workers
        )
        entry["profile_grid_worst"] = {
            profile: dist.get("worst") for profile, dist in grid["grid"].items()
        }
        entry["runs"] += grid["meta"]["runs"]
        entry["all_ok"] = entry["all_ok"] and grid["certified"]
        entry["failed"] += grid["failed"]
    entry["wall_seconds"] = time.perf_counter() - t0
    return entry


def _throughput_cell(
    cases, seeds, cold_sample_cases: int | None = None
) -> dict:
    """Measure one matrix tier cold vs warm and report runs/sec for both.

    Both paths run serially (workers=1) so the rates are per-core and the
    comparison is free of pool-scheduling noise.  ``cold_sample_cases``
    bounds how many cases the cold path replays: cold runs don't amortize
    anything, so their per-run rate is measured exactly on a sample instead
    of burning minutes on a full grid (the sample size is recorded).
    """
    from repro.audit.harness import certify

    t0 = time.perf_counter()
    warm = certify(cases, seeds=seeds, workers=1, shrink_failures=False, reuse_prefix=True)
    warm_wall = time.perf_counter() - t0
    warm_runs = warm["meta"]["runs"]

    if cold_sample_cases is None or cold_sample_cases >= len(cases):
        cold_cases = cases
    else:
        # Spread the sample evenly across the (scheduler-major) case list so
        # the cold mix covers the same schedulers the warm rate averages
        # over — a head-slice would measure only the first scheduler's cost.
        total = len(cases)
        cold_cases = [
            cases[index * total // cold_sample_cases]
            for index in range(cold_sample_cases)
        ]
    t0 = time.perf_counter()
    cold = certify(
        cold_cases, seeds=seeds, workers=1, shrink_failures=False, reuse_prefix=False
    )
    cold_wall = time.perf_counter() - t0
    cold_runs = cold["meta"]["runs"]

    warm_rate = warm_runs / warm_wall if warm_wall else None
    cold_rate = cold_runs / cold_wall if cold_wall else None
    return {
        "runs": warm_runs,
        "all_ok": warm["certified"] and cold["certified"],
        "failed": warm["failed"] + cold["failed"],
        "prefix_reuse": warm["meta"]["prefix_reuse"],
        "warm_wall_seconds": warm_wall,
        "warm_runs_per_second": warm_rate,
        "cold_sampled_runs": cold_runs,
        "cold_wall_seconds": cold_wall,
        "cold_runs_per_second": cold_rate,
        "speedup": (warm_rate / cold_rate) if warm_rate and cold_rate else None,
    }


def bench_matrix_throughput(quick: bool) -> dict:
    """Audit-matrix throughput: cold bootstrap-per-run vs warm prefix fan-out.

    The PR 5 headline.  Two tiers of the same shaped sweep (two schedulers x
    corruption seeds x sim seeds): at ``n=5`` recovery dominates and warm
    sharing helps modestly; at ``n=16`` (corruption at t=120, i.e. landing
    on a long-running converged system — the certification-campaign shape,
    and the same instant the n=24 tier corrupts at) the shared prefix
    dominates and the warm path clears 5x runs/sec.
    """
    from repro.audit.harness import build_cases

    t0 = time.perf_counter()
    entry: dict = {"tiers": {}}
    n5_cases = build_cases(
        schedulers=["uniform", "delay_skew"],
        corruption_seeds=range(8 if not quick else 2),
    )
    entry["tiers"]["n5"] = _throughput_cell(
        n5_cases, seeds=range(4 if not quick else 2)
    )
    if not quick:
        n16_cases = build_cases(
            schedulers=["uniform", "delay_skew"],
            corruption_seeds=range(16),
            n=16,
            corrupt_at=120.0,
        )
        # 2 x 16 cases x 2 seeds = the 64-run sweep; cold sampled on 4 cases
        # (8 runs) — cold runs amortize nothing, so the sample rate is exact.
        entry["tiers"]["n16"] = _throughput_cell(
            n16_cases, seeds=range(2), cold_sample_cases=4
        )
        entry["speedup_64run_sweep"] = entry["tiers"]["n16"]["speedup"]
    entry["all_ok"] = all(cell["all_ok"] for cell in entry["tiers"].values())
    entry["failed"] = [f for cell in entry["tiers"].values() for f in cell["failed"]]
    entry["wall_seconds"] = time.perf_counter() - t0
    return entry


def bench_scale_curve(
    sizes,
    seed: int,
    horizon: float = 12.0,
    converge_sizes=(),
    scaled_fd_sizes=(),
) -> dict:
    """Large-topology throughput curve: the PR 7 scale push headline.

    Every size runs the *same* fixed sim-time window — the first ``horizon``
    sim-units of a cold bootstrap — so the wall-clock per size is a pure
    per-event-cost measurement, comparable across trees regardless of how
    long full convergence takes at that size.  Sizes in ``converge_sizes``
    additionally run bootstrap to convergence, pinning the sim-time semantics
    (``time_to_converge`` must match the pre-PR tree: the fast paths are
    behavior-preserving).  Sizes in ``scaled_fd_sizes`` bootstrap with the
    failure detector's gap slack scaled to ``2n`` (``fd_gap_slack``) — the
    regime where large topologies actually converge — and the n=128 leg is
    compared against ``PRE_PR7_BASELINE`` for the acceptance speedup.
    """
    from repro.sim.cluster import build_cluster
    from repro.sim.config import fast_sim

    entry: dict = {"horizon": horizon, "seed": seed, "curve": {}}
    for n in sizes:
        cluster = build_cluster(n=n, seed=seed, config=fast_sim())
        t0 = time.perf_counter()
        cluster.run(until=horizon)
        elapsed = time.perf_counter() - t0
        stats = cluster.statistics()
        entry["curve"][f"n{n}"] = {
            "n": n,
            "wall_seconds": elapsed,
            "executed_events": stats["executed_events"],
            "delivered_messages": stats["delivered_messages"],
            "events_per_second": (
                stats["executed_events"] / elapsed if elapsed else None
            ),
            "converged_within_window": cluster.is_converged(),
        }

    for n in converge_sizes:
        cluster = build_cluster(n=n, seed=seed, config=fast_sim())
        t0 = time.perf_counter()
        converged = cluster.run_until_converged(timeout=6_000.0)
        elapsed = time.perf_counter() - t0
        stats = cluster.statistics()
        entry.setdefault("bootstrap", {})[f"n{n}"] = {
            "n": n,
            "converged": converged,
            "wall_seconds": elapsed,
            "time_to_converge": cluster.simulator.now,
            "executed_events": stats["executed_events"],
        }
        baseline = PRE_PR7_BASELINE.get(f"bootstrap_n{n}")
        if baseline and converged and elapsed:
            entry["bootstrap"][f"n{n}"]["speedup_vs_pre_pr7"] = round(
                baseline["wall_seconds"] / elapsed, 2
            )
            entry["bootstrap"][f"n{n}"]["sim_time_delta_pct"] = round(
                100.0
                * (cluster.simulator.now - baseline["time_to_converge"])
                / baseline["time_to_converge"],
                3,
            )

    for n in scaled_fd_sizes:
        slack = 2 * n
        cluster = build_cluster(n=n, seed=seed, config=fast_sim(fd_gap_slack=slack))
        t0 = time.perf_counter()
        converged = cluster.run_until_converged(timeout=6_000.0)
        elapsed = time.perf_counter() - t0
        stats = cluster.statistics()
        cell = {
            "n": n,
            "fd_gap_slack": slack,
            "converged": converged,
            "wall_seconds": elapsed,
            "time_to_converge": cluster.simulator.now,
            "executed_events": stats["executed_events"],
            "resets": stats["resets"],
        }
        baseline = PRE_PR7_BASELINE.get(f"bootstrap_n{n}_scaled_fd")
        if baseline and converged and elapsed:
            cell["speedup_vs_pre_pr7"] = round(
                baseline["wall_seconds"] / elapsed, 2
            )
            cell["sim_time_delta_pct"] = round(
                100.0
                * (cluster.simulator.now - baseline["time_to_converge"])
                / baseline["time_to_converge"],
                3,
            )
        entry.setdefault("bootstrap_scaled_fd", {})[f"n{n}"] = cell

    baseline = PRE_PR7_BASELINE["scale_window_n128"]
    current = entry["curve"].get("n128")
    if current and current["wall_seconds"] and horizon == baseline["horizon"]:
        entry["speedup_n128_window_vs_pre_pr7"] = round(
            baseline["wall_seconds"] / current["wall_seconds"], 2
        )
    headline = entry.get("bootstrap_scaled_fd", {}).get("n128")
    if headline and "speedup_vs_pre_pr7" in headline:
        entry["speedup_n128_bootstrap_vs_pre_pr7"] = headline["speedup_vs_pre_pr7"]
    entry["all_ok"] = (
        all(item["converged"] for item in entry.get("bootstrap", {}).values())
        and all(
            item["converged"]
            for item in entry.get("bootstrap_scaled_fd", {}).values()
        )
    )
    return entry


def bench_codec_micro() -> dict:
    """Wire-codec encode/decode ns/op per hot type, both formats (PR 9)."""
    from bench_codec import bench_codec

    t0 = time.perf_counter()
    entry = bench_codec()
    entry["wall_seconds"] = time.perf_counter() - t0
    return entry


def bench_sweep_cache(workers: int, quick: bool) -> dict:
    """Persistent sweep cache: cold vs warm re-run of the smoke matrix (PR 10).

    Runs the CI smoke matrix twice against a fresh cache directory.  The
    cold pass computes and persists every cell; the warm pass must be
    answered entirely from the store — the acceptance bar is a >= 5x
    wall-clock speedup with **byte-identical** deterministic reports.  A
    third leg measures the incremental shape that motivates the cache: an
    *unseen* corruption seed (every result a miss) resuming the
    pre-corruption prefix snapshots already on disk.
    """
    import shutil
    import tempfile

    from repro.audit.__main__ import smoke_cases
    from repro.audit.harness import build_cases, certify
    from repro.audit.store import SweepStore, report_bytes

    if quick:
        cases = build_cases(
            schedulers=["uniform", "delay_skew"], corruption_seeds=range(2)
        )
        seeds = [0]
    else:
        cases = smoke_cases()
        seeds = [0, 1, 2]

    directory = tempfile.mkdtemp(prefix="bench_sweep_cache_")
    try:
        with SweepStore(directory) as store:
            t0 = time.perf_counter()
            cold = certify(
                cases, seeds=seeds, workers=workers, shrink_failures=False, store=store
            )
            cold_wall = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm = certify(
                cases, seeds=seeds, workers=workers, shrink_failures=False, store=store
            )
            warm_wall = time.perf_counter() - t0
            # The incremental extension: new corruption seeds miss every
            # result row but share the static schedulers' pre-corruption
            # prefixes, which the cold pass persisted.
            extension = build_cases(
                schedulers=["uniform", "delay_skew"], corruption_seeds=[7]
            )
            t0 = time.perf_counter()
            extended = certify(
                extension,
                seeds=seeds,
                workers=workers,
                shrink_failures=False,
                store=store,
            )
            extend_wall = time.perf_counter() - t0
            db_bytes = store.stats()["db_bytes"]
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    identical = report_bytes(cold) == report_bytes(warm)
    speedup = (cold_wall / warm_wall) if warm_wall else None
    warm_cache = warm["meta"]["cache"]
    return {
        "runs": cold["meta"]["runs"],
        "cold_seconds": cold_wall,
        "warm_seconds": warm_wall,
        "speedup_warm": round(speedup, 1) if speedup else None,
        "byte_identical": identical,
        "warm_hit_rate": warm_cache["hit_rate"],
        "snapshots_written_cold": cold["meta"]["cache"]["snapshots_written"],
        "extension": {
            "runs": extended["meta"]["runs"],
            "wall_seconds": extend_wall,
            "snapshot_hits": extended["meta"]["cache"]["snapshot_hits"],
        },
        "db_bytes": db_bytes,
        "all_ok": bool(
            identical
            and speedup is not None
            and speedup >= 5.0
            and warm_cache["hit_rate"] == 1.0
            and cold["certified"]
            and warm["certified"]
            and extended["certified"]
        ),
    }


def bench_scenario_matrix(seeds, workers: int) -> dict:
    """Seed-sweep of the composed scenario library via the parallel runner."""
    t0 = time.perf_counter()
    sweep = run_matrix(MATRIX_SCENARIOS, seeds=seeds, workers=workers)
    elapsed = time.perf_counter() - t0
    results = sweep["results"]
    return {
        "scenarios": MATRIX_SCENARIOS,
        "seeds": list(seeds),
        "workers": sweep["meta"]["workers"],
        "runs": len(results),
        "all_ok": all(entry.get("ok") for entry in results),
        "failed": [
            f"{entry['scenario']}@{entry['seed']}"
            for entry in results
            if not entry.get("ok")
        ],
        "wall_seconds": elapsed,
        "delivered_messages_total": sum(
            entry.get("statistics", {}).get("delivered_messages", 0)
            for entry in results
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smoke run, <60s")
    parser.add_argument("--tag", default="pr7", help="suffix of BENCH_<tag>.json")
    parser.add_argument("--output", default=None, help="explicit output path")
    parser.add_argument("--workers", type=int, default=4, help="matrix sweep workers")
    parser.add_argument(
        "--only",
        default=None,
        help="run a single benchmark entry by name (e.g. matrix_throughput)",
    )
    args = parser.parse_args(argv)

    sizes = [4, 8, 16] if not args.quick else [4, 16]
    event_counts = [200_000] if not args.quick else [100_000]
    matrix_seeds = range(4) if not args.quick else range(2)

    results = {
        "meta": {
            "tag": args.tag,
            "quick": args.quick,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seed_baseline": SEED_BASELINE,
        "benchmarks": {},
    }

    # Flag-independent name set: a valid entry name must never be rejected
    # just because the current mode (e.g. --quick) happens to exclude it —
    # such a selection runs zero benchmarks and fails via the
    # selected-nothing guard below instead.
    known_entries = {
        "event_throughput",
        "bootstrap",
        "steady_state",
        "scenario_matrix",
        "audit_sweep",
        "environment_sweep",
        "matrix_throughput",
        "scale_curve",
        "codec_micro",
        "sweep_cache",
    } | {f"event_throughput_{n}" for n in (100_000, 200_000)} \
      | {f"bootstrap_n{n}" for n in (4, 8, 16)} \
      | {f"steady_state_n{n}" for n in (8, 16)}
    if args.only is not None and args.only not in known_entries:
        # A typo must fail loudly, not write an empty benchmark file and
        # exit 0 (which would silently kill the CI timing trail).
        print(
            f"[bench] unknown --only entry {args.only!r}; "
            f"known: {sorted(known_entries)}",
            file=sys.stderr,
        )
        return 2

    def want(key: str) -> bool:
        return args.only is None or args.only == key

    for n_events in event_counts:
        key = f"event_throughput_{n_events}"
        if not want(key) and not want("event_throughput"):
            continue
        print(f"[bench] {key} ...", flush=True)
        results["benchmarks"][key] = bench_event_throughput(n_events)

    for n in sizes:
        key = f"bootstrap_n{n}"
        if not want(key) and not want("bootstrap"):
            continue
        print(f"[bench] {key} ...", flush=True)
        results["benchmarks"][key] = bench_bootstrap(n, seed=89)

    steady_sizes = [8] if args.quick else [8, 16]
    for n in steady_sizes:
        key = f"steady_state_n{n}"
        if not want(key) and not want("steady_state"):
            continue
        print(f"[bench] {key} ...", flush=True)
        results["benchmarks"][key] = bench_steady_state(
            n, seed=89, horizon=100.0 if args.quick else 200.0
        )

    if want("codec_micro"):
        print("[bench] codec_micro ...", flush=True)
        results["benchmarks"]["codec_micro"] = bench_codec_micro()

    if want("scenario_matrix"):
        print("[bench] scenario_matrix ...", flush=True)
        results["benchmarks"]["scenario_matrix"] = bench_scenario_matrix(
            seeds=matrix_seeds, workers=args.workers
        )

    if want("audit_sweep"):
        print("[bench] audit_sweep ...", flush=True)
        audit_corruptions = range(2) if not args.quick else range(1)
        results["benchmarks"]["audit_sweep"] = bench_audit_sweep(
            corruption_seeds=audit_corruptions,
            seeds=matrix_seeds,
            workers=args.workers,
        )

    if want("environment_sweep"):
        print("[bench] environment_sweep ...", flush=True)
        results["benchmarks"]["environment_sweep"] = bench_environment_sweep(
            seeds=matrix_seeds, workers=args.workers, quick=args.quick
        )

    if want("sweep_cache"):
        print("[bench] sweep_cache ...", flush=True)
        results["benchmarks"]["sweep_cache"] = bench_sweep_cache(
            workers=args.workers, quick=args.quick
        )

    if want("matrix_throughput"):
        print("[bench] matrix_throughput ...", flush=True)
        results["benchmarks"]["matrix_throughput"] = bench_matrix_throughput(
            quick=args.quick
        )

    if want("scale_curve"):
        print("[bench] scale_curve ...", flush=True)
        results["benchmarks"]["scale_curve"] = bench_scale_curve(
            sizes=[24, 48] if args.quick else [24, 48, 128, 256],
            seed=89,
            converge_sizes=[24] if args.quick else [24, 48],
            scaled_fd_sizes=[128],
        )
        results["seed_baseline"]["pre_pr7"] = PRE_PR7_BASELINE

    if args.only is not None and not results["benchmarks"]:
        # Belt over the name-validation braces: if the known-entries set ever
        # drifts from the run loop, an --only run that selected nothing must
        # still fail loudly instead of writing an empty timing file.
        print(f"[bench] --only {args.only!r} selected no benchmarks", file=sys.stderr)
        return 2

    headline = results["benchmarks"].get("bootstrap_n16")
    baseline = SEED_BASELINE.get("bootstrap_n16")
    if headline and baseline and headline.get("wall_seconds"):
        results["meta"]["speedup_bootstrap_n16"] = round(
            baseline["wall_seconds"] / headline["wall_seconds"], 2
        )
        results["meta"]["delivered_reduction_bootstrap_n16"] = round(
            1.0 - headline["messages_delivered"] / baseline["messages_delivered"], 3
        )

    output = Path(args.output) if args.output else REPO_ROOT / f"BENCH_{args.tag}.json"
    output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"[bench] wrote {output}")

    failures = [
        key
        for key, entry in results["benchmarks"].items()
        if entry.get("converged") is False or entry.get("all_ok") is False
    ]
    if failures:
        print(f"[bench] FAILED: {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
