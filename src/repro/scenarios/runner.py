"""Scenario execution: single runs, resumable phases and parallel sweeps.

:func:`run_scenario` turns ``(spec, seed)`` into a plain, JSON-serializable
result dictionary that is a *pure function of the seed* — two runs of the
same scenario and seed produce identical dictionaries (the determinism
guarantee the test-suite pins).  Wall-clock timing and worker identity are
added only by the sweep envelope, never to the scenario result itself.

Execution is split into a **resumable phase machine**:

* :func:`drive` advances a prepared run through its simulated phases
  (bootstrap, horizon).  An optional ``stop_before`` boundary pauses the run
  right before the first event at or past that simulated time — with every
  phase's absolute deadline persisted on the :class:`ScenarioRun` — which is
  what lets the audit harness snapshot a bootstrapped prefix
  (:mod:`repro.sim.snapshot`) and resume restored copies later, byte-identically
  to an uninterrupted run.
* :func:`finalize` evaluates probes, collects monitor/tracker summaries and
  assembles the result dictionary.
* :func:`execute` is simply ``drive`` + ``finalize``.

:func:`run_matrix` executes a ``scenarios × seeds`` grid over the objects it
is handed — scenario specs, or anything else with a ``.name`` that its job
runner understands (the audit harness passes its cases).  With ``workers >
1`` a persistent pool of forked worker processes pulls jobs from one shared
queue (work stealing: a slow job never strands the other jobs that a static
chunking would have pinned to the same worker).  The workers are forked
after the job list is built, so they inherit the objects themselves; only
job indices and result dictionaries cross the process boundary, and probes
and workload callables never need to be pickled.  Where the platform has no
``fork``, the jobs run serially.  Each result records its own wall time and
worker pid; the sweep meta reports per-worker utilization so scheduling
regressions are visible in every sweep artifact.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from queue import Empty
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.node.config import preset
from repro.scenarios.spec import ScenarioSpec
from repro.sim.cluster import Cluster, build_cluster
from repro.sim.events import Action
from repro.sim.monitors import ConvergenceTracker, InvariantMonitor
from repro.sim.simulator import PAUSED
from repro.analysis.probes import wait_for


@dataclass
class ScenarioRun:
    """A prepared scenario: cluster built, workloads installed, not yet run.

    Benchmarks use this to interleave their own measurements with the
    scenario engine's phases without hand-wiring any services.  ``monitor``
    and ``tracker`` are populated when the spec declares invariants /
    convergence tracking (the audit engine's certification hooks).

    ``phase`` / ``phase_deadline`` / ``bootstrapped`` are the phase machine's
    persisted state: a run paused by :func:`drive` carries everything needed
    to resume (absolute deadlines survive a snapshot/restore round-trip
    because the simulated clock does too).
    """

    spec: ScenarioSpec
    seed: int
    cluster: Cluster
    monitor: Optional[InvariantMonitor] = None
    tracker: Optional[ConvergenceTracker] = None
    phase: str = "bootstrap"
    phase_deadline: Optional[float] = None
    bootstrapped: Optional[bool] = None


def prepare(spec_or_name: Union[str, ScenarioSpec], seed: int = 0) -> ScenarioRun:
    """Build the cluster for a scenario and install its workloads.

    Order matters: the adversarial scheduler (if the spec names one) shapes
    the channels before any workload schedules its disturbances, and the
    monitors attach before the first event executes.
    """
    from repro.scenarios.library import get_scenario

    spec = get_scenario(spec_or_name)
    cluster = build_cluster(n=spec.n, seed=seed, config=preset(spec.config), stack=spec.stack)
    if spec.scheduler is not None:
        from repro.audit.schedulers import get_scheduler

        get_scheduler(spec.scheduler).install(cluster, **dict(spec.scheduler_params))
    monitor: Optional[InvariantMonitor] = None
    if spec.invariants:
        monitor = InvariantMonitor(cluster.simulator)
        for invariant in spec.invariants:
            # An Action (not a closure) so that snapshot/restore remaps the
            # cluster reference along with the rest of the graph.
            monitor.add_invariant(invariant.name, Action(invariant, cluster))
    tracker: Optional[ConvergenceTracker] = None
    if spec.track_convergence:
        tracker = ConvergenceTracker(
            cluster.simulator,
            cluster.is_converged,
            name="cluster_converged",
            poll_interval=spec.convergence_poll,
        )
    for workload in spec.workloads:
        workload.install(cluster)
    return ScenarioRun(
        spec=spec, seed=seed, cluster=cluster, monitor=monitor, tracker=tracker
    )


def drive(run: ScenarioRun, stop_before: Optional[float] = None) -> bool:
    """Advance *run* through its simulated phases (bootstrap, then horizon).

    Returns ``True`` when every phase completed.  With *stop_before* set, the
    run pauses — returning ``False`` — before executing the first event at
    ``time >= stop_before``; phase progress (including the current phase's
    absolute deadline) is persisted on the run, so a later ``drive(run)``
    resumes exactly where a cold, uninterrupted run would be.
    """
    spec, cluster = run.spec, run.cluster
    simulator = cluster.simulator
    while True:
        if run.phase == "bootstrap":
            if not spec.require_bootstrap:
                run.bootstrapped = None
                run.phase, run.phase_deadline = "horizon", None
                continue
            if run.phase_deadline is None:
                run.phase_deadline = simulator.now + spec.bootstrap_timeout
            outcome = simulator.run_until(
                cluster.is_converged,
                timeout=run.phase_deadline,
                stop_before=stop_before,
            )
            if outcome is PAUSED:
                return False
            run.bootstrapped = outcome
            run.phase, run.phase_deadline = "horizon", None
            continue
        if run.phase == "horizon":
            if spec.horizon <= 0:
                run.phase = "done"
                continue
            if run.phase_deadline is None:
                run.phase_deadline = simulator.now + spec.horizon
            outcome = simulator.run(run.phase_deadline, stop_before=stop_before)
            if outcome is PAUSED:
                return False
            run.phase, run.phase_deadline = "done", None
            continue
        return True


def finalize(run: ScenarioRun) -> Dict[str, Any]:
    """Evaluate probes and assemble the result dict of a driven run."""
    spec, cluster = run.spec, run.cluster
    result: Dict[str, Any] = {
        "scenario": spec.name,
        "seed": run.seed,
        "n": spec.n,
        "stack": cluster.stack.name,
    }
    result["bootstrapped"] = run.bootstrapped if spec.require_bootstrap else None
    probe_results: Dict[str, Dict[str, Any]] = {}
    all_satisfied = True
    for probe in spec.probes:
        outcome = wait_for(cluster, probe)
        all_satisfied = all_satisfied and outcome.satisfied
        # A repeated probe name (e.g. converged() before and after a
        # disturbance) gets a distinct key so no outcome is overwritten.
        key, suffix = probe.name, 2
        while key in probe_results:
            key = f"{probe.name}#{suffix}"
            suffix += 1
        probe_results[key] = {
            "satisfied": outcome.satisfied,
            "time": outcome.time,
        }
    result["probes"] = probe_results
    result["ok"] = result["bootstrapped"] is not False and all_satisfied
    if run.tracker is not None:
        result["convergence"] = run.tracker.summary()
    if run.monitor is not None:
        result["invariants"] = run.monitor.summary()
        result["ok"] = result["ok"] and run.monitor.ok()
    if cluster.workload_reports:
        result["workload_reports"] = list(cluster.workload_reports)
    # What the environment did and when: the network's rule, partition and
    # heal transitions (deterministic, so part of the reproducible result
    # surface).
    network = cluster.network
    if spec.scheduler is not None or network.transition_count:
        result["environment"] = network.summary()
    result["statistics"] = cluster.statistics()
    return result


def execute(run: ScenarioRun) -> Dict[str, Any]:
    """Drive a prepared scenario through its phases; return the result dict."""
    drive(run)
    return finalize(run)


def run_scenario(spec_or_name: Union[str, ScenarioSpec], seed: int = 0) -> Dict[str, Any]:
    """Prepare and execute one scenario run."""
    return execute(prepare(spec_or_name, seed=seed))


# ---------------------------------------------------------------------------
# Parallel seed sweeps
# ---------------------------------------------------------------------------
#: A job runner maps ``(scenario, seed)`` to a result dictionary, where the
#: scenario is one of the objects handed to :func:`run_matrix`.  The default
#: runs a spec cold; the audit harness substitutes a runner that resumes warm
#: prefix snapshots of its cases.
JobRunner = Callable[[Any, int], Dict[str, Any]]


def _run_job(job_runner: JobRunner, scenario: Any, seed: int) -> Dict[str, Any]:
    wall_start = time.perf_counter()
    result = job_runner(scenario, seed)
    return {
        **result,
        "wall_seconds": time.perf_counter() - wall_start,
        "worker_pid": os.getpid(),
    }


def _unfinished_jobs(
    jobs: Sequence[Sequence[Any]], results: Sequence[Dict[str, Any]]
) -> List[Sequence[Any]]:
    """The ``(scenario, seed)`` jobs with no collected result yet.

    Used to name the lost jobs when a worker dies without reporting.
    """
    done = {(entry.get("scenario"), entry.get("seed")) for entry in results}
    return [job for job in jobs if (job[0], job[1]) not in done]


def _reap_workers(processes: List[Any], timeout: float = 5.0) -> None:
    """Join every worker, terminating any that outlives *timeout* seconds."""
    for process in processes:
        process.join(timeout=timeout)
        if process.is_alive():
            process.terminate()
            process.join(timeout=timeout)


def _pool_worker(
    task_queue: "multiprocessing.Queue",
    result_queue: "multiprocessing.Queue",
    jobs: Sequence[Tuple[Any, int]],
    job_runner: JobRunner,
) -> None:
    """One persistent worker: run job indices until the ``None`` sentinel."""
    while True:
        index = task_queue.get()
        if index is None:
            return
        scenario, seed = jobs[index]
        try:
            result_queue.put(_run_job(job_runner, scenario, seed))
        except Exception as exc:  # surface worker failures instead of hanging
            result_queue.put(
                {
                    "scenario": scenario.name,
                    "seed": seed,
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "worker_pid": os.getpid(),
                }
            )


def _sweep_summary(
    results: Sequence[Dict[str, Any]], workers: int, wall_seconds: float
) -> Dict[str, Any]:
    """Per-worker load/busy accounting for a finished sweep.

    ``utilization`` is the busy fraction of the pool: the sum of per-job wall
    times divided by ``workers × sweep wall``.  A straggler-bound sweep (one
    worker grinding while the rest idle) shows up as a low utilization even
    when every job individually looks cheap — exactly the regression the old
    round-robin chunking hid.
    """
    by_worker: Dict[str, Dict[str, Any]] = {}
    busy_total = 0.0
    for entry in results:
        pid = str(entry.get("worker_pid", "?"))
        wall = float(entry.get("wall_seconds", 0.0) or 0.0)
        slot = by_worker.setdefault(pid, {"jobs": 0, "busy_seconds": 0.0})
        slot["jobs"] += 1
        slot["busy_seconds"] += wall
        busy_total += wall
    capacity = workers * wall_seconds
    return {
        "wall_seconds": wall_seconds,
        "busy_seconds": busy_total,
        "utilization": (busy_total / capacity) if capacity > 0 else None,
        "max_job_seconds": max(
            (float(e.get("wall_seconds", 0.0) or 0.0) for e in results), default=0.0
        ),
        "by_worker": {pid: by_worker[pid] for pid in sorted(by_worker)},
    }


def run_matrix(
    scenarios: Sequence[Any],
    seeds: Sequence[int],
    workers: int = 1,
    job_runner: JobRunner = run_scenario,
) -> Dict[str, Any]:
    """Run ``job_runner(scenario, seed)`` for every ``scenario × seed``.

    *scenarios* are objects with a ``.name``: scenario specs for the default
    runner (resolve a registered name with ``get_scenario``).
    Returns ``{"meta": ..., "results": [...]}`` with results sorted by
    ``(scenario, seed)`` regardless of completion order.

    Parallel sweeps use a persistent pool of forked workers pulling job
    indices from one shared work queue — a slow job delays only itself, not
    a statically assigned chunk.  ``meta["sweep"]`` reports per-worker job
    counts, busy seconds and overall pool utilization; each result entry
    carries its own ``wall_seconds`` and ``worker_pid``.
    """
    names = [scenario.name for scenario in scenarios]
    jobs = [(scenario, seed) for scenario in scenarios for seed in seeds]
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork: run serially
        workers = 1
    effective_workers = max(1, min(workers, len(jobs)))
    sweep_start = time.perf_counter()
    if effective_workers == 1:
        results = [_run_job(job_runner, scenario, seed) for scenario, seed in jobs]
    else:
        task_queue = context.Queue()
        result_queue = context.Queue()
        for index in range(len(jobs)):
            task_queue.put(index)
        for _ in range(effective_workers):
            task_queue.put(None)  # one shutdown sentinel per worker
        processes = [
            context.Process(
                target=_pool_worker,
                args=(task_queue, result_queue, jobs, job_runner),
                daemon=True,
            )
            for _ in range(effective_workers)
        ]
        for process in processes:
            process.start()
        results = []
        while len(results) < len(jobs):
            try:
                results.append(result_queue.get(timeout=1.0))
                continue
            except Empty:
                pass
            # Only an Exception inside a job is reported via the queue; a
            # worker killed outright (OOM, SIGKILL) would otherwise leave
            # this collection loop blocked forever.
            if any(process.is_alive() for process in processes):
                continue
            # Every worker has exited.  Drain whatever is still buffered in
            # the queue (``queue.empty()`` alone is racy against the feeder
            # threads) before deciding results really are missing.
            try:
                while len(results) < len(jobs):
                    results.append(result_queue.get(timeout=0.25))
            except Empty:
                missing = _unfinished_jobs(
                    [(scenario.name, seed) for scenario, seed in jobs], results
                )
                _reap_workers(processes)
                raise RuntimeError(
                    f"worker process died before finishing its jobs; "
                    f"collected {len(results)}/{len(jobs)} results; "
                    f"missing (scenario, seed) pairs: {missing}"
                )
        _reap_workers(processes)
    wall_seconds = time.perf_counter() - sweep_start
    results.sort(key=lambda entry: (entry["scenario"], entry["seed"]))
    return {
        "meta": {
            "scenarios": names,
            "seeds": list(seeds),
            "workers": effective_workers,
            "jobs": len(jobs),
            "sweep": _sweep_summary(results, effective_workers, wall_seconds),
        },
        "results": results,
    }
