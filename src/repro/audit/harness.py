"""The certification harness: sweep, verdicts and reproducer shrinking.

An :class:`AuditCase` names one ``(adversarial scheduler, corruption seed)``
cell of the audit matrix; :func:`certify` sweeps ``cases x simulator seeds``
through the scenario engine's parallel matrix (:func:`repro.scenarios.runner
.run_matrix`, so the audit reuses the same worker plumbing and determinism
contract as every other sweep) and asserts, per run, that

* the cluster **re-converges within the case's simulated-time budget** after
  the corruption (``converged`` / ``participating`` probes plus a
  :class:`~repro.sim.monitors.ConvergenceTracker` summary), and
* every declared :class:`~repro.analysis.probes.Invariant` held throughout
  (violation intervals recorded by the
  :class:`~repro.sim.monitors.InvariantMonitor`).

Warm prefix sharing
-------------------
Before the corruption fires, every run of a sweep cell is **pure
deterministic replay**: it depends on the topology, stack, config, scheduler
program and simulator seed — but *not* on the corruption seed, profile or
plan subset, all of which are read at fire time.  :func:`certify` therefore
groups cases by that pre-corruption *prefix* (:func:`prefix_key`), bootstraps
each distinct ``(prefix, simulator seed)`` once, snapshots it right before
the first event at ``corrupt_at`` (:class:`~repro.sim.snapshot.SimSnapshot`),
and fans the corruption cases out from the warm snapshot — the dominant cost
of a matrix drops from O(cases) bootstraps to O(distinct prefixes).  The
``fork``-based worker pool inherits parent-captured snapshots copy-on-write.
Warm results are byte-identical to cold ones (pinned by the test-suite);
``reuse_prefix=False`` forces the historical cold path.

A run that fails certification is handed to :func:`shrink_case`, which
re-runs the deterministic corruption plan with ddmin-style subset bisection
until no atom can be removed without the failure disappearing — the minimal
reproducer every bug report wants.  The shrinker reuses one prefix snapshot
across all its probe runs, so each ddmin trial skips bootstrap too.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis import probes
from repro.audit.arbitrary_state import (
    DEFAULT_PROFILE,
    PROFILES,
    CorruptionProfile,
    get_profile,
)
from repro.audit.byzantine import ByzantineSpec, ByzantineWorkload
from repro.audit.schedulers import available_schedulers, get_scheduler
from repro.scenarios.library import register_scenario
from repro.scenarios.runner import drive, finalize, prepare, run_matrix, run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.workloads import (
    ArbitraryStateWorkload,
    RBBroadcastWorkload,
    SMRCommandWorkload,
)
from repro.audit.store import (
    SweepStore,
    fingerprint_cell,
    fingerprint_prefix,
    source_tree_salt,
)
from repro.sim.snapshot import SimSnapshot

#: Stacks whose nodes run a ``"vs"`` service, i.e. can multicast commands.
SMR_STACKS = ("vs_smr", "shared_register", "vs_smr_rb")

#: Stacks whose nodes run an ``"rb"`` reliable-broadcast service; audit cases
#: on these get broadcast traffic plus the rb_* invariants armed.
RB_STACKS = ("rb_bracha", "rb_dolev", "rb_naive", "vs_smr_rb")


def _digest(value: Any) -> str:
    """Short stable content digest (``repr`` is deterministic for the frozen
    dataclasses and plain tuples this is applied to)."""
    return hashlib.sha1(repr(value).encode("utf-8")).hexdigest()[:8]


def _dynamic_audit_params(scheduler: str, corrupt_at: float) -> Dict[str, Any]:
    """Audit-tuned defaults for the dynamic environment programs.

    An audit run re-converges within a few simulated seconds of the
    corruption, so a dynamic adversary with generic scenario timings (first
    transition at t=40) would never fire before the probes are satisfied.
    Anchoring the program at ``corrupt_at`` makes it adversarial *during*
    recovery, which is the whole point of the audit.
    """
    t = corrupt_at
    if scheduler == "crash_recovery":
        return {"start": t + 2.0, "period": 25.0, "outage": 10.0, "epochs": 3}
    if scheduler == "partition_leak":
        return {"at": t + 2.0, "flip_at": t + 40.0, "heal_at": t + 80.0}
    if scheduler == "target_coordinator":
        return {"start": t + 2.0, "period": 20.0, "epochs": 4}
    return {}


@dataclass(frozen=True)
class AuditCase:
    """One cell of the audit matrix: a scheduler plus a corruption stream.

    The simulator seed is *not* part of the case — :func:`certify` sweeps
    each case across seeds, so one case certifies against many executions of
    the same adversary.  ``profile`` may be a :class:`CorruptionProfile` or a
    registered intensity name (``"light"`` / ``"default"`` / ``"heavy"`` /
    ``"none"``).

    ``byzantine`` adds an *active* adversary on top of (or, with the
    ``"none"`` profile, instead of) the transient corruption: a
    :class:`~repro.audit.byzantine.ByzantineSpec` whose traitor programs are
    installed at ``corrupt_at + spec.delay`` and uninstalled after
    ``spec.duration``.  For a Byzantine case, the shrinkable plan is the
    ordered traitor-assignment list rather than the corruption atoms.
    """

    scheduler: str
    corruption_seed: int
    n: int = 5
    stack: str = "bare"
    config: str = "fast_sim"
    corrupt_at: float = 30.0
    convergence_budget: float = 6_000.0
    #: Sim-time cadence for the run's ConvergenceTracker; 0.0 = evaluate
    #: after every event (exact transition times — the small-n default).
    #: Large-n tiers set this: at n=128 the per-event predicate is a
    #: ~300 us/event monitor tax, and a 0.2-unit cadence only coarsens
    #: the reported stabilization times by that interval.  Measurement
    #: cadence only — the event trajectory is identical either way, so
    #: it is deliberately NOT part of the case name or prefix key.
    convergence_poll: float = 0.0
    profile: Any = DEFAULT_PROFILE
    invariants: Tuple[probes.Invariant, ...] = ()
    scheduler_params: Tuple[Tuple[str, Any], ...] = ()
    byzantine: Optional[ByzantineSpec] = None

    @property
    def profile_name(self) -> str:
        """The registered name of the case's profile (digest-tagged if none)."""
        if isinstance(self.profile, str):
            return self.profile
        for name, profile in PROFILES.items():
            if profile == self.profile:
                return name
        # Unregistered profiles get a stable content digest so two different
        # ad-hoc profiles never share a case name.
        return f"custom-{_digest(self.profile)}"

    @property
    def name(self) -> str:
        # The name encodes every registry-relevant parameter so two sweeps
        # with different topologies/stacks/intensities/program parameters in
        # one process cannot silently alias each other's registered specs.
        base = (
            f"audit:{self.scheduler}:c{self.corruption_seed}"
            f":n{self.n}:{self.stack}"
        )
        profile = self.profile_name
        if profile != "default":
            base = f"{base}:{profile}"
        if self.config != "fast_sim":
            config = self.config if isinstance(self.config, str) else _digest(self.config)
            base = f"{base}:{config}"
        if self.corrupt_at != 30.0:
            base = f"{base}:t{self.corrupt_at:g}"
        if self.convergence_budget != 6_000.0:
            base = f"{base}:b{self.convergence_budget:g}"
        if self.scheduler_params:
            base = f"{base}:p{_digest(tuple(sorted(self.scheduler_params)))}"
        if self.invariants:
            base = f"{base}:i-" + "+".join(sorted(i.name for i in self.invariants))
        if self.byzantine is not None:
            behaviors = "+".join(self.byzantine.behaviors)
            base = f"{base}:byz-{behaviors}-{_digest(self.byzantine)}"
        return base

    def to_spec(
        self,
        include: Optional[Tuple[int, ...]] = None,
        record_atoms: bool = False,
    ) -> ScenarioSpec:
        """The scenario spec realizing this case (optionally a plan subset)."""
        scheduler = get_scheduler(self.scheduler)  # fail fast on unknown names
        params = dict(self.scheduler_params)
        if scheduler.dynamic:
            params = {**_dynamic_audit_params(self.scheduler, self.corrupt_at), **params}
        # Invariants arm at corruption time: bootstrap legitimately passes
        # through reset states, so earlier violations would not be
        # attributable to the injected arbitrary state.
        invariants = tuple(
            inv if inv.arm_after > 0.0 else inv.armed_at(self.corrupt_at)
            for inv in self.invariants
        )
        # For a Byzantine case the shrinkable plan is the traitor-assignment
        # list, so ``include`` routes to the ByzantineWorkload and the
        # corruption (usually the "none" profile) always applies in full.
        workloads: Tuple[Any, ...] = (
            ArbitraryStateWorkload(
                at=self.corrupt_at,
                seed=self.corruption_seed,
                profile=get_profile(self.profile),
                include=include if self.byzantine is None else None,
                record_atoms=record_atoms,
            ),
        )
        if self.byzantine is not None:
            workloads += (
                ByzantineWorkload(
                    at=self.corrupt_at + self.byzantine.delay,
                    spec=self.byzantine,
                    include=include,
                    record_atoms=record_atoms,
                ),
            )
        if self.stack in RB_STACKS:
            # Broadcast traffic around the adversarial window, so the armed
            # rb_agreement / rb_validity invariants and the rb_delivered
            # probe check real delivery tables.  One broadcast lands before
            # the disturbance; the rest go out while traitors are active —
            # including one from pid 0, which the "lowest" traitor-selection
            # policy makes a *traitor-origin* broadcast (the equivocation
            # case reliable broadcast exists to survive).
            workloads += tuple(
                RBBroadcastWorkload(
                    at=self.corrupt_at + offset,
                    origin=origin % self.n,
                    payload=("audit-rb", index),
                )
                for index, (offset, origin) in enumerate(
                    ((-10.0, 1), (2.0, 0), (6.0, 2), (12.0, 3))
                )
            )
        if self.stack in SMR_STACKS:
            # Multicast traffic around the corruption, so the armed
            # smr_agreement invariant compares real delivery histories
            # instead of holding vacuously over empty ones: one command
            # delivered before the corruption fires and two submitted into
            # the recovering system.
            workloads += tuple(
                SMRCommandWorkload(
                    at=self.corrupt_at + offset,
                    submitter=submitter % self.n,
                    command=("audit", index),
                )
                for index, (offset, submitter) in enumerate(
                    ((-12.0, 0), (8.0, 1), (20.0, 2))
                )
            )
        return ScenarioSpec(
            name=self.name if include is None else f"{self.name}:shrink",
            description=(
                f"audit: arbitrary state (corruption seed "
                f"{self.corruption_seed}) under the {self.scheduler} scheduler"
            ),
            n=self.n,
            config=self.config,
            stack=self.stack,
            scheduler=self.scheduler,
            scheduler_params=tuple(sorted(params.items())),
            workloads=workloads,
            horizon=self.corrupt_at + 5.0,
            probes=(
                probes.converged(self.convergence_budget),
                probes.participating(self.convergence_budget),
            )
            + (
                (probes.rb_delivered(self.convergence_budget),)
                if self.stack in RB_STACKS
                else ()
            ),
            invariants=invariants,
            track_convergence=True,
            convergence_poll=self.convergence_poll,
        )


#: Invariants armed on stacks that replicate state: SMR safety is certified,
#: not just probed (ROADMAP: "smr_agreement as an armed invariant").  RB
#: stacks certify the reliable-broadcast safety pair; the combined
#: ``vs_smr_rb`` stack certifies all three at once.
_RB_INVARIANTS = (probes.rb_agreement_invariant(), probes.rb_validity_invariant())
STACK_INVARIANTS: Dict[str, Tuple[probes.Invariant, ...]] = {
    "vs_smr": (probes.smr_agreement_invariant(),),
    "shared_register": (probes.smr_agreement_invariant(),),
    "rb_bracha": _RB_INVARIANTS,
    "rb_dolev": _RB_INVARIANTS,
    "rb_naive": _RB_INVARIANTS,
    "vs_smr_rb": (probes.smr_agreement_invariant(),) + _RB_INVARIANTS,
}


def build_cases(
    schedulers: Optional[Sequence[str]] = None,
    corruption_seeds: Sequence[int] = (0,),
    stacks: Optional[Sequence[str]] = None,
    profiles: Optional[Sequence[Any]] = None,
    **overrides: Any,
) -> List[AuditCase]:
    """The cross product ``schedulers × corruption_seeds [× stacks × profiles]``.

    Stacks with registered :data:`STACK_INVARIANTS` get those invariants
    armed automatically (explicit ``invariants`` overrides win).
    """
    names = list(schedulers) if schedulers is not None else available_schedulers()
    stack_list = list(stacks) if stacks is not None else [overrides.pop("stack", "bare")]
    profile_list = list(profiles) if profiles is not None else [
        overrides.pop("profile", DEFAULT_PROFILE)
    ]
    cases = []
    for stack in stack_list:
        stack_overrides = dict(overrides)
        if "invariants" not in stack_overrides:
            stack_overrides["invariants"] = STACK_INVARIANTS.get(stack, ())
        for profile in profile_list:
            for name in names:
                for seed in corruption_seeds:
                    cases.append(
                        AuditCase(
                            scheduler=name,
                            corruption_seed=seed,
                            stack=stack,
                            profile=profile,
                            **stack_overrides,
                        )
                    )
    return cases


# ---------------------------------------------------------------------------
# Warm prefix sharing: bootstrap once per (prefix, seed), fan corruption out
# ---------------------------------------------------------------------------
def prefix_key(case: AuditCase) -> str:
    """Digest of everything that shapes a case's *pre-corruption* execution.

    Two cases with the same key evolve identically until the corruption
    event fires (the corruption seed, profile and plan subset are read at
    fire time, not install time — see ``ArbitraryStateWorkload._fire``), so
    they can share one bootstrapped snapshot per simulator seed.  The probe
    budgets are deliberately *not* part of the key: probes run after the
    corruption, against the case's own spec.
    """
    spec = case.to_spec()
    stack = case.stack if isinstance(case.stack, str) else _digest(case.stack)
    config = case.config if isinstance(case.config, str) else _digest(case.config)
    return _digest(
        (
            case.n,
            stack,
            config,
            case.scheduler,
            spec.scheduler_params,
            case.corrupt_at,
            tuple((inv.name, inv.arm_after) for inv in spec.invariants),
            # A Byzantine case's spec *contents* are read at fire time and
            # patchable on a warm snapshot, but the workload's presence and
            # its firing instant shape the installed event set.
            case.byzantine is not None,
            case.byzantine.delay if case.byzantine is not None else 0.0,
        )
    )


def prefix_snapshot(case: AuditCase, seed: int) -> Optional[SimSnapshot]:
    """Bootstrap *case*'s pre-corruption prefix and snapshot at ``corrupt_at``.

    The run pauses right before the first event at ``time >= corrupt_at`` —
    whether that lands mid-bootstrap (slow adversary, large ``n``) or in the
    post-convergence horizon — and the whole prepared run (cluster, monitor,
    tracker, phase state, pending corruption event) is captured.  Returns
    ``None`` in the degenerate case where nothing was left to pause on (the
    caller falls back to cold runs).
    """
    run = prepare(case.to_spec(), seed=seed)
    completed = drive(run, stop_before=case.corrupt_at)
    if completed:
        return None
    return SimSnapshot.capture(run)


def _run_from_snapshot(
    snapshot: SimSnapshot,
    case: AuditCase,
    seed: int,
    include: Optional[Tuple[int, ...]] = None,
    record_atoms: bool = False,
) -> Dict[str, Any]:
    """Resume a restored prefix as *case*: patch the corruption, run, finalize.

    The pending corruption event in the snapshot belongs to whatever case
    built the prefix; its corruption-shaping fields are overwritten on the
    restored copy before the event fires, which is indistinguishable from a
    cold run of *case* (the fields are only read at fire time).
    """
    run = snapshot.restore()
    (workload,) = [
        w for w in run.spec.workloads if isinstance(w, ArbitraryStateWorkload)
    ]
    # The workload dataclass is frozen (specs are value-like); the restored
    # copy is private to this run, so patching it is safe.  ``include``
    # routes like in :meth:`AuditCase.to_spec`: to the traitor-assignment
    # plan for a Byzantine case, to the corruption plan otherwise.
    object.__setattr__(workload, "seed", case.corruption_seed)
    object.__setattr__(workload, "profile", get_profile(case.profile))
    object.__setattr__(workload, "include", include if case.byzantine is None else None)
    object.__setattr__(workload, "record_atoms", record_atoms)
    if case.byzantine is not None:
        (byz_workload,) = [
            w for w in run.spec.workloads if isinstance(w, ByzantineWorkload)
        ]
        object.__setattr__(byz_workload, "spec", case.byzantine)
        object.__setattr__(byz_workload, "include", include)
        object.__setattr__(byz_workload, "record_atoms", record_atoms)
    # Swap in the case's own spec for naming and probe budgets; the installed
    # objects (workloads, monitor, tracker) stay the restored ones.
    run.spec = case.to_spec(include=include, record_atoms=record_atoms)
    drive(run)
    return finalize(run)


#: Per-sweep warm state, rebuilt by :func:`certify` and inherited by forked
#: matrix workers (copy-on-write).  Under a spawn start method the workers
#: see empty dicts and fall back to cold runs — correct, just slower.
_WARM_CASES: Dict[str, AuditCase] = {}
_WARM_SNAPSHOTS: Dict[Tuple[str, int], SimSnapshot] = {}


def _warm_job(name: str, seed: int) -> Dict[str, Any]:
    """Matrix job runner: resume the case's warm snapshot when one exists."""
    case = _WARM_CASES.get(name)
    if case is not None:
        snapshot = _WARM_SNAPSHOTS.get((prefix_key(case), seed))
        if snapshot is not None:
            return _run_from_snapshot(snapshot, case, seed)
    return run_scenario(name, seed=seed)


def run_case(
    case: AuditCase,
    seed: int,
    include: Optional[Tuple[int, ...]] = None,
    record_atoms: bool = False,
    snapshot: Optional[SimSnapshot] = None,
) -> Dict[str, Any]:
    """Execute one audit run (spec passed directly; no registration needed).

    With *snapshot* (a :func:`prefix_snapshot` of the same ``(case, seed)``
    prefix), the bootstrap is skipped by resuming the warm copy — the result
    is byte-identical to the cold path.
    """
    if snapshot is not None:
        return _run_from_snapshot(snapshot, case, seed, include=include, record_atoms=record_atoms)
    return run_scenario(case.to_spec(include=include, record_atoms=record_atoms), seed=seed)


def _verdict(entry: Dict[str, Any], corrupt_at: Optional[float] = None) -> Dict[str, Any]:
    probes_out = entry.get("probes", {})
    convergence = entry.get("convergence")
    corrupted_converged = None
    if corrupt_at is not None and convergence is not None:
        # Whether the corruption actually hit an already-converged system —
        # under a slow adversary (or a large n) bootstrap can overrun
        # ``corrupt_at``, in which case the run certifies convergence *from*
        # the corrupted bootstrap state rather than re-convergence after it.
        first = convergence.get("first_true_time")
        corrupted_converged = first is not None and first <= corrupt_at
    return {
        "case": entry["scenario"],
        "seed": entry["seed"],
        "certified": bool(entry.get("ok")),
        "converged": probes_out.get("converged", {}).get("satisfied"),
        "all_participating": probes_out.get("all_participating", {}).get("satisfied"),
        "corrupted_converged_state": corrupted_converged,
        "convergence": convergence,
        "invariants": entry.get("invariants"),
        "corruption": entry.get("workload_reports"),
        "error": entry.get("error"),
    }


def certify(
    cases: Sequence[AuditCase],
    seeds: Sequence[int],
    workers: int = 1,
    shrink_failures: bool = True,
    max_shrink_trials: int = 64,
    reuse_prefix: bool = True,
    store: Optional[SweepStore] = None,
) -> Dict[str, Any]:
    """Sweep ``cases x seeds``; return the JSON-serializable audit report.

    The cases are registered as named scenarios (re-registration allowed) so
    the parallel matrix workers can resolve them, exactly like the built-in
    scenario library.

    With *reuse_prefix* (the default), cases sharing a pre-corruption prefix
    are fanned out from one warm :class:`~repro.sim.snapshot.SimSnapshot` per
    ``(prefix, simulator seed)`` instead of each paying a full bootstrap;
    results are byte-identical to the cold path.  Snapshots are built in the
    parent, serially (a snapshot is plain bytes and could travel to a worker,
    but the forked pool inherits the whole table for free), so without a
    persistent store a group only goes warm when its fan-out beats that
    serial cost: at least 2 cases per prefix, and at least one case per
    *actually available* core the pool could otherwise use for parallel cold
    bootstraps.

    With a *store* (:class:`~repro.audit.store.SweepStore`), the sweep is
    **incremental across invocations**: every ``(case, seed)`` cell is first
    looked up by its content-addressed fingerprint and cache hits replay the
    stored deterministic entry instead of dispatching a run; only the misses
    reach the matrix.  Pre-corruption prefix snapshots are read from and
    written back to the store's disk-backed snapshot table, so warm prefixes
    survive across processes and machines too (any group with >= 2 pending
    members is worth persisting, since the snapshot outlives the process).
    Any source change under ``src/repro`` rotates the fingerprint salt and
    every lookup misses — stale cells are counted, never consulted.
    ``meta.cache`` reports hit/miss/invalidation counts either way.
    """
    wall_start = time.perf_counter()
    by_name: Dict[str, AuditCase] = {}
    for case in cases:
        register_scenario(case.to_spec(), replace=True)
        by_name[case.name] = case
    job_runner = None
    groups: Dict[str, List[AuditCase]] = {}
    warm_jobs = 0
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platform without affinity
        cores = os.cpu_count() or 1
    parallelism = max(1, min(workers, cores, len(by_name) * max(1, len(seeds))))

    # ------------------------------------------------------------------
    # Cache lookup: serve every content-addressed hit from the store and
    # dispatch only the misses.  The fingerprint covers the fully-resolved
    # case, the simulator seed and the source-tree salt, so a hit is exactly
    # a cell whose inputs (code included) have not changed.
    # ------------------------------------------------------------------
    salt = source_tree_salt() if store is not None else None
    fingerprints: Dict[Tuple[str, int], str] = {}
    cached_entries: List[Dict[str, Any]] = []
    snapshot_hits = 0
    snapshots_written = 0
    if store is not None:
        miss_jobs: List[Tuple[str, int]] = []
        for case in by_name.values():
            for seed in seeds:
                fingerprint = fingerprint_cell(case, seed, salt)
                fingerprints[(case.name, seed)] = fingerprint
                entry = store.get_result(fingerprint)
                if entry is not None:
                    cached_entries.append(entry)
                else:
                    miss_jobs.append((case.name, seed))
    else:
        miss_jobs = [
            (case.name, seed) for case in by_name.values() for seed in seeds
        ]
    miss_set = set(miss_jobs)

    if reuse_prefix and miss_jobs:
        for case in by_name.values():
            groups.setdefault(prefix_key(case), []).append(case)
        _WARM_CASES.clear()
        _WARM_SNAPSHOTS.clear()
        _WARM_CASES.update(by_name)
        for key, members in groups.items():
            for seed in seeds:
                pending = [case for case in members if (case.name, seed) in miss_set]
                if not pending:
                    continue
                snapshot = None
                prefix_fp = fingerprint_prefix(key, salt) if store is not None else None
                if store is not None:
                    # Disk-warm prefix: loading a pickled snapshot costs
                    # milliseconds, so a hit is worth taking at any fan-out.
                    snapshot = store.get_snapshot(prefix_fp, seed)
                    if snapshot is not None:
                        snapshot_hits += 1
                if snapshot is None:
                    # Building costs one serial parent bootstrap.  In-memory
                    # only, it must beat the pool's parallel cold bootstraps
                    # (>= max(2, parallelism) members); persisted, it outlives
                    # the process, so any real sharing (>= 2) already pays.
                    threshold = 2 if store is not None else max(2, parallelism)
                    if len(pending) < threshold:
                        continue
                    snapshot = prefix_snapshot(members[0], seed)
                    if snapshot is not None and store is not None:
                        store.put_snapshot(prefix_fp, seed, snapshot, salt)
                        snapshots_written += 1
                if snapshot is not None:
                    _WARM_SNAPSHOTS[(key, seed)] = snapshot
                    warm_jobs += len(pending)
        if _WARM_SNAPSHOTS:
            job_runner = _warm_job
    try:
        names = list(by_name)
        if miss_jobs:
            sweep = run_matrix(
                names,
                seeds=seeds,
                workers=workers,
                job_runner=job_runner,
                jobs=miss_jobs,
            )
            sweep_results = sweep["results"]
            sweep_meta = sweep["meta"]
        else:
            # Every cell was served from the cache; there is no sweep.
            sweep_results = []
            sweep_meta = {"workers": 0, "sweep": {"jobs": 0, "fully_cached": True}}
        if store is not None:
            for entry in sweep_results:
                # Entries carrying an "error" are not deterministic facts
                # about the cell (worker death, transient OOM) — never cache
                # them, so the next invocation retries.
                if entry.get("error"):
                    continue
                store.put_result(
                    fingerprints[(entry["scenario"], entry["seed"])],
                    entry["scenario"],
                    entry["seed"],
                    entry,
                    salt,
                )
        results = sorted(
            cached_entries + sweep_results,
            key=lambda entry: (entry["scenario"], entry["seed"]),
        )
        verdicts = [
            _verdict(entry, corrupt_at=by_name[entry["scenario"]].corrupt_at)
            for entry in results
        ]
        failures = [v for v in verdicts if not v["certified"]]
        report: Dict[str, Any] = {
            "meta": {
                "cases": sorted(by_name),
                "seeds": list(seeds),
                "workers": sweep_meta["workers"],
                "runs": len(verdicts),
                "sweep": sweep_meta["sweep"],
                # Warm prefix sharing: how many distinct pre-corruption
                # prefixes the matrix had, and how many of its runs resumed
                # a snapshot instead of bootstrapping from scratch.
                "prefix_reuse": {
                    "enabled": bool(reuse_prefix),
                    "distinct_prefixes": len(groups) if reuse_prefix else None,
                    "snapshots": len(_WARM_SNAPSHOTS) if reuse_prefix else 0,
                    "warm_runs": warm_jobs,
                },
                # The persistent sweep cache: cells served without dispatch,
                # cells recomputed, disk-warm prefix traffic, and how many
                # stored rows the current source-tree salt invalidates.
                "cache": _cache_meta(
                    store,
                    salt,
                    hits=len(cached_entries),
                    misses=len(miss_jobs),
                    snapshot_hits=snapshot_hits,
                    snapshots_written=snapshots_written,
                ),
                # Runs where bootstrap overran corrupt_at: those certify
                # convergence from a corrupted bootstrap state, not
                # re-convergence of a converged system.
                "corrupted_mid_bootstrap": sum(
                    1 for v in verdicts if v["corrupted_converged_state"] is False
                ),
            },
            "certified": not failures,
            "failed": [f"{v['case']}@{v['seed']}" for v in failures],
            "verdicts": verdicts,
        }
        report["stabilization"] = stabilization_distribution(verdicts)
        if shrink_failures and failures:
            # A failing case's prefix snapshot is usually already warm from
            # the sweep; hand it to the shrinker so ddmin skips the
            # re-bootstrap too.
            report["reproducers"] = [
                shrink_case(
                    by_name[v["case"]],
                    v["seed"],
                    max_trials=max_shrink_trials,
                    snapshot=_WARM_SNAPSHOTS.get(
                        (prefix_key(by_name[v["case"]]), v["seed"])
                    ),
                    store=store,
                )
                for v in failures
            ]
        report["meta"]["wall_seconds"] = time.perf_counter() - wall_start
        return report
    finally:
        if reuse_prefix:
            # Each snapshot is the pickle of a whole simulation graph (a few
            # hundred KB); they were only needed during the sweep (workers
            # inherited them at fork) and the shrink pass — don't hold the
            # memory for the process lifetime, not even when a worker death
            # raised.
            _WARM_CASES.clear()
            _WARM_SNAPSHOTS.clear()


def _cache_meta(
    store: Optional[SweepStore],
    salt: Optional[str],
    hits: int,
    misses: int,
    snapshot_hits: int,
    snapshots_written: int,
) -> Dict[str, Any]:
    """The ``meta.cache`` section of a sweep report."""
    if store is None:
        return {"enabled": False}
    stats = store.stats(salt)
    return {
        "enabled": True,
        "dir": str(store.directory),
        "salt": salt,
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / (hits + misses), 4) if (hits + misses) else None,
        "snapshot_hits": snapshot_hits,
        "snapshots_written": snapshots_written,
        # Invalidation counts: rows stored under *other* source-tree salts.
        # They are never consulted (the salt is folded into every
        # fingerprint); `python -m repro.audit.store prune` reclaims them.
        "stale_results": stats["stale_results"],
        "stale_snapshots": stats["stale_snapshots"],
    }


# ---------------------------------------------------------------------------
# Stabilization-time distributions
# ---------------------------------------------------------------------------
def stabilization_distribution(verdicts: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Distribution of stabilization times across a sweep's verdicts.

    ``worst`` is the headline the convergence-bound regression gate compares
    against its checked-in baseline; ``by_case`` records each case's own
    worst so a regression is attributable to one adversary.
    """
    times: List[float] = []
    by_case: Dict[str, float] = {}
    unconverged: List[str] = []
    for verdict in verdicts:
        convergence = verdict.get("convergence") or {}
        time = convergence.get("stabilization_time")
        if time is None:
            unconverged.append(f"{verdict['case']}@{verdict['seed']}")
            continue
        times.append(time)
        case = verdict["case"]
        by_case[case] = max(by_case.get(case, 0.0), time)
    if not times:
        return {"runs": 0, "unconverged": unconverged}
    return {
        "runs": len(times),
        "unconverged": unconverged,
        "min": min(times),
        "median": statistics.median(times),
        "mean": statistics.fmean(times),
        "worst": max(times),
        "by_case": dict(sorted(by_case.items())),
    }


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------
def _fails(result: Dict[str, Any]) -> bool:
    return not result.get("ok")


def _plan_kind(case: AuditCase) -> str:
    """Which workload report holds the case's shrinkable plan."""
    return "byzantine" if case.byzantine is not None else "arbitrary_state"


def _plan_size(result: Dict[str, Any], kind: str = "arbitrary_state") -> int:
    for entry in result.get("workload_reports", ()):
        if entry.get("workload") == kind:
            return int(entry.get("atoms_total", 0))
    return 0


def shrink_case(
    case: AuditCase,
    seed: int,
    max_trials: int = 64,
    reuse_prefix: bool = True,
    snapshot: Optional[SimSnapshot] = None,
    store: Optional[SweepStore] = None,
) -> Dict[str, Any]:
    """Shrink *case*'s corruption plan to a minimal failing subset (ddmin).

    The plan is a pure function of ``(case, seed)``, so subsets are stable
    across re-runs; the shrinker repeatedly bisects the surviving index set,
    keeping any complement that still fails, and refines granularity until
    either every single-atom removal breaks the failure (1-minimality) or
    the trial budget is spent.

    Every probe run replays the *same* deterministic pre-corruption prefix,
    so with *reuse_prefix* the shrinker bootstraps once, snapshots, and
    resumes the warm copy per trial — a ddmin pass over a hundred atoms pays
    for one bootstrap instead of dozens.  A caller that already holds the
    matching prefix *snapshot* (``certify`` does, for failures of a warm
    sweep) can pass it in to skip even that one bootstrap; with a persistent
    *store*, the prefix is read from (or written back to) the disk snapshot
    table, so repeated shrink sessions — across processes — never pay the
    bootstrap again.
    """
    if snapshot is None and reuse_prefix:
        prefix_fp = (
            fingerprint_prefix(prefix_key(case)) if store is not None else None
        )
        if store is not None:
            snapshot = store.get_snapshot(prefix_fp, seed)
        if snapshot is None:
            snapshot = prefix_snapshot(case, seed)
            if snapshot is not None and store is not None:
                store.put_snapshot(prefix_fp, seed, snapshot)
    plan_kind = _plan_kind(case)
    full = run_case(case, seed, snapshot=snapshot)
    total = _plan_size(full, kind=plan_kind)
    base = {"case": case.name, "seed": seed, "plan": plan_kind, "atoms_total": total}
    if not _fails(full):
        return {**base, "note": "run does not fail; nothing to shrink", "trials": 1}
    indices: List[int] = list(range(total))
    trials = 1
    granularity = 2
    while len(indices) > 1 and trials < max_trials:
        chunk = math.ceil(len(indices) / granularity)
        chunks = [indices[i : i + chunk] for i in range(0, len(indices), chunk)]
        reduced = False
        for drop in range(len(chunks)):
            candidate = [
                index
                for which, part in enumerate(chunks)
                if which != drop
                for index in part
            ]
            if not candidate:
                continue
            result = run_case(case, seed, include=tuple(candidate), snapshot=snapshot)
            trials += 1
            if _fails(result):
                indices = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
            if trials >= max_trials:
                break
        if not reduced:
            if granularity >= len(indices):
                break
            granularity = min(len(indices), granularity * 2)
    final = run_case(case, seed, include=tuple(indices), record_atoms=True, snapshot=snapshot)
    atoms: List[str] = []
    for entry in final.get("workload_reports", ()):
        if entry.get("workload") == plan_kind:
            atoms = list(entry.get("atoms", ()))
    return {
        **base,
        "minimal_indices": list(indices),
        "minimal_size": len(indices),
        "atoms": atoms,
        "still_fails": _fails(final),
        "trials": trials + 1,
    }
