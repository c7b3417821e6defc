"""The certification harness: sweep, verdicts and reproducer shrinking.

An :class:`AuditCase` names one ``(adversarial scheduler, corruption seed)``
cell of the audit matrix; :func:`certify` sweeps ``cases x simulator seeds``
through the scenario engine's matrix (:func:`repro.scenarios.runner
.run_matrix`, so the audit reuses the same forked process pool and
determinism contract as every other sweep) and asserts, per run, that

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
plan subset, all of which are read at fire time, and not on a scheduler
program that is still quiet then (``uniform``, or a dynamic adversary
anchored after the corruption).  :func:`certify` therefore
groups cases by that pre-corruption *prefix* (:func:`prefix_key`), bootstraps
each distinct ``(prefix, simulator seed)`` once, snapshots it right before
the first event at ``corrupt_at`` (:class:`~repro.sim.snapshot.SimSnapshot`),
and fans the corruption cases out from the warm snapshot — the dominant cost
of a matrix drops from O(cases) bootstraps to O(distinct prefixes).  The
workers of the sweep's ``fork``-context ``ProcessPoolExecutor`` inherit
parent-captured snapshots copy-on-write; they live only for the one sweep.  A group goes warm only when it has at
least ``max(2, parallelism)`` cases, the point where one serial bootstrap in
the parent beats the pool's parallel cold ones.  Warm results are
byte-identical to cold ones: the test-suite pins the two reports'
deterministic projection equal, and ``reuse_prefix=False`` forces the cold
reference path.

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
from dataclasses import dataclass, field, replace
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
from repro.scenarios.runner import drive, finalize, prepare, run_matrix, run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.workloads import (
    ArbitraryStateWorkload,
    RBBroadcastWorkload,
    SMRCommandWorkload,
)
from repro.sim.events import Entry
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
    #: Large-n tiers set this: on the n128 tier's converged cluster the scan
    #: costs ~60 us, paid after each of ~10 000 events per sim-unit, and a
    #: 0.2-unit cadence only coarsens the reported stabilization times by
    #: that interval.  Measurement
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
        # The name is the case's identity in reports and pins: it encodes
        # every parameter that shapes the run, so two cases with different
        # topologies/stacks/intensities/program parameters never share one.
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
def _quiet(case: AuditCase, spec: ScenarioSpec) -> bool:
    """Whether *case*'s program leaves the environment alone until the
    corruption fires (:meth:`AdversarialScheduler.first_act`)."""
    scheduler = get_scheduler(case.scheduler)
    return scheduler.first_act(**dict(spec.scheduler_params)) >= case.corrupt_at


@dataclass
class _QuietPrograms:
    """The environment programs of a shared prefix, installed and held back.

    A shared prefix's spec names no scheduler and lists this first among its
    workloads, so it installs where :func:`prepare` installs a scheduler:
    each program draws its stream, reads the cluster and schedules its
    transitions at t = 0 with the sequence numbers it gets in a cold run,
    and those events then leave the queue.  A warm run puts back its own
    program's events (:meth:`arm`), which restores the cold run's event
    order, ties with workload events at the same instant included.
    """

    programs: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]
    held: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], List[Entry]] = field(
        default_factory=dict
    )

    def install(self, cluster: Any) -> None:
        events = cluster.simulator.events
        for name, params in self.programs:
            since = events.next_sequence
            get_scheduler(name).install(cluster, **dict(params))
            self.held[(name, params)] = events.withdraw(since)

    def arm(self, cluster: Any, spec: ScenarioSpec) -> None:
        """Put the events of *spec*'s program back into the queue."""
        cluster.simulator.events.readmit(self.held[(spec.scheduler, spec.scheduler_params)])


def prefix_key(case: AuditCase) -> str:
    """Digest of everything that shapes a case's *pre-corruption* execution.

    Two cases with the same key evolve identically until the corruption
    event fires (the corruption seed, profile and plan subset are read at
    fire time, not install time — see ``ArbitraryStateWorkload._fire``), so
    they can share one bootstrapped snapshot per simulator seed.  The probe
    budgets are deliberately *not* part of the key: probes run after the
    corruption, against the case's own spec.  Neither is the scheduler of a
    case whose program is still quiet when the corruption fires (``uniform``,
    and a dynamic adversary whose first transition comes at ``corrupt_at``
    or later): such cases share the program-free prefix, which holds each
    of their programs installed but not yet armed (:func:`prefix_snapshot`).
    A static program acts at install time, so it is always in the key.
    """
    spec = case.to_spec()
    stack = case.stack if isinstance(case.stack, str) else _digest(case.stack)
    config = case.config if isinstance(case.config, str) else _digest(case.config)
    program = () if _quiet(case, spec) else (case.scheduler, spec.scheduler_params)
    return _digest(
        (
            case.n,
            stack,
            config,
            program,
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

    When *case*'s program is quiet until ``corrupt_at`` the prefix is the
    program-free one of its :func:`prefix_key` group, with the program
    installed at the scheduler's place and its events held back until a
    warm run arms them.  :func:`certify` builds one such prefix for a whole
    group, holding every member's program.
    """
    return _group_snapshot([case], seed)


def _group_snapshot(members: Sequence[AuditCase], seed: int) -> Optional[SimSnapshot]:
    """:func:`prefix_snapshot` of the prefix *members* share (one key)."""
    case = members[0]
    spec = case.to_spec()
    if _quiet(case, spec):
        programs = dict.fromkeys(
            (member.scheduler, member.to_spec().scheduler_params) for member in members
        )
        spec = replace(
            spec,
            scheduler=None,
            scheduler_params=(),
            workloads=(_QuietPrograms(tuple(programs)),) + spec.workloads,
        )
    run = prepare(spec, seed=seed)
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
    """Resume a restored prefix as *case*: arm its program, patch the
    corruption, run, finalize.

    A shared program-free prefix holds *case*'s program installed but
    disarmed; its events go back into the queue first.  The pending
    corruption event in the snapshot belongs to whatever case built the
    prefix; its corruption-shaping fields are overwritten on the restored
    copy before the event fires, which is indistinguishable from a cold run
    of *case* (the fields are only read at fire time).
    """
    spec = case.to_spec(include=include, record_atoms=record_atoms)
    run = snapshot.restore()
    held = run.spec.workloads[0]
    if isinstance(held, _QuietPrograms):
        held.arm(run.cluster, spec)
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
    run.spec = spec
    drive(run)
    return finalize(run)


def run_case(
    case: AuditCase,
    seed: int,
    include: Optional[Tuple[int, ...]] = None,
    record_atoms: bool = False,
    snapshot: Optional[SimSnapshot] = None,
) -> Dict[str, Any]:
    """Execute one audit run.

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
    *,
    store: None = None,
) -> Dict[str, Any]:
    """Sweep ``cases x seeds``; return the JSON-serializable audit report.

    The cases themselves are the sweep's jobs: :func:`run_matrix` runs each
    ``(case, seed)`` through :func:`run_case`; with ``workers > 1`` the
    forked workers of its process pool inherit the case list and the
    snapshot table (nothing is pickled on the way in).

    With *reuse_prefix* (the default), cases sharing a pre-corruption prefix
    (:func:`prefix_key`) are fanned out from one warm
    :class:`~repro.sim.snapshot.SimSnapshot` per ``(prefix, simulator
    seed)`` instead of each paying a full bootstrap; cases whose programs
    are quiet until the corruption share one program-free prefix that holds
    each of their programs disarmed, and each warm run arms its own.
    Results are byte-identical to the cold path.  Snapshots are built in the
    parent, serially, and the forked pool inherits the whole table, so a
    group only goes warm when its fan-out beats that serial cost: at least
    ``max(2, parallelism)`` cases per prefix, where *parallelism* is the
    number of *actually available* cores the pool could otherwise use for
    parallel cold bootstraps.
    """
    # The frozen benchmark (benchmarks/spine/workloads.py, audit_recovery)
    # still passes ``store=None``; this one-value keyword exists only so that
    # call keeps working until the next benchmark change (ROADMAP item 6(f)).
    if store is not None:
        raise TypeError("certify() has no sweep store; store must be None")
    wall_start = time.perf_counter()
    by_name: Dict[str, AuditCase] = {case.name: case for case in cases}
    keys: Dict[str, str] = {}
    groups: Dict[str, List[AuditCase]] = {}
    snapshots: Dict[Tuple[str, int], SimSnapshot] = {}
    warm_jobs = 0
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platform without affinity
        cores = os.cpu_count() or 1
    parallelism = max(1, min(workers, cores, len(by_name) * max(1, len(seeds))))

    if reuse_prefix:
        for name, case in by_name.items():
            keys[name] = prefix_key(case)
            groups.setdefault(keys[name], []).append(case)
        for key, members in groups.items():
            # Building costs one serial parent bootstrap, which must beat
            # the pool's parallel cold bootstraps of the same members.
            if len(members) < max(2, parallelism):
                continue
            for seed in seeds:
                snapshot = _group_snapshot(members, seed)
                if snapshot is not None:
                    snapshots[(key, seed)] = snapshot
                    warm_jobs += len(members)

    def warm_snapshot(case: AuditCase, seed: int) -> Optional[SimSnapshot]:
        return snapshots.get((keys.get(case.name), seed))

    def run_job(case: AuditCase, seed: int) -> Dict[str, Any]:
        return run_case(case, seed, snapshot=warm_snapshot(case, seed))

    sweep = run_matrix(
        list(by_name.values()), seeds=seeds, workers=workers, job_runner=run_job
    )
    verdicts = [
        _verdict(entry, corrupt_at=by_name[entry["scenario"]].corrupt_at)
        for entry in sweep["results"]
    ]
    failures = [v for v in verdicts if not v["certified"]]
    report: Dict[str, Any] = {
        "meta": {
            "cases": sorted(by_name),
            "seeds": list(seeds),
            "workers": sweep["meta"]["workers"],
            "runs": len(verdicts),
            "sweep": sweep["meta"]["sweep"],
            # Warm prefix sharing: how many distinct pre-corruption
            # prefixes the matrix had, and how many of its runs resumed
            # a snapshot instead of bootstrapping from scratch.
            "prefix_reuse": {
                "enabled": bool(reuse_prefix),
                "distinct_prefixes": len(groups) if reuse_prefix else None,
                "snapshots": len(snapshots),
                "warm_runs": warm_jobs,
            },
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
        # A failing case's prefix snapshot is usually already warm from the
        # sweep; hand it to the shrinker so ddmin skips the re-bootstrap too.
        report["reproducers"] = [
            shrink_case(
                by_name[v["case"]],
                v["seed"],
                max_trials=max_shrink_trials,
                snapshot=warm_snapshot(by_name[v["case"]], v["seed"]),
            )
            for v in failures
        ]
    report["meta"]["wall_seconds"] = time.perf_counter() - wall_start
    return report


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
    sweep) can pass it in to skip even that one bootstrap.
    """
    if snapshot is None and reuse_prefix:
        snapshot = prefix_snapshot(case, seed)
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
