"""Composable workloads: everything installs through one protocol.

The scenario layer's contract is a single method::

    workload.install(cluster)   # before the run starts

Each workload schedules its disturbance(s) on the cluster's simulator; a
scenario composes several (churn *while* corrupting *while* partitioned) by
listing them.  State and channel corruption has exactly one form — a seeded
:mod:`repro.audit.arbitrary_state` plan, applied by
:class:`ArbitraryStateWorkload` — and the other workloads cover churn,
partitions, crash storms, join waves and client operations with seeded,
reproducible parameters.

Workloads that draw randomness default their seed to the cluster's simulator
seed, so a seed sweep varies the disturbances together with the rest of the
run while two runs of the same seed stay identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.audit.arbitrary_state import (
    DEFAULT_PROFILE,
    CorruptionProfile,
    generate_plan,
    plan_summary,
)
from repro.common.rng import make_rng
from repro.common.types import ProcessId
from repro.sim.events import Action
from repro.sim.faults import apply_plan

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster


@runtime_checkable
class Workload(Protocol):
    """Anything that can schedule its disturbances on a cluster."""

    def install(self, cluster: "Cluster") -> None:  # pragma: no cover - protocol
        ...


def _seed_for(workload_seed: Optional[int], cluster: "Cluster") -> int:
    return workload_seed if workload_seed is not None else cluster.simulator.seed


def _join_if_absent(cluster: "Cluster", pid: ProcessId) -> None:
    """Add joiner *pid* unless the cluster already has a node of that id
    (``add_joiner`` would raise on the duplicate process id)."""
    if pid not in cluster.nodes:
        cluster.add_joiner(pid)


@dataclass(frozen=True)
class ChurnWorkload:
    """Random crashes and joins drawn at install time.

    ``crash_rate`` / ``join_rate`` are expected events per unit of simulated
    time; ``max_crashes`` caps crashes (by default at just below half of the
    initial membership so a majority survives, matching the paper's
    assumption for delicate reconfiguration).  The initial membership is read
    off the cluster, so the same workload value composes with any topology
    size.
    """

    start: float = 0.0
    duration: float = 100.0
    crash_rate: float = 0.0
    join_rate: float = 0.0
    max_crashes: Optional[int] = None
    first_new_pid: int = 1000
    seed: Optional[int] = None

    def events(self, cluster: "Cluster") -> List[Tuple[float, str, ProcessId]]:
        """The ``(time, "crash" | "join", pid)`` events, sorted by time."""
        rng = make_rng(_seed_for(self.seed, cluster), "churn")
        end = self.start + self.duration
        crash_candidates = sorted(cluster.nodes)
        max_crashes = self.max_crashes
        if max_crashes is None:
            max_crashes = max(0, (len(crash_candidates) - 1) // 2)
        events: List[Tuple[float, str, ProcessId]] = []

        time = self.start
        while self.crash_rate > 0 and crash_candidates and len(events) < max_crashes:
            time += rng.expovariate(self.crash_rate)
            if time >= end:
                break
            victim = rng.choice(crash_candidates)
            crash_candidates.remove(victim)
            events.append((time, "crash", victim))

        time = self.start
        next_pid = self.first_new_pid
        while self.join_rate > 0:
            time += rng.expovariate(self.join_rate)
            if time >= end:
                break
            events.append((time, "join", next_pid))
            next_pid += 1

        events.sort(key=lambda event: event[0])
        return events

    def install(self, cluster: "Cluster") -> None:
        # The events guard themselves at fire time: a crash of an unknown or
        # already-crashed pid and a join of an existing pid are no-ops.
        for time, kind, pid in self.events(cluster):
            fire = type(cluster).try_crash if kind == "crash" else _join_if_absent
            cluster.simulator.call_at(
                time, Action(fire, cluster, pid), label=f"churn:{kind}:{pid}"
            )


@dataclass(frozen=True)
class ArbitraryStateWorkload:
    """The paper's *full* transient-fault model as one workload.

    At time *at*, generate a seeded corruption plan over every protocol-state
    field of the cluster (recSA, recMA, failure detector, stack services)
    plus bounded channel stuffing — see
    :mod:`repro.audit.arbitrary_state` — and apply it.

    ``profile`` is a :class:`CorruptionProfile` or the name of a registered
    one.  ``include`` restricts application to the given indices of the (always
    fully generated, deterministic) plan; the audit harness uses this to
    shrink a violating run to a minimal reproducer.  ``record_atoms`` adds
    the applied atoms' descriptions to the workload report (reproducer
    output; off by default to keep sweep results small).
    """

    at: float
    seed: Optional[int] = None
    profile: Union[str, CorruptionProfile] = DEFAULT_PROFILE
    include: Optional[Tuple[int, ...]] = None
    record_atoms: bool = False

    def install(self, cluster: "Cluster") -> None:
        cluster.simulator.call_at(
            self.at,
            Action(ArbitraryStateWorkload._fire, self, cluster),
            label="workload:arbitrary-state",
        )

    def _fire(self, cluster: "Cluster") -> None:
        # Every corruption-shaping field (seed, profile, include,
        # record_atoms) is read *here*, at fire time, not at install time:
        # the audit harness's warm path snapshots a bootstrapped prefix with
        # this event still pending and patches those fields before resuming,
        # which must be indistinguishable from a cold run.
        plan = generate_plan(
            cluster, seed=_seed_for(self.seed, cluster), profile=self.profile
        )
        if self.include is None:
            selected = plan
        else:
            selected = [plan[i] for i in self.include if 0 <= i < len(plan)]
        report = apply_plan(cluster, selected)
        entry = {
            "workload": "arbitrary_state",
            "time": self.at,
            "atoms_total": len(plan),
            "atoms_selected": len(selected),
            "by_kind": plan_summary(selected),
            **report,
        }
        if self.record_atoms:
            entry["atoms"] = [atom.describe() for atom in selected]
        cluster.workload_reports.append(entry)


@dataclass(frozen=True)
class CrashWorkload:
    """Crash specific pids at specific times (``((time, pid), ...)``)."""

    schedule: Tuple[Tuple[float, ProcessId], ...]

    def install(self, cluster: "Cluster") -> None:
        for time, pid in self.schedule:
            cluster.simulator.call_at(
                time,
                Action(type(cluster).try_crash, cluster, pid),
                label=f"workload:crash:{pid}",
            )


@dataclass(frozen=True)
class QuorumEdgeCrashWorkload:
    """Simultaneously crash the largest survivable minority of the agreed
    configuration — the crash storm right at the quorum edge.

    The victim count is ``ceil(|config|/2) - 1`` (a majority must survive for
    delicate reconfiguration); victims are the lowest member ids, so the
    storm is deterministic given the agreed configuration.
    """

    at: float

    def install(self, cluster: "Cluster") -> None:
        cluster.simulator.call_at(
            self.at, Action(QuorumEdgeCrashWorkload._fire, cluster), label="workload:quorum-edge"
        )

    @staticmethod
    def _fire(cluster: "Cluster") -> None:
        config = cluster.agreed_configuration()
        if config is None:
            members = sorted(node.pid for node in cluster.alive_nodes())
        else:
            members = sorted(config)
        victims = members[: (len(members) - 1) // 2]
        for pid in victims:
            cluster.try_crash(pid)


@dataclass(frozen=True)
class FlashJoinWorkload:
    """A wave of *count* joiners arriving at the same instant."""

    at: float
    count: int = 4
    first_pid: int = 500

    def install(self, cluster: "Cluster") -> None:
        cluster.simulator.call_at(
            self.at, Action(FlashJoinWorkload._fire, self, cluster), label="workload:flash-join"
        )

    def _fire(self, cluster: "Cluster") -> None:
        for pid in range(self.first_pid, self.first_pid + self.count):
            _join_if_absent(cluster, pid)


@dataclass(frozen=True)
class PartitionWorkload:
    """Split the alive nodes into two halves at *at*; heal at *heal_at*."""

    at: float
    heal_at: float

    #: Name of the partition :meth:`_split` installs and :meth:`_heal` heals;
    #: partitions owned by environment programs are left alone.
    NAME: ClassVar[str] = "workload:partition"

    def install(self, cluster: "Cluster") -> None:
        if self.heal_at <= self.at:
            raise ValueError("heal_at must be after the partition time")
        cluster.simulator.call_at(
            self.at, Action(PartitionWorkload._split, cluster), label="workload:partition"
        )
        cluster.simulator.call_at(
            self.heal_at, Action(PartitionWorkload._heal, cluster), label="workload:heal"
        )

    @staticmethod
    def _split(cluster: "Cluster") -> None:
        alive = sorted(node.pid for node in cluster.alive_nodes())
        half = len(alive) // 2
        if half and len(alive) - half:
            cluster.environment.partition(
                alive[:half], alive[half:], name=PartitionWorkload.NAME
            )

    @staticmethod
    def _heal(cluster: "Cluster") -> None:
        cluster.environment.heal(PartitionWorkload.NAME)


@dataclass(frozen=True)
class SMRCommandWorkload:
    """Submit a command to *submitter*'s VS layer for totally-ordered delivery.

    The replicated-state counterpart of :class:`RegisterWriteWorkload` for
    stacks that expose the raw ``"vs"`` service (``vs_smr``): delivered
    commands land in every replica's delivery history, which is what makes
    the ``smr_agreement`` invariant check something real instead of holding
    vacuously over empty histories.
    """

    at: float
    submitter: ProcessId
    command: Any

    def install(self, cluster: "Cluster") -> None:
        cluster.simulator.call_at(
            self.at,
            Action(SMRCommandWorkload._fire, self, cluster),
            label=f"workload:smr-command:{self.submitter}",
        )

    def _fire(self, cluster: "Cluster") -> None:
        node = cluster.nodes.get(self.submitter)
        if node is None or node.crashed:
            return
        vs = node.service_map.get("vs")
        if vs is not None:
            vs.submit(self.command)


@dataclass(frozen=True)
class RBBroadcastWorkload:
    """Reliably broadcast *payload* from *origin* at time *at*.

    Requires a stack exposing the ``"rb"`` service (``rb_bracha`` /
    ``rb_dolev`` / ``rb_naive`` / ``vs_smr_rb``).  Broadcasts are what turn
    the ``rb_agreement`` / ``rb_validity`` invariants and the
    ``rb_delivered`` probe into real checks instead of vacuous truths over
    empty delivery tables.
    """

    at: float
    origin: ProcessId
    payload: Any

    def install(self, cluster: "Cluster") -> None:
        cluster.simulator.call_at(
            self.at,
            Action(RBBroadcastWorkload._fire, self, cluster),
            label=f"workload:rb-broadcast:{self.origin}",
        )

    def _fire(self, cluster: "Cluster") -> None:
        node = cluster.nodes.get(self.origin)
        if node is None or node.crashed:
            return
        rb = node.service_map.get("rb")
        if rb is not None:
            rb.broadcast(self.payload)


@dataclass(frozen=True)
class RegisterWriteWorkload:
    """Submit a shared-register write from *writer* at time *at*.

    Requires the ``shared_register`` stack; a write submitted while the view
    is down or a reconfiguration is in flight is queued by the VS layer and
    delivered later — which is exactly the suspension behaviour scenarios
    want to exercise.
    """

    at: float
    writer: ProcessId
    value: Any

    def install(self, cluster: "Cluster") -> None:
        cluster.simulator.call_at(
            self.at,
            Action(RegisterWriteWorkload._fire, self, cluster),
            label=f"workload:write:{self.writer}",
        )

    def _fire(self, cluster: "Cluster") -> None:
        node = cluster.nodes.get(self.writer)
        if node is None or node.crashed:
            return
        register = node.service_map.get("register")
        if register is not None:
            register.write(self.value)
