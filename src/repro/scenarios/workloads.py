"""Composable workloads: everything installs through one protocol.

The scenario layer's contract is a single method::

    workload.install(cluster)   # before the run starts

Each workload schedules its disturbance(s) on the cluster's simulator; a
scenario composes several (churn *while* corrupting *while* partitioned) by
listing them.  :class:`~repro.workloads.churn.ChurnTrace` and
:class:`~repro.sim.faults.TransientFaultCampaign` already satisfy the
protocol natively; the wrappers below cover the remaining disturbance types
(state corruption, stale-packet stuffing, partitions, crash storms, join
waves, register writes) with seeded, reproducible parameters.

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
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.audit.arbitrary_state import (
    DEFAULT_PROFILE,
    CorruptionProfile,
    apply_plan,
    generate_plan,
    plan_summary,
)
from repro.common.types import ProcessId
from repro.sim.events import Action
from repro.workloads.churn import generate_churn_trace
from repro.workloads.corruption import scramble_cluster, stuff_stale_recma_packets

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster


@runtime_checkable
class Workload(Protocol):
    """Anything that can schedule its disturbances on a cluster."""

    def install(self, cluster: "Cluster") -> None:  # pragma: no cover - protocol
        ...


def _seed_for(workload_seed: Optional[int], cluster: "Cluster") -> int:
    return workload_seed if workload_seed is not None else cluster.simulator.seed


@dataclass(frozen=True)
class ChurnWorkload:
    """Random crashes and joins generated at install time.

    A thin declarative front for :func:`generate_churn_trace` — the initial
    membership is read off the cluster, so the same workload value composes
    with any topology size.
    """

    start: float = 0.0
    duration: float = 100.0
    crash_rate: float = 0.0
    join_rate: float = 0.0
    max_crashes: Optional[int] = None
    first_new_pid: int = 1000
    seed: Optional[int] = None

    def install(self, cluster: "Cluster") -> None:
        trace = generate_churn_trace(
            initial_members=list(cluster.nodes.keys()),
            duration=self.duration,
            crash_rate=self.crash_rate,
            join_rate=self.join_rate,
            seed=_seed_for(self.seed, cluster),
            max_crashes=self.max_crashes,
            first_new_pid=self.first_new_pid,
            start_time=self.start,
        )
        trace.install(cluster)


@dataclass(frozen=True)
class ScrambleWorkload:
    """Transient fault at time *at*: corrupt recSA/recMA state of a fraction
    of the alive nodes (the paper's arbitrary-starting-state model)."""

    at: float
    fraction: float = 1.0
    seed: Optional[int] = None

    def install(self, cluster: "Cluster") -> None:
        cluster.simulator.call_at(
            self.at, Action(ScrambleWorkload._fire, self, cluster), label="workload:scramble"
        )

    def _fire(self, cluster: "Cluster") -> None:
        scramble_cluster(
            cluster, seed=_seed_for(self.seed, cluster), fraction=self.fraction
        )


@dataclass(frozen=True)
class ArbitraryStateWorkload:
    """The paper's *full* transient-fault model as one workload.

    At time *at*, generate a seeded corruption plan over every protocol-state
    field of the cluster (recSA, recMA, failure detector, stack services)
    plus bounded channel stuffing — see
    :mod:`repro.audit.arbitrary_state` — and apply it.

    ``include`` restricts application to the given indices of the (always
    fully generated, deterministic) plan; the audit harness uses this to
    shrink a violating run to a minimal reproducer.  ``record_atoms`` adds
    the applied atoms' descriptions to the workload report (reproducer
    output; off by default to keep sweep results small).
    """

    at: float
    seed: Optional[int] = None
    profile: CorruptionProfile = DEFAULT_PROFILE
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
class StaleMessageWorkload:
    """Stuff channels toward *target* with stale recMA trigger packets."""

    at: float
    target: ProcessId = 0
    count: int = 50
    seed: Optional[int] = None

    def install(self, cluster: "Cluster") -> None:
        cluster.simulator.call_at(
            self.at,
            Action(StaleMessageWorkload._fire, self, cluster),
            label="workload:stale-packets",
        )

    def _fire(self, cluster: "Cluster") -> None:
        if self.target in cluster.nodes:
            stuff_stale_recma_packets(
                cluster, self.target, self.count, seed=_seed_for(self.seed, cluster)
            )


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
            if pid not in cluster.nodes:
                cluster.add_joiner(pid)


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
