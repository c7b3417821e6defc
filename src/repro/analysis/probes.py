"""Reusable convergence / consistency probes over a running cluster.

A :class:`Probe` is a named predicate over a :class:`~repro.sim.cluster.Cluster`
plus a simulated-time budget; :func:`wait_for` drives the simulation until the
predicate holds (or the budget elapses) and reports the outcome.  Probes are
what scenario specs declare instead of every example and test re-implementing
``wait_for_view`` / history-agreement loops with subtle drift.

The checks only rely on the stack-profile service names (``"vs"``,
``"register"``, ``"counters"``): a probe that needs a service a node does not
run simply ignores that node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster

ProbeCheck = Callable[["Cluster"], bool]

DEFAULT_PROBE_TIMEOUT = 4_000.0


@dataclass(frozen=True)
class Probe:
    """A named condition to drive a cluster toward (within *timeout*)."""

    name: str
    check: ProbeCheck
    timeout: float = DEFAULT_PROBE_TIMEOUT

    def __call__(self, cluster: "Cluster") -> bool:
        return self.check(cluster)


@dataclass(frozen=True)
class ProbeResult:
    """The outcome of waiting for one probe."""

    name: str
    satisfied: bool
    time: float


def wait_for(cluster: "Cluster", probe: Probe) -> ProbeResult:
    """Run *cluster* until *probe* holds (budgeted from the current instant).

    ``Cluster.run_until`` treats its timeout as a budget relative to ``now``,
    so the probe's budget is passed through directly.
    """
    satisfied = cluster.run_until(lambda: probe.check(cluster), timeout=probe.timeout)
    return ProbeResult(name=probe.name, satisfied=satisfied, time=cluster.simulator.now)


@dataclass(frozen=True)
class Invariant:
    """A named safety predicate monitored after *every* executed event.

    Where a :class:`Probe` is a condition to drive the system *toward*, an
    invariant is a condition that must *hold throughout* — the scenario
    runner wires these into an
    :class:`~repro.sim.monitors.InvariantMonitor`, which records violation
    intervals; a violated invariant fails the run.

    ``arm_after`` delays enforcement until the given simulated time: the
    predicate is treated as holding before that instant.  The audit engine
    arms its invariants at corruption time so that a violation is
    attributable to the injected arbitrary state, not to the bootstrap
    (which legitimately passes through reset states).
    """

    name: str
    check: ProbeCheck
    arm_after: float = 0.0

    def __call__(self, cluster: "Cluster") -> bool:
        if self.arm_after > 0.0 and cluster.simulator.now < self.arm_after:
            return True
        return self.check(cluster)

    def armed_at(self, time: float) -> "Invariant":
        """A copy of this invariant armed at simulated *time*."""
        return Invariant(name=self.name, check=self.check, arm_after=time)


# ---------------------------------------------------------------------------
# Check functions (usable directly or through the probe factories below)
# ---------------------------------------------------------------------------
def is_converged(cluster: "Cluster") -> bool:
    """All alive participants agree on a configuration and report stability."""
    return cluster.is_converged()


def all_participating(cluster: "Cluster") -> bool:
    """Every alive node (including late joiners) has become a participant."""
    return cluster.all_nodes_participating()


def view_is_installed(cluster: "Cluster") -> bool:
    """An alive coordinator multicasts in a view of entirely alive members.

    The promoted form of the ``wait_for_view`` helper the examples used to
    each re-implement.
    """
    from repro.vs.virtual_synchrony import VSStatus

    for node in cluster.alive_nodes():
        vs = node.service_map.get("vs")
        if vs is None or vs.view is None:
            continue
        if vs.status is not VSStatus.MULTICAST or not vs.is_coordinator():
            continue
        members_alive = all(
            member in cluster.nodes and not cluster.nodes[member].crashed
            for member in vs.view.members
        )
        if members_alive:
            return True
    return False


def registers_agree(cluster: "Cluster") -> bool:
    """Alive replicas expose identical totally ordered write histories.

    Vacuously true before any write is delivered; combine with a workload
    that performs writes to make it a consistency check.
    """
    histories = {
        tuple(node.service_map["register"].history())
        for node in cluster.alive_nodes()
        if "register" in node.service_map
    }
    return len(histories) <= 1


def no_pending_writes(cluster: "Cluster") -> bool:
    """Every submitted write on an alive replica has been delivered."""
    services = [
        node.service_map["vs"]
        for node in cluster.alive_nodes()
        if "vs" in node.service_map
    ]
    return bool(services) and all(vs.pending_count() == 0 for vs in services)


def smr_states_agree(cluster: "Cluster") -> bool:
    """Alive replicas hold identical replicated-state snapshots."""
    snapshots: List[Any] = []
    for node in cluster.alive_nodes():
        vs = node.service_map.get("vs")
        if vs is not None:
            snapshots.append(vs.machine.snapshot())
    return len(snapshots) > 0 and all(s == snapshots[0] for s in snapshots[1:])


def smr_histories_agree(cluster: "Cluster") -> bool:
    """Same-view replicas expose prefix-ordered delivery histories.

    The safety core of virtual synchrony, stated so it holds *throughout* a
    run (unlike snapshot equality, which followers legitimately violate while
    they lag the coordinator by a round): group alive replicas by installed
    view; within one view every history must be a prefix of every longer one,
    because members only ever extend or adopt the coordinator's chain.
    Divergence at any index — two same-view replicas that applied *different*
    commands in the same position — is an agreement violation.  Replicas in
    different views are not compared (a stale member of a superseded view may
    hold a since-forked suffix; the view-install synchronization is what
    repairs it).
    """
    groups: Dict[Any, List[Any]] = {}
    for node in cluster.alive_nodes():
        vs = node.service_map.get("vs")
        if vs is None or vs.view is None:
            continue
        groups.setdefault(vs.view, []).append(vs.delivery_history())
    for histories in groups.values():
        if len(histories) < 2:
            continue
        histories.sort(key=len)
        for shorter, longer in zip(histories, histories[1:]):
            if longer[: len(shorter)] != shorter:
                return False
    return True


# ---------------------------------------------------------------------------
# Invariant checks (used by the audit engine; see repro.audit)
# ---------------------------------------------------------------------------
def channels_bounded(cluster: "Cluster") -> bool:
    """No channel ever holds more in-flight packets than its capacity.

    The paper bounds adversarial channel content by ``cap`` per channel
    (Section 2 / Lemma 3.18); the simulated channels enforce this, so the
    invariant doubles as a self-check of the fault-injection plumbing.
    """
    return all(
        chan.occupancy() <= chan.config.capacity
        for chan in cluster.simulator.network.channels()
    )


def no_reset_in_progress(cluster: "Cluster") -> bool:
    """No alive node's own config entry is ``⊥``.

    **Deliberately too strong**: a brute-force reset legitimately drives
    every config entry through ``⊥``, so any corruption that triggers a reset
    violates this.  It exists as the demonstration target for the audit
    engine's reproducer shrinking (``tests/test_audit.py``'s shrink test).
    """
    from repro.common.types import BOTTOM

    return all(
        node.recsa.config.get(node.pid) is not BOTTOM
        for node in cluster.alive_nodes()
    )


def _honest_rb_services(cluster: "Cluster"):
    """Yield ``(pid, rb_service)`` for every honest alive node running one.

    Nodes that have *ever* run a traitor program (``cluster.byzantine_pids``)
    are excluded: reliable-broadcast guarantees are stated over correct
    processors only, and a deactivated traitor's local tables carry no
    guarantees either.
    """
    byzantine = getattr(cluster, "byzantine_pids", frozenset())
    for node in cluster.alive_nodes():
        if node.pid in byzantine:
            continue
        rb = node.service_map.get("rb")
        if rb is not None:
            yield node.pid, rb


def rb_deliveries_agree(cluster: "Cluster") -> bool:
    """No two honest nodes deliver different payloads for one broadcast.

    The *agreement* half of reliable broadcast, checked over every message
    id — including ids originated by traitors: Bracha's echo quorums are
    exactly what extends agreement to equivocating origins, so a split
    delivery anywhere is a protocol violation (and on the naive baseline,
    the expected symptom of equivocation).
    """
    witnessed: Dict[Any, Any] = {}
    for _, rb in _honest_rb_services(cluster):
        for mid, payload in rb.delivered.items():
            if mid in witnessed:
                if witnessed[mid] != payload:
                    return False
            else:
                witnessed[mid] = payload
    return True


def rb_deliveries_valid(cluster: "Cluster") -> bool:
    """Every delivery attributed to an honest origin matches what it sent.

    The *validity/integrity* half: a delivered ``(origin, seq)`` whose origin
    is an honest alive node must appear in that origin's own send log with an
    identical payload — anything else means a forged or mutated broadcast was
    accepted in an honest processor's name.  Traitor-attributed and
    no-longer-checkable (crashed-origin) deliveries are skipped; reliable
    broadcast makes no promises about what traitors "sent".
    """
    sent_by = {pid: rb.sent for pid, rb in _honest_rb_services(cluster)}
    for _, rb in _honest_rb_services(cluster):
        for (origin, seq), payload in rb.delivered.items():
            sent = sent_by.get(origin)
            if sent is None:
                continue
            if seq not in sent or sent[seq] != payload:
                return False
    return True


def rb_all_delivered(cluster: "Cluster") -> bool:
    """Every honest broadcast has been delivered by every honest rb node.

    The *totality/liveness* side, used as a probe (driven toward), never as
    an invariant (it is legitimately false while echoes are in flight).
    """
    services = list(_honest_rb_services(cluster))
    if not services:
        return False
    for origin, rb in services:
        for seq in rb.sent:
            if any((origin, seq) not in other.delivered for _, other in services):
                return False
    return True


def bounded_channels_invariant() -> Invariant:
    return Invariant("channels_bounded", channels_bounded)


def no_reset_invariant() -> Invariant:
    return Invariant("no_reset_in_progress", no_reset_in_progress)


def smr_agreement_invariant() -> Invariant:
    """``smr_agreement`` armed as a safety property, not just a probe.

    Monitored after every executed event by the audit engine on the
    ``vs_smr`` / ``shared_register`` stacks: same-view replicas must never
    diverge on the content of their delivery histories, even while an
    arbitrary-state corruption is being repaired.
    """
    return Invariant("smr_agreement", smr_histories_agree)


def rb_agreement_invariant() -> Invariant:
    """``rb_agreement`` — honest nodes never split on a broadcast's payload."""
    return Invariant("rb_agreement", rb_deliveries_agree)


def rb_validity_invariant() -> Invariant:
    """``rb_validity`` — honest-origin deliveries match the origin's sends."""
    return Invariant("rb_validity", rb_deliveries_valid)


#: Named invariant factories — what corpus entries and CLI flags resolve
#: against (an :class:`Invariant` itself is not JSON-serializable).
INVARIANT_FACTORIES: Dict[str, Callable[[], Invariant]] = {
    "channels_bounded": bounded_channels_invariant,
    "no_reset_in_progress": no_reset_invariant,
    "smr_agreement": smr_agreement_invariant,
    "rb_agreement": rb_agreement_invariant,
    "rb_validity": rb_validity_invariant,
}


def invariant_by_name(name: str) -> Invariant:
    """Build the named invariant (corpus replay, CLI selection)."""
    try:
        return INVARIANT_FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown invariant {name!r}; available: {sorted(INVARIANT_FACTORIES)}"
        ) from None


# ---------------------------------------------------------------------------
# Probe factories
# ---------------------------------------------------------------------------
def converged(timeout: float = DEFAULT_PROBE_TIMEOUT) -> Probe:
    return Probe("converged", is_converged, timeout)


def participating(timeout: float = DEFAULT_PROBE_TIMEOUT) -> Probe:
    return Probe("all_participating", all_participating, timeout)


def view_installed(timeout: float = DEFAULT_PROBE_TIMEOUT) -> Probe:
    return Probe("view_installed", view_is_installed, timeout)


def register_agreement(timeout: float = DEFAULT_PROBE_TIMEOUT) -> Probe:
    return Probe("register_agreement", registers_agree, timeout)


def writes_delivered(timeout: float = DEFAULT_PROBE_TIMEOUT) -> Probe:
    return Probe("writes_delivered", no_pending_writes, timeout)


def smr_agreement(timeout: float = DEFAULT_PROBE_TIMEOUT) -> Probe:
    return Probe("smr_agreement", smr_states_agree, timeout)


def rb_delivered(timeout: float = DEFAULT_PROBE_TIMEOUT) -> Probe:
    return Probe("rb_delivered", rb_all_delivered, timeout)
