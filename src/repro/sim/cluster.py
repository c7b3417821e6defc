"""Cluster wiring: a full protocol stack per simulated processor.

A :class:`ClusterNode` owns the complete stack of one processor:

* the token-exchange data links and heartbeat service (:mod:`repro.datalink`),
* the (N, Theta)-failure detector (:mod:`repro.failure_detector`),
* the composed reconfiguration scheme (:mod:`repro.core.scheme`),
* the application services of its :class:`~repro.sim.stacks.StackProfile`
  (labels, counters, virtual synchrony, shared register), which the node
  instantiates itself — examples, tests and benchmarks pick a profile
  instead of hand-wiring services.

All tunables travel as one :class:`~repro.sim.config.ClusterConfig` value
shared by the cluster and every node, including nodes added later by churn.

:class:`Cluster` is the convenience facade used by examples, tests and the
benchmark harness: it creates the simulator, the initial nodes, and exposes
helpers such as :meth:`Cluster.run_until_converged` and
:meth:`Cluster.agreed_configuration`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.common.errors import SimulationError
from repro.common.types import BOTTOM, Configuration, ProcessId, make_config
from repro.core.scheme import ReconfigurationScheme
from repro.core.stale import is_real_config
from repro.datalink.heartbeat import HeartbeatService
from repro.datalink.token_exchange import DataLinkMessage
from repro.failure_detector.ntheta import NThetaFailureDetector
from repro.sim.config import ClusterConfig
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.sim.stacks import StackProfile, get_stack


#: Ledger entry for an alive node that is not (yet) a participant.
_NON_PARTICIPANT_ENTRY = "non-participant"
#: Ledger entry for a participant whose own config slot is not a real
#: configuration (⊥ or corrupted) — convergence is impossible while any exist.
_BAD_CONFIG_ENTRY = "bad-config"


class ConvergenceLedger:
    """Incremental convergence tracking: O(changed nodes) per check.

    ``Cluster.is_converged`` used to re-scan every node on every evaluation —
    and ``run_until_converged`` evaluates it as a predicate throughout the
    run, making the scan Θ(n) per event and the dominant cost of large
    bootstraps (61% of an n=128 profile).  The ledger replaces the scan with
    a *dirty set* plus counters: every event that can change a node's
    convergence contribution marks that node (from ``ClusterNode.on_timer`` /
    ``on_receive`` / ``crash`` / ``on_start``), and a check only recomputes
    the marked nodes' contributions, folding the differences into four
    aggregates:

    * ``participants`` — alive participants,
    * ``bad_config`` — participants whose own config slot is not real,
    * ``unstable`` — participants whose ``no_reco()`` is currently false,
    * ``config_counts`` — multiset of the participants' real configs.

    Convergence ⇔ ``participants > 0 ∧ bad_config == 0 ∧ unstable == 0 ∧
    len(config_counts) == 1`` — exactly the predicate the full scan computes,
    because each node's contribution depends only on that node's local state,
    and local state only changes inside the marked entry points (or through
    out-of-band mutation, covered by :meth:`mark_all` at every
    ``Cluster.run``/``run_until`` entry and by the fault injector's explicit
    invalidation).  The test suite cross-checks every answer against the
    retained scan oracle, :func:`converged_scan`.

    A marked node's contribution is a pure function of its recSA records and
    trusted set, so the ledger also keeps the inputs it was computed from —
    recSA's ``version`` and the trusted-set object — and skips the
    recomputation while both are unchanged (most marks come from a gossip
    receipt or heartbeat that moved neither).  :meth:`mark_all` and
    :meth:`invalidate` drop those inputs.
    """

    __slots__ = (
        "_cluster",
        "_dirty",
        "_entries",
        "_inputs",
        "_participants",
        "_bad_config",
        "_unstable",
        "_config_counts",
    )

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster
        self._dirty: set = set()
        self._entries: Dict[ProcessId, Any] = {}
        self._inputs: Dict[ProcessId, Tuple[int, FrozenSet[ProcessId]]] = {}
        self._participants = 0
        self._bad_config = 0
        self._unstable = 0
        self._config_counts: Dict[Any, int] = {}

    def mark(self, pid: ProcessId) -> None:
        """Record that *pid*'s convergence contribution may have changed."""
        self._dirty.add(pid)

    def invalidate(self, pid: ProcessId) -> None:
        """:meth:`mark` after a mutation behind *pid*'s back: recompute for sure."""
        self._dirty.add(pid)
        self._inputs.pop(pid, None)

    def mark_all(self) -> None:
        """Mark every known node (out-of-band mutations, run entry)."""
        self._dirty.update(self._cluster.nodes)
        self._inputs.clear()

    def refresh(self) -> None:
        """Fold every dirty node's (re)computed contribution into the counters."""
        dirty = self._dirty
        if not dirty:
            return
        nodes = self._cluster.nodes
        entries = self._entries
        inputs = self._inputs
        for pid in dirty:
            node = nodes.get(pid)
            if node is None or not node.started or node.crashed:
                new = None
                inputs.pop(pid, None)
            else:
                recsa = node.recsa
                trusted = recsa.trusted()
                seen = inputs.get(pid)
                if seen is not None and seen[1] is trusted and seen[0] == recsa.version:
                    continue
                new = self._contribution(node)
                inputs[pid] = (recsa.version, trusted)
            old = entries.get(pid)
            if new == old:
                continue
            if old is not None:
                self._account(old, -1)
            if new is None:
                del entries[pid]
            else:
                entries[pid] = new
                self._account(new, +1)
        dirty.clear()

    def converged(self) -> bool:
        """The aggregate predicate (callers must :meth:`refresh` first)."""
        return (
            self._participants > 0
            and self._bad_config == 0
            and self._unstable == 0
            and len(self._config_counts) == 1
        )

    @staticmethod
    def _contribution(node: "ClusterNode") -> Any:
        scheme = node.scheme
        if not scheme.is_participant():
            return _NON_PARTICIPANT_ENTRY
        value = node.recsa.config.get(node.pid)
        if not is_real_config(value):
            return _BAD_CONFIG_ENTRY
        return (value, scheme.no_reco())

    def _account(self, entry: Any, sign: int) -> None:
        if entry == _NON_PARTICIPANT_ENTRY:
            return
        self._participants += sign
        if entry == _BAD_CONFIG_ENTRY:
            self._bad_config += sign
            return
        value, stable = entry
        if not stable:
            self._unstable += sign
        counts = self._config_counts
        total = counts.get(value, 0) + sign
        if total:
            counts[value] = total
        else:
            del counts[value]


class ClusterNode(Process):
    """A simulated processor running the full reconfiguration stack."""

    def __init__(
        self,
        pid: ProcessId,
        peers: Iterable[ProcessId],
        config: ClusterConfig,
        initial_config: Any = None,
    ) -> None:
        super().__init__(pid=pid, step_interval=config.step_interval)
        self.config = config
        self._initial_peers = [p for p in peers if p != pid]
        #: Out-of-band knobs read by stack-profile policies (e.g. the default
        #: ``vs_smr`` evalConfig reads ``control["reconfigure"]``).
        self.control: Dict[str, Any] = {}
        #: ``ConvergenceLedger.mark`` of the owning cluster (installed by
        #: ``Cluster.add_node``); ``None`` for nodes driven outside a cluster.
        self._converge_mark: Optional[Callable[[ProcessId], None]] = None
        self.failure_detector = NThetaFailureDetector(
            pid=pid, upper_bound_n=config.upper_bound_n, gap_slack=config.fd_gap_slack
        )
        self.heartbeat = HeartbeatService(
            pid=pid,
            send=self._send_raw,
            channel_capacity=config.channel.capacity,
            require_cleaning=config.require_link_cleaning,
            idle_resend_interval=config.heartbeat_resend_interval,
        )
        self.heartbeat.add_heartbeat_listener(self.failure_detector.heartbeat)
        self.scheme = ReconfigurationScheme(
            pid=pid,
            fd_provider=self.failure_detector.trusted,
            send=self._send_raw,
            initial_config=initial_config,
            admission_policy=config.admission_policy,
            send_many=self._send_raw_many,
            gossip_refresh_interval=config.gossip_refresh_interval,
        )
        self.services: List[Any] = []
        self.service_map: Dict[str, Any] = {}
        self._timer_hooks: List[Callable[[], None]] = []
        self._message_hooks: List[Callable[[ProcessId, Any], bool]] = []
        self.stack: StackProfile = get_stack(config.stack)
        for name, service in self.stack.instantiate(self).items():
            self.register_service(service, name=name)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def recsa(self):
        """The node's Reconfiguration Stability Assurance layer."""
        return self.scheme.recsa

    @property
    def recma(self):
        """The node's Reconfiguration Management layer."""
        return self.scheme.recma

    @property
    def joining(self):
        """The node's joining-mechanism instance."""
        return self.scheme.joining

    def trusted(self) -> FrozenSet[ProcessId]:
        """The failure detector's current trusted set (includes self)."""
        return self.failure_detector.trusted()

    def current_config(self) -> Optional[Configuration]:
        """The configuration this node currently reports, if any."""
        return self.scheme.configuration()

    def register_service(self, service: Any, name: Optional[str] = None) -> Any:
        """Attach an application service (labels, counters, VS, ...).

        Hook methods are looked up once here; dispatch afterwards walks plain
        lists.  Objects without hooks (e.g. a :class:`SharedRegister` client)
        still land in :attr:`service_map` under *name*.
        """
        self.services.append(service)
        if name is not None:
            self.service_map[name] = service
        timer_hook = getattr(service, "on_timer", None)
        if callable(timer_hook):
            self._timer_hooks.append(timer_hook)
        message_hook = getattr(service, "on_message", None)
        if callable(message_hook):
            self._message_hooks.append(message_hook)
        return service

    def service(self, name: str) -> Any:
        """The stack service registered under *name* (e.g. ``"vs"``)."""
        try:
            return self.service_map[name]
        except KeyError:
            raise KeyError(
                f"node {self.pid} (stack {self.stack.name!r}) has no service "
                f"{name!r}; available: {sorted(self.service_map)}"
            ) from None

    # ------------------------------------------------------------------
    # Process hooks
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        mark = self._converge_mark
        if mark is not None:
            mark(self.pid)
        for peer in self._initial_peers:
            self.heartbeat.add_peer(peer)

    def on_timer(self) -> None:
        mark = self._converge_mark
        if mark is not None:
            mark(self.pid)
        self.heartbeat.on_timer()
        self.scheme.step()
        for hook in self._timer_hooks:
            hook()

    def crash(self) -> None:
        mark = self._converge_mark
        if mark is not None:
            mark(self.pid)
        super().crash()

    def on_receive(self, sender: ProcessId, payload: Any) -> None:
        # Any receipt can move this node's convergence contribution: protocol
        # gossip mutates the replicated arrays, and even a bare heartbeat
        # token shifts the failure detector, hence trusted() and no_reco().
        mark = self._converge_mark
        if mark is not None:
            mark(self.pid)
        # A packet from an unknown peer is the "connection signal": create the
        # link (which starts the snap-stabilizing cleaning handshake).
        if sender not in self.heartbeat.links and sender != self.pid:
            self.heartbeat.add_peer(sender)
        if isinstance(payload, DataLinkMessage):
            self.heartbeat.on_packet(sender, payload)
            return
        # Protocol gossip proves the sender's liveness just as well as a
        # heartbeat token does, which is what lets idle links throttle their
        # token retransmissions without starving the failure detector.
        self.heartbeat.notify_traffic(sender)
        if self.scheme.on_message(sender, payload):
            return
        for hook in self._message_hooks:
            if hook(sender, payload):
                return

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, destination: ProcessId, payload: Any) -> None:
        """Send *payload* to *destination* (no-op when crashed/unbound).

        This is the public send surface handed to stack services; the
        underscore alias remains for the scheme/heartbeat wiring above.
        """
        if self.context is not None and not self.crashed:
            self.context.send(destination, payload)

    _send_raw = send

    def _send_raw_many(self, payloads: Any) -> None:
        """Burst-send ``(destination, payload)`` pairs (broadcast fast path)."""
        if self.context is not None and not self.crashed:
            self.context.send_many(payloads)


def converged_scan(nodes: Iterable[ClusterNode]) -> bool:
    """The full-scan convergence oracle over any collection of nodes.

    True when at least one alive participant exists, every alive participant
    holds the same real configuration, and none reports a reconfiguration in
    progress.  Shared by :meth:`Cluster.is_converged_scan` (the simulator
    ledger's cross-check) and the asyncio :class:`repro.runtime.cluster
    .RuntimeCluster`, which has no ledger and polls this directly.
    """
    agreed = None
    found = False
    for node in nodes:
        if not node.started or node.crashed:
            continue
        scheme = node.scheme
        if not scheme.is_participant():
            continue
        value = node.recsa.config.get(node.pid)
        if not is_real_config(value):
            return False
        if found:
            if value != agreed:
                return False
        else:
            agreed = value
            found = True
        if not scheme.no_reco():
            return False
    return found


def agreed_configuration(nodes: Iterable[ClusterNode]) -> Optional[Configuration]:
    """The single configuration every alive participant holds, if any.

    Reads each alive participant's own config slot — the value the
    :class:`ConvergenceLedger` and :func:`converged_scan` read — and returns
    ``None`` when participants disagree, some hold a non-real value (``⊥``
    or corrupted), or there are no participants at all.  Shared by
    :meth:`Cluster.agreed_configuration` and the asyncio ``RuntimeCluster``.
    """
    agreed = None
    for node in nodes:
        if not node.started or node.crashed or not node.scheme.is_participant():
            continue
        value = node.recsa.config.get(node.pid)
        if not is_real_config(value):
            return None
        if agreed is None:
            agreed = value
        elif value != agreed:
            return None
    return agreed


class Cluster:
    """A simulated system of :class:`ClusterNode` processors."""

    def __init__(self, simulator: Simulator, config: ClusterConfig) -> None:
        if config.upper_bound_n is None:
            raise SimulationError(
                "Cluster requires a resolved ClusterConfig; call "
                "config.resolve(n) (or use build_cluster)"
            )
        self.simulator = simulator
        self.config = config
        self.stack: StackProfile = get_stack(config.stack)
        self.nodes: Dict[ProcessId, ClusterNode] = {}
        #: Pids that have *ever* run a Byzantine traitor program (see
        #: :mod:`repro.audit.byzantine`).  Honest-node safety invariants
        #: (``rb_agreement``/``rb_validity``) exclude these: a traitor's own
        #: local state carries no guarantees, even after it falls silent.
        self.byzantine_pids: set = set()
        #: Deterministic, JSON-serializable reports appended by installed
        #: workloads (e.g. what a corruption workload actually injected); the
        #: scenario runner copies them into the result dictionary.
        self.workload_reports: List[Dict[str, Any]] = []
        #: Incremental convergence state (see :class:`ConvergenceLedger`).
        self.convergence_ledger = ConvergenceLedger(self)
        self._poll_interval = config.poll_interval()

    @property
    def environment(self):
        """The network's time-varying environment layer (link programs,
        partitions); what adversarial environment programs mutate mid-run."""
        return self.simulator.network.environment

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def add_node(
        self,
        pid: ProcessId,
        initial_config: Any = None,
        peers: Optional[Iterable[ProcessId]] = None,
    ) -> ClusterNode:
        """Create, register and start a node.

        ``initial_config`` follows the :class:`~repro.core.recsa.RecSA`
        convention: ``None`` boots a non-participant (a joiner), ``BOTTOM``
        boots into a brute-force reset (self-bootstrap), and a concrete set
        boots with that configuration installed (a coherent start).
        """
        if peers is None:
            peers = list(self.nodes.keys())
        node = ClusterNode(
            pid=pid,
            peers=peers,
            config=self.config,
            initial_config=initial_config,
        )
        self.nodes[pid] = node
        node._converge_mark = self.convergence_ledger.mark
        self.convergence_ledger.mark(pid)
        self.simulator.add_process(node)
        return node

    def add_joiner(self, pid: ProcessId) -> ClusterNode:
        """Add a new processor that must go through the joining mechanism."""
        return self.add_node(pid, initial_config=None)

    def crash(self, pid: ProcessId) -> None:
        """Stop-fail node *pid* (must exist)."""
        self.simulator.crash_process(pid)

    def try_crash(self, pid: ProcessId) -> bool:
        """Crash *pid* if it exists and is alive; report whether it fired.

        The guard every scheduled workload needs: random churn or a crash
        storm may target a pid that was never added or already crashed.
        """
        node = self.nodes.get(pid)
        if node is None or node.crashed:
            return False
        self.crash(pid)
        return True

    # ------------------------------------------------------------------
    # Collective queries
    # ------------------------------------------------------------------
    def alive_nodes(self) -> List[ClusterNode]:
        """Nodes that have started and not crashed."""
        return [node for node in self.nodes.values() if node.started and not node.crashed]

    def participants(self) -> List[ClusterNode]:
        """Alive nodes that are participants."""
        return [node for node in self.alive_nodes() if node.scheme.is_participant()]

    def services(self, name: str) -> Dict[ProcessId, Any]:
        """The *name* stack service of every node that carries one."""
        return {
            pid: node.service_map[name]
            for pid, node in self.nodes.items()
            if name in node.service_map
        }

    def agreed_configuration(self) -> Optional[Configuration]:
        """:func:`agreed_configuration` over this cluster's nodes."""
        return agreed_configuration(self.nodes.values())

    def is_converged(self) -> bool:
        """True when all alive participants agree and report stability.

        Answered by the :class:`ConvergenceLedger` in O(nodes touched since
        the last check) instead of a full-cluster scan — this is evaluated as
        a predicate throughout ``run_until_converged``, where the scan was
        Θ(n) per event.  :meth:`is_converged_scan` is the retained oracle.
        """
        ledger = self.convergence_ledger
        ledger.refresh()
        return ledger.converged()

    def is_converged_scan(self) -> bool:
        """The full-scan convergence oracle (single pass, early exit)."""
        return converged_scan(self.nodes.values())

    def all_nodes_participating(self) -> bool:
        """True when every alive node has become a participant."""
        alive = self.alive_nodes()
        return bool(alive) and all(node.scheme.is_participant() for node in alive)

    def invalidate_convergence(self, pid: Optional[ProcessId] = None) -> None:
        """Mark convergence state stale after out-of-band node mutation.

        The fault injector and tests that mutate node
        state directly (instead of through the node's own event hooks) must
        call this so the incremental ledger re-examines the touched node
        (or, with no *pid*, every node) at the next check.
        """
        if pid is None:
            self.convergence_ledger.mark_all()
        else:
            self.convergence_ledger.invalidate(pid)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Advance the simulation until simulated time *until*."""
        # Anything may have been mutated out-of-band since the last run
        # (tests poking node state between calls); re-examine every node at
        # the next convergence check.
        self.convergence_ledger.mark_all()
        self.simulator.run(until=until)

    def run_until_converged(self, timeout: float = 2_000.0) -> bool:
        """Run until every alive participant agrees on a stable configuration.

        *timeout* is a **budget of simulated time from the current instant**,
        so a re-convergence check issued late in a long run (``now > 2000``)
        gets the same budget as one issued at time zero.
        """
        return self.run_until(self.is_converged, timeout=timeout)

    def run_until(self, predicate: Callable[[], bool], timeout: float = 2_000.0) -> bool:
        """Run until *predicate()* holds (or the *timeout* budget elapses).

        Unlike :meth:`Simulator.run_until`, whose ``timeout`` is an absolute
        clock deadline, the cluster-level *timeout* is relative to ``now``.

        The predicate is polled on a simulated-time cadence
        (:meth:`ClusterConfig.poll_interval`: the minimum event spacing —
        the smaller of the step interval and the minimum link delay)
        rather than after every executed event, so a detected
        flip moves by at most one poll interval while dense event bursts pay
        one evaluation per interval.
        """
        self.convergence_ledger.mark_all()
        return self.simulator.run_until(
            predicate,
            timeout=self.simulator.now + timeout,
            poll_interval=self._poll_interval,
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, Any]:
        """Aggregate cluster + simulator statistics for reporting."""
        stats = self.simulator.statistics()
        stats["resets"] = sum(node.recsa.reset_count for node in self.nodes.values())
        stats["installs"] = sum(node.recsa.install_count for node in self.nodes.values())
        stats["recma_triggers"] = sum(node.recma.trigger_count for node in self.nodes.values())
        stats["participants"] = len(self.participants())
        stats["recsa_broadcasts_sent"] = sum(
            node.recsa.broadcasts_sent for node in self.nodes.values()
        )
        stats["recsa_broadcasts_skipped"] = sum(
            node.recsa.broadcasts_skipped for node in self.nodes.values()
        )
        stats["recma_broadcasts_sent"] = sum(
            node.recma.broadcasts_sent for node in self.nodes.values()
        )
        stats["recma_broadcasts_skipped"] = sum(
            node.recma.broadcasts_skipped for node in self.nodes.values()
        )
        return stats


def build_cluster(
    n: int,
    seed: int = 0,
    config: Optional[ClusterConfig] = None,
    stack: Union[str, StackProfile, None] = None,
) -> Cluster:
    """Build a ready-to-run cluster of *n* nodes (identifiers ``0..n-1``).

    Every tunable comes from *config* (a
    :class:`~repro.sim.config.ClusterConfig`, e.g. from a preset such as
    :func:`~repro.sim.config.fast_sim`; default ``ClusterConfig()``).
    *stack*, when given, replaces its ``stack`` field: a registry name such
    as ``"counters"`` or a configured
    :class:`~repro.sim.stacks.StackProfile`.
    """
    if n < 1:
        raise ValueError("a cluster needs at least one node")
    base = config if config is not None else ClusterConfig()
    resolved = base.with_overrides(stack=stack).resolve(n)
    simulator = Simulator(seed=seed, channel_config=resolved.channel)
    cluster = Cluster(simulator=simulator, config=resolved)
    pids = list(range(n))
    initial = make_config(pids) if resolved.coherent_start else BOTTOM
    for pid in pids:
        cluster.add_node(pid, initial_config=initial, peers=pids)
    return cluster
