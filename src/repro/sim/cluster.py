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

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Union

from repro.common.errors import SimulationError
from repro.common.types import BOTTOM, NOT_PARTICIPANT, Configuration, ProcessId, make_config
from repro.core.scheme import ReconfigurationScheme
from repro.core.stale import is_real_config
from repro.datalink.heartbeat import HeartbeatService
from repro.datalink.token_exchange import DataLinkMessage
from repro.failure_detector.ntheta import NThetaFailureDetector
from repro.sim.config import ClusterConfig
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.sim.stacks import StackProfile, get_stack


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
        for peer in self._initial_peers:
            self.heartbeat.add_peer(peer)

    def on_timer(self) -> None:
        self.heartbeat.on_timer()
        self.scheme.step()
        for hook in self._timer_hooks:
            hook()

    def on_receive(self, sender: ProcessId, payload: Any) -> None:
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
    """The convergence predicate over any collection of nodes.

    True when at least one alive participant exists, every alive participant
    holds the same real configuration, and none reports a reconfiguration in
    progress.  This is the one rule both backends ask:
    :meth:`Cluster.is_converged` and the asyncio
    :class:`repro.runtime.cluster.RuntimeCluster`.

    Each alive node's own config slot is read once (it tells a participant
    from a joiner, and ⊥ or a corrupted value from a real configuration);
    ``no_reco()``, the costly test, comes last.
    """
    agreed = None
    for node in nodes:
        if not node.started or node.crashed:
            continue
        recsa = node.scheme.recsa
        value = recsa.own_config()
        if value is NOT_PARTICIPANT:
            continue
        if agreed is None:
            if not is_real_config(value):
                return False
            agreed = value
        elif value is not agreed and (value != agreed or not is_real_config(value)):
            return False
        if not recsa.no_reco():
            return False
    return agreed is not None


def agreed_configuration(nodes: Iterable[ClusterNode]) -> Optional[Configuration]:
    """The single configuration every alive participant holds, if any.

    Reads each alive node's own config slot, as :func:`converged_scan`
    does, and returns ``None`` when participants disagree, some hold a
    non-real value (``⊥`` or corrupted), or there are no participants at
    all.  Shared by :meth:`Cluster.agreed_configuration` and the asyncio
    ``RuntimeCluster``.
    """
    agreed = None
    for node in nodes:
        if not node.started or node.crashed:
            continue
        value = node.scheme.recsa.own_config()
        if value is NOT_PARTICIPANT:
            continue
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
        """:func:`converged_scan` over this cluster's nodes."""
        return converged_scan(self.nodes.values())

    def all_nodes_participating(self) -> bool:
        """True when every alive node has become a participant."""
        alive = self.alive_nodes()
        return bool(alive) and all(node.scheme.is_participant() for node in alive)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Advance the simulation until simulated time *until*."""
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
