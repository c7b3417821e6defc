"""The node: one processor's full protocol stack, the same on both hosts.

A :class:`ClusterNode` owns the complete stack of one processor:

* the token-exchange data links and heartbeat service (:mod:`repro.datalink`),
* the (N, Theta)-failure detector (:mod:`repro.failure_detector`),
* the composed reconfiguration scheme (:mod:`repro.core.scheme`),
* the application services of its :class:`~repro.node.stacks.StackProfile`
  (labels, counters, virtual synchrony, shared register), which the node
  instantiates itself — examples, tests and benchmarks pick a profile
  instead of hand-wiring services.

All tunables travel as one :class:`~repro.node.config.ClusterConfig` value
shared by every node, including nodes added later by churn.  A node reaches
the world only through its :class:`~repro.node.process.ProcessContext`, so
the simulator (:class:`repro.sim.cluster.Cluster`) and the asyncio runtime
(:class:`repro.runtime.cluster.RuntimeCluster`) host the same object.  Both
boot through :func:`boot` and ask :func:`converged_scan` whether their nodes
have converged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.common.types import BOTTOM, NOT_PARTICIPANT, Configuration, ProcessId, make_config
from repro.core.scheme import ReconfigurationScheme
from repro.core.stale import is_real_config
from repro.datalink.heartbeat import HeartbeatService
from repro.datalink.token_exchange import DataLinkMessage
from repro.failure_detector.ntheta import NThetaFailureDetector
from repro.node.config import ClusterConfig
from repro.node.process import Process
from repro.node.stacks import StackProfile, get_stack


class ClusterNode(Process):
    """A processor running the full reconfiguration stack, on either host."""

    def __init__(
        self,
        pid: ProcessId,
        peers: Iterable[ProcessId],
        config: ClusterConfig,
        initial_config: Any = None,
    ) -> None:
        super().__init__(pid=pid)
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
            on_heartbeat=self.failure_detector.heartbeat,
            channel_capacity=config.channel.capacity,
            require_cleaning=config.require_link_cleaning,
            idle_resend_interval=config.heartbeat_resend_interval,
        )
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
    :meth:`repro.sim.cluster.Cluster.is_converged` and the asyncio
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
    all.  :meth:`repro.sim.cluster.Cluster.agreed_configuration` asks it,
    and so do the runtime's tests over ``RuntimeCluster.nodes``.
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




def boot(
    n: int,
    config: ClusterConfig,
    stack: Union[str, StackProfile, None] = None,
) -> Tuple[ClusterConfig, List[ClusterNode]]:
    """The boot rule of both hosts: the resolved config and the initial nodes.

    *stack*, when given, replaces the config's ``stack`` field, and the
    result is resolved for *n* nodes.  The nodes have identifiers
    ``0..n-1``, each knows all the others, and they boot with the full
    configuration installed under ``coherent_start`` and into a brute-force
    reset (``BOTTOM``) otherwise.  The caller hosts each node first and
    records it second, so its node table only names nodes its host accepted.
    """
    if n < 1:
        raise ValueError("a cluster needs at least one node")
    config = config.with_overrides(stack=stack).resolve(n)
    pids = list(range(n))
    initial = make_config(pids) if config.coherent_start else BOTTOM
    nodes = [
        ClusterNode(pid=pid, peers=pids, config=config, initial_config=initial)
        for pid in pids
    ]
    return config, nodes
