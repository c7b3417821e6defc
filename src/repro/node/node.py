"""The node: one processor's full protocol stack, the same on both hosts.

A :class:`ClusterNode` owns the complete stack of one processor:

* the token-exchange data links and heartbeat service (:mod:`repro.datalink`),
* the (N, Theta)-failure detector (:mod:`repro.failure_detector`),
* the composed reconfiguration scheme (:mod:`repro.core.scheme`): recSA,
  recMA and the joining mechanism,
* the application services of its :class:`~repro.node.stacks.StackProfile`
  (labels, counters, virtual synchrony, shared register), which the node
  instantiates itself — examples, tests and benchmarks pick a profile
  instead of hand-wiring services.

The node takes the processor's atomic steps itself.  A timer tick is one
do-forever iteration: the heartbeat, then recSA, recMA and joining, then
each service bottom-up.  A packet arrival is one dispatch: a data-link
packet goes to the heartbeat, and any other payload credits its sender's
liveness and goes to the one layer that consumes its type.  Each layer
class names the wire types it consumes, once, in ``consumes``; the node
gathers them into :attr:`ClusterNode.routes` when it is built, refusing a
type that two layers claim, and drops a payload no layer consumes.

All tunables travel as one :class:`~repro.node.config.ClusterConfig` value
shared by every node, including nodes added later by churn.  A node reaches
the world only through its :class:`~repro.node.process.ProcessContext`, so
the simulator (:class:`repro.sim.cluster.Cluster`) and the asyncio runtime
(:class:`repro.runtime.cluster.RuntimeCluster`) host the same object.  Both
boot through :func:`boot` and ask :func:`converged_scan` whether their nodes
have converged.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

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
            send=self.send,
            on_heartbeat=self.failure_detector.heartbeat,
            channel_capacity=config.channel.capacity,
            require_cleaning=config.require_link_cleaning,
            idle_resend_interval=config.heartbeat_resend_interval,
        )
        self.scheme = ReconfigurationScheme(
            pid=pid,
            fd_provider=self.failure_detector.trusted,
            send=self.send,
            send_many=self.send_many,
            initial_config=initial_config,
        )
        self.stack: StackProfile = get_stack(config.stack)
        #: The stack's services by name, bottom-up (the order of their
        #: ``on_timer`` calls).
        self.service_map: Dict[str, Any] = self.stack.instantiate(self)
        #: ``{wire type: layer}``: the one consumer of every type the stack
        #: consumes, as each layer names them in its ``consumes``.
        self.routes: Dict[type, Any] = {}
        scheme = self.scheme
        for layer in (scheme.recsa, scheme.recma, scheme.joining, *self.service_map.values()):
            for wire_type in layer.consumes:
                claimed = self.routes.setdefault(wire_type, layer)
                if claimed is not layer:
                    raise ValueError(
                        f"stack {self.stack.name!r}: {wire_type.__name__} is consumed by "
                        f"both {type(claimed).__name__} and {type(layer).__name__}"
                    )

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
        """One do-forever iteration: the links, the scheme's three layers,
        then each service, bottom-up."""
        self.heartbeat.on_timer()
        scheme = self.scheme
        scheme.recsa.step()
        scheme.recma.step()
        scheme.joining.step()
        for service in self.service_map.values():
            service.on_timer()

    def on_receive(self, sender: ProcessId, payload: Any) -> None:
        """One packet arrival: the connection signal, then the payload's one
        consumer."""
        heartbeat = self.heartbeat
        # A packet from an unknown peer is the "connection signal": create the
        # link (which starts the snap-stabilizing cleaning handshake).
        if sender not in heartbeat.links and sender != self.pid:
            heartbeat.add_peer(sender)
        if type(payload) is DataLinkMessage:
            heartbeat.on_packet(sender, payload)
            return
        # Protocol gossip proves the sender's liveness just as well as a
        # heartbeat token does, which is what lets idle links throttle their
        # token retransmissions without starving the failure detector.
        heartbeat.notify_traffic(sender)
        layer = self.routes.get(type(payload))
        if layer is not None:
            layer.on_message(sender, payload)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, destination: ProcessId, payload: Any) -> None:
        """Send *payload* to *destination* (no-op when crashed/unbound)."""
        if self.context is not None and not self.crashed:
            self.context.send(destination, payload)

    def send_many(self, payloads: Any) -> None:
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
