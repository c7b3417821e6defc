"""The simulated cluster: :class:`~repro.node.node.ClusterNode` processors
hosted on one :class:`~repro.sim.simulator.Simulator`.

:class:`Cluster` is the convenience facade used by examples, tests and the
benchmark harness: it creates the simulator, the initial nodes, and exposes
helpers such as :meth:`Cluster.run_until_converged` and
:meth:`Cluster.agreed_configuration`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.common.errors import SimulationError
from repro.common.types import Configuration, ProcessId
from repro.node.config import ClusterConfig
from repro.node.node import ClusterNode, agreed_configuration, boot, converged_scan
from repro.node.stacks import StackProfile, get_stack
from repro.sim.network import Network
from repro.sim.simulator import Simulator


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
    def network(self) -> Network:
        """The simulator's network: its link rules and partitions are what
        the adversarial schedulers change mid-run."""
        return self.simulator.network

    def stuff_channel(self, source: ProcessId, destination: ProcessId, payload: Any) -> bool:
        """Put a stale *payload* in flight on the channel source→destination
        (a channel corruption atom); ``False`` when the channel is full."""
        return self.simulator.network.stuff_channel(source, destination, payload)

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
        return self._host(
            ClusterNode(pid=pid, peers=peers, config=self.config, initial_config=initial_config)
        )

    def _host(self, node: ClusterNode) -> ClusterNode:
        # Hosted first, recorded second: ``nodes`` only ever names nodes the
        # simulator accepted (a live pid is refused with SimulationError).
        self.simulator.add_process(node)
        self.nodes[node.pid] = node
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
    :class:`~repro.node.config.ClusterConfig`, e.g. from a preset such as
    :func:`~repro.node.config.fast_sim`; default ``ClusterConfig()``).
    *stack*, when given, replaces its ``stack`` field: a registry name such
    as ``"counters"`` or a configured
    :class:`~repro.node.stacks.StackProfile`.  The nodes come from
    :func:`~repro.node.node.boot`, the boot rule the runtime shares.
    """
    resolved, nodes = boot(n, config if config is not None else ClusterConfig(), stack)
    cluster = Cluster(Simulator(seed=seed, channel_config=resolved.channel), resolved)
    for node in nodes:
        cluster._host(node)
    return cluster
