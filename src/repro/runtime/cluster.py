"""``RuntimeCluster``: a live localhost cluster of the full protocol stack.

The runtime analogue of :func:`repro.sim.cluster.build_cluster` +
:class:`~repro.sim.cluster.Cluster`: it boots the *same*
:class:`~repro.node.node.ClusterNode` objects through the same
:func:`~repro.node.node.boot` (heartbeat link layer, NTheta failure
detector, recSA/recMA/joining, the configured
:class:`~repro.node.stacks.StackProfile` services) and hosts them on an
:class:`~repro.runtime.transport.AsyncioTransport` instead of a simulator.

Convergence is the one predicate both backends share,
:func:`repro.node.node.converged_scan`, which :meth:`wait_converged`
polls on a wall-clock cadence — n=8 scans are microseconds, and the poll
runs in the same loop thread as the protocol, so each answer is a
consistent atomic snapshot.

Node failure and recovery mirror the paper's churn story: :meth:`kill` is a
stop-fail (endpoint torn down, packets to it become losses), and
:meth:`restart` brings the pid back as a **joiner** — a fresh node with no
configuration that must be admitted through the joining mechanism, exactly
like a simulator ``add_joiner``.
"""

from __future__ import annotations

import asyncio
from numbers import Real
from typing import Dict, List, Optional, Union

from repro.common.types import ProcessId
from repro.node.config import ClusterConfig, preset
from repro.node.node import ClusterNode, boot, converged_scan
from repro.node.stacks import StackProfile
from repro.runtime.transport import AsyncioTransport, DEFAULT_TICK_SECONDS


class RuntimeCluster:
    """An n-node live cluster over UDP/localhost.

    Usage (inside a coroutine)::

        cluster = RuntimeCluster(n=8, seed=7, stack="counters")
        await cluster.start()
        assert await cluster.wait_converged(timeout_s=30.0)
        cluster.kill(3)
        ...
        await cluster.shutdown()
    """

    def __init__(
        self,
        n: int,
        seed: int = 0,
        config: Union[str, ClusterConfig] = "fast_sim",
        stack: Union[str, StackProfile, None] = None,
        tick_seconds: float = DEFAULT_TICK_SECONDS,
    ) -> None:
        if not isinstance(tick_seconds, Real) or tick_seconds <= 0:
            raise ValueError(
                f"tick_seconds must be a positive number, got {tick_seconds!r}"
            )
        self.n = n
        self.seed = seed
        self.config, self._booting = boot(n, preset(config), stack)
        self.tick_seconds = tick_seconds
        self.nodes: Dict[ProcessId, ClusterNode] = {}
        self.transport: Optional[AsyncioTransport] = None

    # --------------------------------------------------------------- boot
    async def start(self) -> "RuntimeCluster":
        """Open every endpoint and start every node (pids ``0..n-1``).

        A cluster starts once: its nodes are booted in the constructor, and a
        node that ran cannot boot again.
        """
        if self.transport is not None or self.nodes:
            raise RuntimeError("cluster already started")
        self.transport = AsyncioTransport(
            seed=self.seed, tick_seconds=self.tick_seconds
        )
        for node in self._booting:
            # Hosted first, recorded second, as in :meth:`restart`.
            await self.transport.start_node(node)
            self.nodes[node.pid] = node
        return self

    async def shutdown(self) -> None:
        """Tear the whole cluster down."""
        if self.transport is not None:
            await self.transport.close()
            self.transport = None

    # ------------------------------------------------------------ queries
    def alive_nodes(self) -> List[ClusterNode]:
        return [n for n in self.nodes.values() if n.started and not n.crashed]

    def is_converged(self) -> bool:
        """:func:`~repro.node.node.converged_scan` over the live nodes."""
        return converged_scan(self.nodes.values())

    async def wait_converged(
        self, timeout_s: float, poll_s: float = 0.05
    ) -> bool:
        """Poll the convergence predicate until it holds or *timeout_s* passes."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while True:
            if self.is_converged():
                return True
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(poll_s)

    # ------------------------------------------------------------- churn
    def kill(self, pid: ProcessId) -> None:
        """Stop-fail node *pid* (endpoint closed, timers cancelled)."""
        if self.transport is None:
            raise RuntimeError("cluster not started")
        self.transport.crash_node(pid)

    async def restart(self, pid: ProcessId) -> ClusterNode:
        """Bring *pid* back as a joiner (fresh state, joining protocol).

        The old crashed node object is replaced; the new one must be
        admitted by the current configuration's members before it counts as
        a participant again.  A pid that is still alive is refused by the
        transport (``RuntimeError``) and nothing changes.
        """
        if self.transport is None:
            raise RuntimeError("cluster not started")
        peers = [p for p, node in self.nodes.items()
                 if p != pid and node.started and not node.crashed]
        node = ClusterNode(
            pid=pid,
            peers=peers,
            config=self.config,
            initial_config=None,
        )
        # Hosted first, recorded second: ``nodes`` only ever names nodes the
        # transport accepted.
        await self.transport.start_node(node)
        self.nodes[pid] = node
        return node
