"""The real-runtime backend: the middleware off the simulator, onto sockets.

This package hosts the *same* node the simulator hosts —
:class:`~repro.node.node.ClusterNode` with its data link, failure
detector, recSA/recMA, joining, and application services, unmodified —
as live asyncio tasks exchanging UDP datagrams on localhost.  It imports
:mod:`repro.node` and nothing from :mod:`repro.sim`:

* :class:`~repro.runtime.transport.AsyncioTransport` — the host behind
  each node's :class:`~repro.node.process.ProcessContext`: per-node UDP
  endpoints, the :mod:`repro.common.codec` wire format, wall-clock
  timers rescaled to sim-time units.
* :class:`~repro.runtime.cluster.RuntimeCluster` — the harness: builds
  and boots an n-node localhost cluster, polls convergence, kills and
  restarts nodes.

There is no client here: a service is called in-process through
``cluster.service(pid, name)`` (``tests/test_runtime.py`` has the
examples), and the measured clients, which check every answer, are the
spine benchmark's live workloads (``benchmarks/spine/``).
"""

from repro.runtime.transport import AsyncioTransport
from repro.runtime.cluster import RuntimeCluster

__all__ = ["AsyncioTransport", "RuntimeCluster"]
