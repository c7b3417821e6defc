"""The real-runtime backend: the middleware off the simulator, onto sockets.

This package runs the *same* protocol stack the simulator drives —
:class:`~repro.sim.cluster.ClusterNode` with its data link, failure
detector, recSA/recMA, joining, and application services, unmodified —
as live asyncio tasks exchanging UDP datagrams on localhost:

* :class:`~repro.runtime.transport.AsyncioTransport` — the
  :class:`~repro.transport.base.Transport` backend: per-node UDP
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
