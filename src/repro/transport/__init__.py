"""Transport abstraction: the capability boundary under every process.

The protocol layers (data link, failure detector, recSA/recMA, joining, VS,
SMR, applications) interact with the outside world exclusively through a
:class:`~repro.sim.process.ProcessContext`, which in turn delegates to a
:class:`~repro.transport.base.Transport`.  Two conforming backends exist:

* :class:`~repro.sim.simulator.Simulator` — the deterministic
  discrete-event simulator, which is a transport itself (byte-identical
  seed trajectories, snapshots, audit warm prefixes).
* :class:`~repro.runtime.transport.AsyncioTransport` — the real runtime:
  each node an asyncio task, messages over UDP/localhost with the
  :mod:`repro.common.codec` wire format, wall-clock timers.

The same protocol code runs unmodified on both; the transport conformance
suite (``tests/test_transport_conformance.py``) pins the shared semantics.
"""

from repro.transport.base import Transport, TimerHandle

__all__ = ["Transport", "TimerHandle"]
