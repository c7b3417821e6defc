"""The ``Transport`` protocol: every capability a processor may use.

The paper's system model (Section 2) gives a processor exactly four
abilities: take a step when its periodic timer fires, receive a packet,
send packets over unreliable channels, and draw local randomness.  This
protocol is that model as an interface.  A backend supplies the mechanics —
event queue or event loop, in-memory channels or UDP sockets — and the
protocol layers cannot tell the difference.

Time contract
-------------
``now`` is the transport's clock, a read attribute: the deterministic
simulated clock under :class:`~repro.sim.simulator.Simulator`, a monotonic
wall-clock reading (in sim-time units) under the asyncio runtime.  **No protocol layer
reads it** — an audit of the stack (PR 8) found zero call sites: the
heartbeat service paces itself by iteration count
(``idle_resend_interval``), the reliable-broadcast services by
``_rounds % resend_interval``, and the failure detector is heartbeat-count
based by construction.  That is deliberate: the paper's algorithms are
*time-free* (self-stabilization may not assume synchronized or even
monotonic local clocks after a transient fault), so ``now`` exists for
metrics, traces and harness instrumentation only.  Keep it that way — a
protocol layer that starts branching on ``now`` silently forfeits the
byte-identical trajectory guarantee *and* the time-free stabilization
argument.

Timers are the one sanctioned contact with time: ``set_timer`` models the
"periodic timer triggering p_i" input event, and the scheduling *order* of
timers (not their absolute instants) is what the algorithms rely on.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Protocol, Tuple, runtime_checkable

from repro.common.types import ProcessId

#: Opaque timer handle: whatever ``set_timer`` returns is valid input to
#: ``cancel_timer`` of the same backend, and nothing else may be assumed.
TimerHandle = Any


@runtime_checkable
class Transport(Protocol):
    """Backend capabilities behind :class:`~repro.sim.process.ProcessContext`.

    All methods take the acting process id explicitly — one transport
    instance serves every node of a cluster, and per-process facades
    (``ProcessContext``) curry their own pid in.
    """

    #: The transport clock, in simulated-time units (metrics only — see the
    #: module docstring for the full contract).
    now: float

    def send(self, source: ProcessId, destination: ProcessId, payload: Any) -> None:
        """Send one packet over the unreliable network (may be lost)."""
        ...

    def send_many(
        self, source: ProcessId, payloads: Iterable[Tuple[ProcessId, Any]]
    ) -> int:
        """Send a burst of ``(destination, payload)`` pairs; returns the
        number of packets accepted onto the wire."""
        ...

    def set_timer(
        self,
        pid: ProcessId,
        delay: float,
        callback: Callable[[], None],
        label: str = "",
    ) -> TimerHandle:
        """Arm a one-shot timer firing after *delay* simulated-time units."""
        ...

    def cancel_timer(self, handle: TimerHandle) -> None:
        """Cancel a timer; cancelling an already-fired timer is a no-op."""
        ...

    def make_process_rng(self, pid: ProcessId) -> random.Random:
        """The per-process randomness stream.

        Backends must derive it from ``(root seed, "process", pid)`` via
        :func:`repro.common.rng.make_rng` so a node's local coin flips are
        identical across backends and across restarts of the same pid.
        """
        ...
