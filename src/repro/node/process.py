"""Process abstraction: the unit of computation in the interleaving model.

A :class:`Process` owns local state and reacts to two kinds of input events
(paper, Section 2): the arrival of a packet, and a periodic timer that
triggers the next iteration of its *do-forever loop*.  Each handler runs as a
single atomic step of the interleaving model.

Concrete protocol layers (data link, failure detector, recSA, recMA, joining,
applications) are implemented as plain Python objects owned by a process (see
:mod:`repro.node.node`); this module only provides the scheduling plumbing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.common.types import ProcessId


@dataclass
class ProcessContext:
    """Capabilities handed to a process by its host: the capability boundary.

    The paper's system model (Section 2) gives a processor exactly four
    abilities: take a step when its periodic timer fires, receive a packet,
    send packets over unreliable channels, and draw local randomness.  A
    context exposes exactly those: send, arm and cancel timers, and ``rng``.
    Processes never touch the host directly, so the same protocol code runs
    over the deterministic simulator (:class:`repro.sim.simulator.Simulator`)
    and the asyncio runtime (:class:`repro.runtime.transport.AsyncioTransport`).

    *transport* is the host.  It supplies ``send(source, destination,
    payload)``, ``send_many(source, pairs)`` (returns the packets accepted),
    ``set_timer(pid, delay, callback, label)`` (delay in sim-time units; the
    handle it returns is only valid for ``cancel_timer``), an idempotent
    ``cancel_timer(handle)``, and a read attribute ``now``.  *rng* is the
    host's ``make_process_rng(pid)``, derived from ``(root seed, "process",
    pid)`` by :func:`repro.common.rng.make_rng` on both hosts, so a node's
    local coin flips do not depend on which host runs it.

    The ``now`` contract: ``now`` is the host's clock, the simulated clock
    under the simulator and a monotonic wall-clock reading (in sim-time units)
    under the runtime.  **No protocol layer reads it.**  The heartbeat paces
    itself by iteration count (``idle_resend_interval``), reliable broadcast
    by round counters, and the failure detector counts heartbeats.  The
    paper's algorithms are time-free (self-stabilization may not assume
    synchronized or even monotonic clocks after a transient fault), so
    ``now`` serves metrics, traces and harness code only, which read
    ``context.transport.now``.  A layer that branched on it would fork
    trajectories between hosts and forfeit the time-free argument.  Timers
    are the one sanctioned contact with time: the algorithms rely on their
    order, not on their instants.
    """

    pid: ProcessId
    transport: Any
    rng: random.Random

    def send(self, destination: ProcessId, payload: Any) -> None:
        """Send *payload* to *destination* over the unreliable network."""
        self.transport.send(self.pid, destination, payload)

    def send_many(self, payloads: Any) -> int:
        """Send a burst of ``(destination, payload)`` pairs (broadcast fast path)."""
        return self.transport.send_many(self.pid, payloads)

    def set_timer(self, delay: float, callback: Callable[[], None], label: str = "") -> Any:
        """Arm a one-shot timer firing after *delay* time units."""
        return self.transport.set_timer(self.pid, delay, callback, label=label)

    def cancel_timer(self, handle: Any) -> None:
        """Cancel a timer previously armed with :meth:`set_timer`."""
        self.transport.cancel_timer(handle)


#: The period of every processor's do-forever loop, in time units.
STEP_INTERVAL = 1.0


class Process:
    """Base class for processors, on either host.

    Subclasses override :meth:`on_start`, :meth:`on_timer` and
    :meth:`on_receive`.  The default implementation arms a periodic timer with
    period ``step_interval`` (with a small seeded jitter so processors do not
    run in lockstep) and calls :meth:`on_timer` on each tick — this models the
    "periodic timer triggering pi to (re)send" input event of the paper.
    """

    def __init__(
        self, pid: ProcessId, step_interval: float = STEP_INTERVAL, jitter: float = 0.2
    ) -> None:
        self.pid = pid
        self.step_interval = step_interval
        self.jitter = jitter
        self.context: Optional[ProcessContext] = None
        self.crashed = False
        self.started = False
        self.step_count = 0
        self.received_count = 0
        self._timer_handle: Any = None

    # ------------------------------------------------------------------ API
    def bind(self, context: ProcessContext) -> None:
        """Attach the host-provided context (called by the host)."""
        self.context = context

    def start(self) -> None:
        """Begin executing: run :meth:`on_start` and arm the periodic timer."""
        if self.context is None:
            raise RuntimeError(f"process {self.pid} not bound to a host")
        if self.crashed or self.started:
            return
        self.started = True
        self.on_start()
        self._arm_timer()

    def crash(self) -> None:
        """Stop-fail: the process takes no further steps and never rejoins."""
        self.crashed = True
        if self._timer_handle is not None and self.context is not None:
            self.context.cancel_timer(self._timer_handle)
            self._timer_handle = None

    def deliver(self, sender: ProcessId, payload: Any) -> None:
        """Entry point used by the asyncio runtime when a frame arrives
        (:meth:`~repro.sim.simulator.Simulator.step` applies the same rule
        inline, one call fewer per simulated message)."""
        if self.crashed or not self.started:
            return
        self.received_count += 1
        self.on_receive(sender, payload)

    # ------------------------------------------------------------ overrides
    def on_start(self) -> None:
        """Hook executed once when the process starts."""

    def on_timer(self) -> None:
        """One iteration of the do-forever loop."""

    def on_receive(self, sender: ProcessId, payload: Any) -> None:
        """Handle an incoming high-level message."""

    # ------------------------------------------------------------ internals
    def _arm_timer(self) -> None:
        if self.crashed or self.context is None:
            return
        delay = self.step_interval
        if self.jitter > 0:
            delay += self.context.rng.uniform(-self.jitter, self.jitter) * self.step_interval
            delay = max(delay, self.step_interval * 0.1)
        self._timer_handle = self.context.set_timer(
            delay, self._timer_fired, label=f"step:{self.pid}"
        )

    def _timer_fired(self) -> None:
        if self.crashed:
            return
        self.step_count += 1
        try:
            self.on_timer()
        finally:
            self._arm_timer()
