"""The discrete-event simulator driving processes, timers and the network.

:class:`Simulator` is itself the host behind every
:class:`~repro.node.process.ProcessContext`: each context holds the simulator
directly, so a simulated send or timer is one call into it.

The simulator owns:

* the simulated clock and event queue,
* the registry of :class:`~repro.node.process.Process` instances,
* the :class:`~repro.sim.network.Network`, whose channels push every
  accepted packet onto this event queue,
* optional per-step hooks used by the monitors.

One simulated message costs one ``heappush`` when it is sent (by
:meth:`~repro.sim.network.Channel.try_accept`) and one ``heappop`` when
:meth:`Simulator.step` hands it to its receiver's ``on_receive``: a message
has no event handle and no callback of its own.

Running modes
-------------
``run(until=...)`` executes events until the clock passes the deadline;
``run_until(predicate, ...)`` executes until a condition over the system
state holds (used heavily by the convergence experiments).
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.common.errors import SimulationError
from repro.common.logging_utils import get_logger
from repro.common.rng import make_rng
from repro.common.types import ProcessId
from repro.sim.events import Event, EventQueue
from repro.node.config import ChannelConfig
from repro.node.process import Process, ProcessContext
from repro.sim.network import Network, Packet

_log = get_logger("simulator")

#: Returned by :meth:`Simulator.run` / :meth:`Simulator.run_until` when a
#: ``stop_before`` boundary was reached: the next live event lies at or past
#: the boundary and was **not** executed.  Falsy on purpose — callers that
#: ignore pausing treat it like a timeout.
PAUSED = type("_Paused", (), {"__bool__": lambda self: False, "__repr__": lambda self: "PAUSED"})()


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore the caller's state.

    Restores on every exit (return, :data:`PAUSED`, an exception), and a
    caller that had already disabled the collector keeps it disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Simulator:
    """Deterministic discrete-event simulator for the asynchronous model."""

    def __init__(self, seed: int = 0, channel_config: Optional[ChannelConfig] = None) -> None:
        self.seed = seed
        self.now: float = 0.0
        self.events = EventQueue()
        self.network = Network(default_config=channel_config, seed=seed)
        self.network.bind(self)
        self.processes: Dict[ProcessId, Process] = {}
        #: Per-source outbound interceptors (Byzantine traitor programs):
        #: when a source pid maps to a program here, every packet it sends
        #: is routed through ``program.outgoing(destination, payload)``,
        #: which returns the ``(destination, payload)`` pairs actually put
        #: on the wire (possibly dropped, mutated or fanned out).  Kept on
        #: the simulator — the single choke point of all sends — so no
        #: protocol layer can bypass its node's adversary.
        self.outbound_interceptors: Dict[ProcessId, Any] = {}
        self.executed_events = 0
        self.delivered_messages = 0
        self._post_step_hooks: List[Callable[["Simulator"], None]] = []
        self._root_rng = make_rng(seed, "simulator")

    # ------------------------------------------------------------ processes
    def add_process(self, process: Process, start: bool = True) -> Process:
        """Register *process* (unique pid required) and optionally start it."""
        if process.pid in self.processes:
            raise SimulationError(f"duplicate process id {process.pid}")
        self.processes[process.pid] = process
        context = ProcessContext(
            pid=process.pid, transport=self, rng=self.make_process_rng(process.pid)
        )
        process.bind(context)
        if start:
            process.start()
        return process

    def make_process_rng(self, pid: ProcessId) -> random.Random:
        """The per-process randomness stream, ``(seed, "process", pid)``."""
        return make_rng(self.seed, "process", pid)

    def active_processes(self) -> List[Process]:
        """Processes that have started and not crashed."""
        return [p for p in self.processes.values() if p.started and not p.crashed]

    def crash_process(self, pid: ProcessId) -> None:
        """Crash (stop-fail) the process *pid*.

        Packets it already sent are still delivered, matching the paper's
        model in which a crash only stops future steps; packets reaching it
        afterwards are dropped on arrival.
        """
        self.processes[pid].crash()

    # --------------------------------------------------------------- timers
    def set_timer(
        self, pid: ProcessId, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Arm a one-shot timer on behalf of process *pid*."""
        if delay < 0:
            raise SimulationError("timer delay must be non-negative")
        return self.events.schedule(self.now + delay, callback, label=label or f"timer:{pid}")

    def cancel_timer(self, handle: Event) -> None:
        """Cancel a previously armed timer."""
        self.events.cancel(handle)

    def call_at(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule an arbitrary callback at absolute simulated *time*."""
        if time < self.now:
            raise SimulationError("cannot schedule an event in the past")
        return self.events.schedule(time, callback, label=label)

    def call_later(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule an arbitrary callback *delay* time units from now."""
        return self.call_at(self.now + delay, callback, label=label)

    # -------------------------------------------------------------- network
    def send(self, source: ProcessId, destination: ProcessId, payload: Any) -> None:
        """Send a packet from *source* to *destination* (may be lost)."""
        interceptor = self.outbound_interceptors.get(source)
        if interceptor is not None:
            for dest, adversarial in interceptor.outgoing(destination, payload):
                self.network.send(Packet(source, dest, adversarial))
            return
        self.network.send(Packet(source, destination, payload))

    def send_many(self, source: ProcessId, payloads: Iterable[Any]) -> int:
        """Send a burst of ``(destination, payload)`` pairs from *source*.

        The broadcast fast path: every draw of the burst comes from the
        network's dedicated broadcast RNG stream.  Returns the number of
        packets accepted into channels.
        """
        interceptor = self.outbound_interceptors.get(source)
        if interceptor is not None:
            payloads = [
                pair
                for destination, payload in payloads
                for pair in interceptor.outgoing(destination, payload)
            ]
        return self.network.send_many(source, payloads)

    # ----------------------------------------------------------------- hooks
    def add_post_step_hook(self, hook: Callable[["Simulator"], None]) -> None:
        """Run *hook(self)* after every executed event."""
        self._post_step_hooks.append(hook)

    # ------------------------------------------------------------------ run
    def step(self) -> bool:
        """Execute a single event; return ``False`` when the queue is empty.

        An event is a timer (its callback fires) or a message: the channel
        frees the packet's in-flight slot and, when the destination is
        running, its ``on_receive`` handles the payload as one atomic step.
        """
        entry = self.events.pop_entry()
        if entry is None:
            return False
        time, _, channel, item = entry
        if time < self.now:
            raise SimulationError("event queue returned an event from the past")
        self.now = time
        if channel is None:
            item.callback(*item.args)
        else:
            channel.complete_delivery(item)
            process = self.processes.get(item.destination)
            if process is not None and process.started and not process.crashed:
                self.delivered_messages += 1
                process.received_count += 1
                process.on_receive(item.source, item.payload)
        self.executed_events += 1
        if self._post_step_hooks:
            for hook in self._post_step_hooks:
                hook(self)
        return True

    def run(self, until: float, stop_before: Optional[float] = None) -> Any:
        """Run until the simulated clock passes *until* (or no events remain).

        With *stop_before*, execution pauses — returning :data:`PAUSED`, with
        the clock **not** advanced — right before the first event at ``time
        >= stop_before``; otherwise returns ``True`` with ``now`` advanced to
        *until*.  The pause boundary is what snapshot capture uses to stop
        between events (see ``repro.scenarios.runner.drive``).

        The loop runs with the cyclic garbage collector paused.  Reference
        counting already frees every packet, event and message the loop
        drops, so a collection inside it only re-walks the live cluster and
        finds nothing.  A change that
        makes an event drop a reference cycle (a record pointing back at
        itself, an exception kept with its traceback) breaks that premise:
        such cycles pile up until the loop returns.
        ``tests/test_sim.py::TestCollectorPause`` checks the premise on every
        stack and the restored collector state on every exit.
        """
        with _collector_paused():
            while True:
                next_time = self.events.peek_time()
                if next_time is None or next_time > until:
                    self.now = max(self.now, until)
                    return True
                if stop_before is not None and next_time >= stop_before:
                    return PAUSED
                self.step()

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 10_000.0,
        stop_before: Optional[float] = None,
        poll_interval: Optional[float] = None,
    ) -> Any:
        """Run until *predicate()* holds or the clock exceeds *timeout*.

        *timeout* is an **absolute simulated-clock deadline**, not a budget:
        a call issued when ``now`` is already past *timeout* returns
        immediately.  Callers that want a budget relative to the current
        instant should pass ``simulator.now + budget`` (which is what
        :meth:`repro.sim.cluster.Cluster.run_until` does).

        Without *poll_interval* the predicate is evaluated after every
        executed event.  With a positive *poll_interval*
        the predicate is instead evaluated on a **simulated-time cadence**:
        whenever the next live event would cross the current poll boundary
        (so dense event bursts pay one evaluation per interval, not one per
        event), plus once at each of entry, timeout and queue exhaustion.
        Because the boundary check happens *before* the crossing event
        executes, a predicate that became true at time ``t`` is detected at a
        simulated time at most one poll interval after ``t``.

        Returns ``True`` when the predicate became true, ``False`` on timeout
        or event-queue exhaustion — or :data:`PAUSED` (falsy) when
        *stop_before* is set and the next live event lies at or past that
        boundary (the event is not executed; resuming later re-enters with an
        extra predicate evaluation, which is pure and cannot perturb the
        run).

        Like :meth:`run`, the loop (predicate included) runs with the cyclic
        garbage collector paused; :meth:`run` says why and what would break
        that premise.
        """
        with _collector_paused():
            if predicate():
                return True
            events = self.events
            if poll_interval is not None and poll_interval > 0.0:
                next_poll = self.now + poll_interval
                while True:
                    next_time = events.peek_time()
                    if next_time is None or next_time > timeout:
                        return predicate()
                    if stop_before is not None and next_time >= stop_before:
                        return PAUSED
                    if next_time >= next_poll:
                        if predicate():
                            return True
                        # Re-anchor on the upcoming event so idle stretches skip
                        # straight to the next live instant instead of walking
                        # empty poll windows one by one.
                        next_poll = max(next_poll + poll_interval, next_time)
                    self.step()
            while True:
                next_time = events.peek_time()
                if next_time is None or next_time > timeout:
                    return predicate()
                if stop_before is not None and next_time >= stop_before:
                    return PAUSED
                self.step()
                if predicate():
                    return True

    # ------------------------------------------------------------ inspection
    def statistics(self) -> Dict[str, Any]:
        """Aggregate simulator + network statistics (used by benchmarks)."""
        stats: Dict[str, Any] = {
            "time": self.now,
            "executed_events": self.executed_events,
            "delivered_messages": self.delivered_messages,
            "processes": len(self.processes),
            "active": len(self.active_processes()),
        }
        stats.update({f"net_{k}": v for k, v in self.network.statistics().items()})
        return stats
