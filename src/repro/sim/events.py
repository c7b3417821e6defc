"""Event queue for the discrete-event simulator.

Events are ordered by ``(time, sequence)``; the sequence number breaks ties
deterministically in insertion order, which keeps runs reproducible even when
many events share a timestamp (common when a broadcast schedules one delivery
per destination).

Hot-path design
---------------
The heap holds plain ``(time, sequence, target, item)`` tuples rather than
rich comparable objects: tuple comparison short-circuits on the ``(time,
sequence)`` prefix (the sequence number is unique, so the rest of the entry is
never compared), which makes every sift in ``heappush`` / ``heappop`` a
C-level comparison with no Python dunder dispatch.

Two kinds of entry share the heap:

* **Handle-less entries** (:meth:`EventQueue.push`): ``target`` is the object
  the owner dispatches the entry to and ``item`` its argument — a simulated
  message is ``(arrival, sequence, channel, packet)``.  Nothing is allocated
  beyond the tuple, and nothing can cancel it: a message in flight is never
  recalled.  Sending one message is one ``heappush``, delivering it one
  ``heappop``.
* **Cancellable events** (:meth:`EventQueue.schedule`, for timers and
  ``call_at``): ``target`` is ``None`` and ``item`` an :class:`Event` handle
  with a callback and an optional ``args`` tuple, so callers can schedule a
  shared bound method instead of allocating a closure per event.

Cancellation is O(1): the handle is flagged and skipped lazily when it
reaches the head of the heap (:meth:`EventQueue.peek_time` or
:meth:`EventQueue.pop_entry`).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.common.errors import SimulationError

_INF = float("inf")
_NEG_INF = float("-inf")

#: One heap entry: ``(time, sequence, target, item)``; ``target`` is ``None``
#: for a cancellable :class:`Event` (then ``item`` is the handle).
Entry = Tuple[float, int, Any, Any]


class Action:
    """A copyable scheduled callable: ``fn(*args)``.

    Snapshot/restore (:mod:`repro.sim.snapshot`) pickles the whole simulation
    graph.  A plain closure in the event queue cannot make that trip: pickle
    refuses it (and ``deepcopy`` would copy it atomically, its cells still
    pointing at the **old** graph, so a restored run would silently mutate
    the original cluster).  An ``Action`` instead carries its target objects
    as instance state: pickle and ``deepcopy`` alike remap them through the
    same memo as the rest of the graph, so the restored event fires against
    the restored objects.

    ``fn`` must be either (a) a module-level function / function accessed on
    a class (stateless; shared across copies by design) with the stateful
    targets passed via ``*args``, or (b) a bound method — which is rebound
    to the copied instance.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., object], *args: object) -> None:
        self.fn = fn
        self.args = args

    def __call__(self, *extra: object) -> object:
        return self.fn(*self.args, *extra)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Action({name}, {', '.join(map(repr, self.args))})"


class Event:
    """A cancellable scheduled callback handle.

    Attributes
    ----------
    time:
        Simulated time at which the event fires.
    sequence:
        Monotonically increasing tie-breaker assigned by the queue.
    callback:
        Callable executed when the event fires, invoked as ``callback(*args)``.
    args:
        Positional arguments for *callback* (empty for plain timers).  Passing
        arguments here lets many events share one bound method instead of
        paying a closure allocation per event.
    cancelled:
        Events are cancelled lazily: a cancelled event stays in the heap but
        is skipped when it reaches the head.
    label:
        Optional human-readable label used by traces and tests.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled", "label")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., None],
        args: Tuple = (),
        label: str = "",
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label


class EventQueue:
    """A priority queue of handle-less entries and :class:`Event` handles,
    keyed by simulated time."""

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._next_seq = 0

    def push(self, time: float, target: Any, item: Any) -> None:
        """Insert a handle-less entry ``(time, sequence, target, item)``.

        The hot path of every simulated message: no handle, no validation —
        the caller guarantees a finite *time* (channel delays are checked
        once, when their :class:`~repro.node.config.ChannelConfig` is built)
        and a non-``None`` *target*.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (time, seq, target, item))

    def schedule(
        self,
        time: float,
        callback: Callable[..., None],
        label: str = "",
        args: Tuple = (),
    ) -> Event:
        """Insert a new cancellable event firing at *time*; return its handle.

        Raises :class:`SimulationError` if *time* is not a finite number.
        """
        if not (time == time and time != _INF and time != _NEG_INF):
            raise SimulationError(f"cannot schedule event at non-finite time {time!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, callback, args, label)
        heapq.heappush(self._heap, (time, seq, None, event))
        return event

    @property
    def next_sequence(self) -> int:
        """The sequence number the next scheduled entry will get."""
        return self._next_seq

    def withdraw(self, since: int) -> List[Entry]:
        """Remove and return every entry scheduled at sequence *since* or later.

        The entries keep their ``(time, sequence)``: :meth:`readmit` puts
        them back exactly where they would have run had they stayed.
        """
        heap = self._heap
        taken = [entry for entry in heap if entry[1] >= since]
        if taken:
            heap[:] = [entry for entry in heap if entry[1] < since]
            heapq.heapify(heap)
        return taken

    def readmit(self, entries: List[Entry]) -> None:
        """Put withdrawn *entries* back into the queue, order keys unchanged."""
        for entry in entries:
            heapq.heappush(self._heap, entry)

    def cancel(self, event: Event) -> None:
        """Cancel *event* in O(1); it will be skipped lazily when it reaches
        the head.  Cancelling an event that has already fired is a no-op."""
        event.cancelled = True

    def peek_time(self) -> Optional[float]:
        """Return the time of the next live entry, or ``None``."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is None and entry[3].cancelled:
                heapq.heappop(heap)
                continue
            return entry[0]
        return None

    def pop_entry(self) -> Optional[Entry]:
        """Remove and return the next live ``(time, sequence, target, item)``
        entry, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[2] is None and entry[3].cancelled:
                continue
            return entry
        return None
