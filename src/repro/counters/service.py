"""Counter management and increment protocols (Algorithms 4.3 / 4.4 / 4.5).

The :class:`CounterService` plays two roles:

* **configuration member** (Algorithm 4.3 + 4.4) — maintains the maximal
  counter by gossiping counter pairs with the other members (mirroring the
  labeling algorithm but carrying sequence numbers; a pair goes to a member
  when its label part changed or every ``gossip_refresh_interval``
  iterations, :class:`repro.core.gossip.GossipGate`), answers the majority
  read/write requests of increment operations, cancels exhausted counters and
  elects fresh epoch labels when needed;
* **any participant** (Algorithm 4.4 for members, 4.5 for non-members) — the
  :meth:`CounterService.increment` entry point runs the two-phase
  read-increment-write protocol against a majority of the configuration and
  reports the outcome through a callback (an ``Abort`` is reported when a
  reconfiguration interferes, exactly as in the paper).

The service extends :class:`repro.labels.labeling.LabelingService`: the
member gate, the store rebuild, the gated member loop and the guarded
receipt are the labeling skeleton's; the service layers sequence-number
tracking and the increment phases on top of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.common.codec import wire_type
from repro.common.types import Configuration, ProcessId, majority_size
from repro.core.scheme import ReconfigurationScheme
from repro.counters.counter import (
    DEFAULT_SEQN_BOUND,
    Counter,
    CounterPair,
    max_counter,
)
from repro.labels.label import EpochLabel, LabelPair
from repro.labels.labeling import LabelingService, SendFn

IncrementCallback = Callable[["IncrementOutcome"], None]


# ---------------------------------------------------------------------------
# Wire messages
# ---------------------------------------------------------------------------
@wire_type
@dataclass(frozen=True)
class CounterGossipMessage:
    """Member-to-member gossip of the maximal counter pair (Algorithm 4.3)."""

    sender: ProcessId
    sent_max: Optional[CounterPair]
    last_sent: Optional[CounterPair]


@wire_type
@dataclass(frozen=True)
class MaxReadRequest:
    """``majMaxRead()`` — ask a member for its maximal counter."""

    sender: ProcessId
    op_id: int


@wire_type
@dataclass(frozen=True)
class MaxReadResponse:
    """Reply to a read: the member's maximal counter, or an abort."""

    sender: ProcessId
    op_id: int
    counter: Optional[CounterPair]
    aborted: bool = False


@wire_type
@dataclass(frozen=True)
class MaxWriteRequest:
    """``majMaxWrite(cnt)`` — ask a member to adopt a freshly written counter."""

    sender: ProcessId
    op_id: int
    counter: Counter


@wire_type
@dataclass(frozen=True)
class MaxWriteResponse:
    """Acknowledgement (or abort) of a write request."""

    sender: ProcessId
    op_id: int
    acked: bool
    aborted: bool = False


@dataclass
class IncrementOutcome:
    """Result reported to the caller of :meth:`CounterService.increment`."""

    success: bool
    counter: Optional[Counter] = None
    aborted: bool = False


class _OpPhase(Enum):
    READ = "read"
    WRITE = "write"
    DONE = "done"


@dataclass
class _IncrementOp:
    """In-flight state of one two-phase increment operation."""

    op_id: int
    config: Configuration
    callback: IncrementCallback
    phase: _OpPhase = _OpPhase.READ
    read_responses: Dict[ProcessId, Optional[CounterPair]] = field(default_factory=dict)
    write_acks: Set[ProcessId] = field(default_factory=set)
    written: Optional[Counter] = None
    #: The current phase's request, built once: every member gets (and
    #: ``on_timer`` re-sends) the same object, which the live transport
    #: encodes once per loop turn.
    request: Any = None

    def majority(self) -> int:
        return majority_size(self.config)


class CounterService(LabelingService):
    """Per-processor counter service layered on the reconfiguration scheme."""

    message_type = CounterGossipMessage
    _op_counter = itertools.count(1)

    def __init__(
        self,
        pid: ProcessId,
        scheme: ReconfigurationScheme,
        send: SendFn,
        seqn_bound: int = DEFAULT_SEQN_BOUND,
    ) -> None:
        super().__init__(pid, scheme, send)
        self.seqn_bound = seqn_bound

        # Member-side state (Algorithm 4.3) beside the label store: the pair
        # last received from each member and the per-label seqn.
        self.max_counters: Dict[ProcessId, Optional[CounterPair]] = {}
        self.seqns: Dict[EpochLabel, Tuple[int, ProcessId]] = {}

        # Client-side state: in-flight increment operations.
        self._ops: Dict[int, _IncrementOp] = {}

        # Diagnostics.
        self.increments_completed = 0
        self.increments_aborted = 0
        self.exhaustion_rollovers = 0
        # Labels whose exhaustion this service has already counted, so the
        # rollover diagnostic fires once per retired epoch regardless of
        # which path (gossiped cancellation vs findMaxCounter) retires it.
        self._exhausted_seen: set = set()

    # ------------------------------------------------------------------
    # Membership / structure management
    # ------------------------------------------------------------------
    def _rebuild_for(self, members: Configuration) -> None:
        super()._rebuild_for(members)
        self.max_counters = {m: self.max_counters.get(m) for m in members}
        self.seqns = {
            label: value
            for label, value in self.seqns.items()
            if label.creator in members
        }

    # ------------------------------------------------------------------
    # Local maximal-counter bookkeeping
    # ------------------------------------------------------------------
    def _record_counter(self, counter: Counter) -> None:
        """Remember the highest (seqn, wid) observed for the counter's label."""
        current = self.seqns.get(counter.label)
        if current is None or (counter.seqn, counter.wid) > current:
            self.seqns[counter.label] = (counter.seqn, counter.wid)

    def local_max_counter(self) -> Optional[CounterPair]:
        """The member's current maximal counter pair, if it has one."""
        if self.store is None:
            return None
        label = self.store.local_max_label()
        if label is None:
            return None
        seqn, wid = self.seqns.get(label, (0, self.pid))
        counter = Counter(label=label, seqn=seqn, wid=wid)
        if counter.is_exhausted(self.seqn_bound):
            # Emitting a cancelled pair starts the epoch's retirement through
            # the label gossip — an exhaustion rollover just like the
            # findMaxCounter path, so it is counted the same way.
            self._count_exhaustion(label)
            return CounterPair(mct=counter, cct=counter)
        return CounterPair(mct=counter)

    def _count_exhaustion(self, label: EpochLabel) -> None:
        if label not in self._exhausted_seen:
            self._exhausted_seen.add(label)
            self.exhaustion_rollovers += 1

    def _find_max_counter(self) -> Optional[Counter]:
        """``findMaxCounter()``: cancel exhausted epochs, elect a usable max.

        Repeats label election until the maximal label's sequence number is
        not exhausted (canceling exhausted labels in between), exactly like
        the ``repeat ... until`` loop of Algorithm 4.4.
        """
        if self.store is None:
            return None
        for _ in range(len(self.store.members) * 4 + 4):
            label = self.store.local_max_label()
            if label is None:
                self.store.receipt_action(None, None, self.pid)
                continue
            seqn, wid = self.seqns.get(label, (0, self.pid))
            counter = Counter(label=label, seqn=seqn, wid=wid)
            if not counter.is_exhausted(self.seqn_bound):
                return counter
            # Cancel the exhausted epoch and elect a new label.
            self._count_exhaustion(label)
            own = self.store.own_max()
            if own is not None and own.ml == label:
                self.store.max_pairs[self.pid] = LabelPair(ml=label, cl=label)
            for member, pair in list(self.store.max_pairs.items()):
                if pair is not None and pair.ml == label and pair.legit:
                    self.store.max_pairs[member] = LabelPair(ml=label, cl=label)
            queue = self.store.stored.get(label.creator)
            if queue is not None:
                stored = queue.get(label)
                if stored is not None and stored.legit:
                    queue.replace(stored.cancel(label))
            self.store.receipt_action(None, None, self.pid)
        return None

    # ------------------------------------------------------------------
    # Increment API (Algorithms 4.4 / 4.5)
    # ------------------------------------------------------------------
    def increment(self, callback: IncrementCallback) -> Optional[int]:
        """Start an increment; the outcome is delivered through *callback*.

        Returns the operation identifier, or ``None`` when the operation
        could not even start (no configuration, or a reconfiguration is in
        progress — the paper's immediate ``⊥`` return).
        """
        config = self.scheme.configuration()
        if config is None or not self.scheme.no_reco():
            callback(IncrementOutcome(success=False, aborted=True))
            self.increments_aborted += 1
            return None
        op = _IncrementOp(
            op_id=next(self._op_counter),
            config=config,
            callback=callback,
        )
        self._ops[op.op_id] = op
        self._send_reads(op)
        return op.op_id

    def _request(self, op: _IncrementOp, answered: Any = ()) -> None:
        """Send the phase's request to every other member that has not
        answered it yet."""
        for member in op.config:
            if member != self.pid and member not in answered:
                self.send(member, op.request)

    def _send_reads(self, op: _IncrementOp) -> None:
        op.request = MaxReadRequest(sender=self.pid, op_id=op.op_id)
        self._request(op)
        # A member counts itself among the read responses.
        if self.pid in op.config:
            op.read_responses[self.pid] = self.local_max_counter()
            self._maybe_finish_read(op)

    def _send_writes(self, op: _IncrementOp) -> None:
        assert op.written is not None
        op.request = MaxWriteRequest(sender=self.pid, op_id=op.op_id, counter=op.written)
        self._request(op)
        if self.pid in op.config:
            self._apply_write(op.written)
            op.write_acks.add(self.pid)
            self._maybe_finish_write(op)

    def _maybe_finish_read(self, op: _IncrementOp) -> None:
        if op.phase is not _OpPhase.READ:
            return
        if len(op.read_responses) < op.majority():
            return
        counters = [
            pair.mct
            for pair in op.read_responses.values()
            if pair is not None and pair.legit and not pair.mct.is_exhausted(self.seqn_bound)
        ]
        if self.pid in op.config and self.store is not None:
            # Members merge what they read into their own structures and can
            # always produce a usable maximum (Algorithm 4.4).
            for pair in op.read_responses.values():
                if pair is not None:
                    self._record_counter(pair.mct)
            own_max = self._find_max_counter()
            if own_max is not None:
                counters.append(own_max)
        best = max_counter(counters)
        if best is None:
            self._finish(op, IncrementOutcome(success=False, aborted=True))
            return
        op.written = best.next(self.pid)
        op.phase = _OpPhase.WRITE
        self._send_writes(op)

    def _maybe_finish_write(self, op: _IncrementOp) -> None:
        if op.phase is not _OpPhase.WRITE:
            return
        if len(op.write_acks) < op.majority():
            return
        assert op.written is not None
        self._record_counter(op.written)
        self.increments_completed += 1
        self._finish(op, IncrementOutcome(success=True, counter=op.written))

    def _finish(self, op: _IncrementOp, outcome: IncrementOutcome) -> None:
        op.phase = _OpPhase.DONE
        self._ops.pop(op.op_id, None)
        if not outcome.success:
            self.increments_aborted += 1
        op.callback(outcome)

    # ------------------------------------------------------------------
    # Node hooks
    # ------------------------------------------------------------------
    def on_timer(self) -> None:
        """Member gossip plus retransmission of in-flight operation requests."""
        super().on_timer()
        # Retransmit pending requests (fair-communication driving).
        for op in list(self._ops.values()):
            if op.phase is _OpPhase.READ:
                answered: Any = op.read_responses
            elif op.phase is _OpPhase.WRITE and op.written is not None:
                answered = op.write_acks
            else:
                continue
            self._request(op, answered)

    def _own_pair(self) -> Optional[CounterPair]:
        return self.local_max_counter()

    def _last_sent(self, member: ProcessId) -> Optional[CounterPair]:
        return self.max_counters.get(member)

    @staticmethod
    def _gate_key(pair: Optional[CounterPair]) -> Optional[Tuple[EpochLabel, bool]]:
        """The label part of a counter pair: a member is sent the pairs when
        their labels changed (a sequence number alone travels with the reads
        and writes) or every K rounds."""
        return None if pair is None else (pair.mct.label, pair.legit)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, sender: ProcessId, message: Any) -> bool:
        """Dispatch counter-protocol messages; True when the message was ours."""
        if isinstance(message, CounterGossipMessage):
            self._on_gossip(sender, message)
            return True
        if isinstance(message, MaxReadRequest):
            self._on_read_request(sender, message)
            return True
        if isinstance(message, MaxReadResponse):
            self._on_read_response(message)
            return True
        if isinstance(message, MaxWriteRequest):
            self._on_write_request(sender, message)
            return True
        if isinstance(message, MaxWriteResponse):
            self._on_write_response(message)
            return True
        return False

    # -- member side -----------------------------------------------------
    def _receipt(self, sender: ProcessId, message: CounterGossipMessage) -> None:
        assert self.store is not None
        self.max_counters[sender] = message.sent_max
        if message.sent_max is not None:
            pair = message.sent_max
            label_pair = LabelPair(
                ml=pair.mct.label,
                cl=None if pair.legit else pair.mct.label,
            )
            self.store.receipt_action(label_pair, None, sender)
            if pair.legit:
                self._record_counter(pair.mct)
        if message.last_sent is not None and not message.last_sent.legit:
            # The peer canceled the counter it last saw from us: make sure the
            # corresponding label is canceled locally too.
            own = self.store.own_max()
            if own is not None and own.ml == message.last_sent.mct.label:
                self.store.receipt_action(
                    LabelPair(ml=own.ml, cl=own.ml), None, sender
                )

    def _serve(self, sender: ProcessId, reply: type, op_id: int, refusal: Any) -> bool:
        """Whether this processor answers a request as a member, its
        structures rebuilt first when they lag; otherwise it replies
        ``reply(pid, op_id, refusal, aborted=True)``."""
        members = self._stable_members()
        if members is None:
            self.send(sender, reply(self.pid, op_id, refusal, aborted=True))
            return False
        if self._conf_changed(members):
            self._rebuild_for(members)
        return True

    def _on_read_request(self, sender: ProcessId, message: MaxReadRequest) -> None:
        if not self._serve(sender, MaxReadResponse, message.op_id, None):
            return
        counter = self._find_max_counter()
        pair = CounterPair(mct=counter) if counter is not None else None
        self.send(
            sender,
            MaxReadResponse(sender=self.pid, op_id=message.op_id, counter=pair),
        )

    def _on_write_request(self, sender: ProcessId, message: MaxWriteRequest) -> None:
        if not self._serve(sender, MaxWriteResponse, message.op_id, False):
            return
        self._apply_write(message.counter)
        self.send(
            sender,
            MaxWriteResponse(sender=self.pid, op_id=message.op_id, acked=True),
        )

    def _apply_write(self, counter: Counter) -> None:
        # In steady state every write carries the label the member already
        # holds as its legit maximum, and the receipt action would change no
        # pair; a corrupted store is repaired by the next gossip receipt,
        # which every member sends within K rounds.
        store = self.store
        if store is not None and counter.label.creator in store.members:
            own = store.own_max()
            if own is None or not own.legit or own.ml != counter.label:
                store.receipt_action(LabelPair(ml=counter.label), None, self.pid)
        self._record_counter(counter)

    # -- client side -----------------------------------------------------
    def _pending(self, message: Any, phase: _OpPhase) -> Optional[_IncrementOp]:
        """The operation *message* answers, if it is pending in *phase* and
        the answer is no abort (which finishes the operation)."""
        op = self._ops.get(message.op_id)
        if op is None or op.phase is not phase:
            return None
        if message.aborted:
            self._finish(op, IncrementOutcome(success=False, aborted=True))
            return None
        return op

    def _on_read_response(self, message: MaxReadResponse) -> None:
        op = self._pending(message, _OpPhase.READ)
        if op is None:
            return
        op.read_responses[message.sender] = message.counter
        self._maybe_finish_read(op)

    def _on_write_response(self, message: MaxWriteResponse) -> None:
        op = self._pending(message, _OpPhase.WRITE)
        if op is not None and message.acked:
            op.write_acks.add(message.sender)
            self._maybe_finish_write(op)
