"""Bounded label-pair storage and the receipt action of Algorithm 4.2.

Every configuration member keeps

* ``max_pairs[j]`` — the label pair most recently reported by member ``j``
  (entry ``i`` is the member's own current maximal pair), and
* ``stored[c]`` — a bounded queue of label pairs whose label was created by
  member ``c``; the owner's own queue is larger because it must remember
  every label that could still cancel a label it creates.

The receipt action keeps these structures consistent: it files newly seen
labels, cancels labels for which a non-dominated rival by the same creator
exists, removes duplicates, flushes everything if the structure itself is
corrupted (stale information), and finally elects the owner's maximal label —
adopting the globally maximal legitimate label if one exists and otherwise
creating a fresh label with ``nextLabel``.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.types import ProcessId
from repro.labels.label import (
    DEFAULT_ANTISTING_CAPACITY,
    DEFAULT_DOMAIN_SIZE,
    EpochLabel,
    LabelPair,
    label_less_than,
    max_label,
    next_label,
)


class BoundedLabelQueue:
    """A bounded most-recently-used queue of :class:`LabelPair` objects.

    Accessing or re-adding a pair moves it to the front; inserting into a
    full queue evicts the least-recently-used pair — the bounded-memory
    behaviour the labeling algorithm relies on.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(1, capacity)
        self._pairs: "OrderedDict[EpochLabel, LabelPair]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        """The stored pairs, least recent first; a live view — take
        :meth:`pairs` before a loop that touches the queue."""
        return iter(self._pairs.values())

    def pairs(self) -> List[LabelPair]:
        """Snapshot of the stored pairs (most recent first)."""
        return list(reversed(self._pairs.values()))

    def get(self, label: EpochLabel) -> Optional[LabelPair]:
        """Return the stored pair for *label*, marking it recently used."""
        pair = self._pairs.get(label)
        if pair is not None:
            self._pairs.move_to_end(label)
        return pair

    def add(self, pair: LabelPair) -> None:
        """Insert or update *pair*; a canceled copy always wins over a legit one."""
        existing = self._pairs.get(pair.ml)
        if existing is not None:
            if existing.cl is None and pair.cl is not None:
                self._pairs[pair.ml] = pair
            self._pairs.move_to_end(pair.ml)
            return
        self._pairs[pair.ml] = pair
        self._pairs.move_to_end(pair.ml)
        while len(self._pairs) > self.capacity:
            self._pairs.popitem(last=False)

    def replace(self, pair: LabelPair) -> None:
        """Overwrite the stored pair for ``pair.ml`` unconditionally."""
        self._pairs[pair.ml] = pair
        self._pairs.move_to_end(pair.ml)

    def clear(self) -> None:
        """Drop every stored pair."""
        self._pairs.clear()


class LabelStore:
    """Per-member label bookkeeping plus the Algorithm 4.2 receipt action."""

    def __init__(
        self,
        owner: ProcessId,
        members: Iterable[ProcessId],
        in_transit_bound: int = 16,
        domain_size: int = DEFAULT_DOMAIN_SIZE,
        antisting_capacity: int = DEFAULT_ANTISTING_CAPACITY,
    ) -> None:
        self.owner = owner
        self.members: Tuple[ProcessId, ...] = tuple(sorted(set(members) | {owner}))
        self.in_transit_bound = in_transit_bound
        self.domain_size = domain_size
        self.antisting_capacity = antisting_capacity

        self.max_pairs: Dict[ProcessId, Optional[LabelPair]] = {m: None for m in self.members}
        self.stored: Dict[ProcessId, BoundedLabelQueue] = {}
        self._rebuild_queues()

        self.labels_created = 0
        self.queue_flushes = 0

    # ------------------------------------------------------------------
    # Structure management (rebuild / emptyAllQueues of Algorithm 4.1)
    # ------------------------------------------------------------------
    def _queue_capacity(self, creator: ProcessId) -> int:
        v = len(self.members)
        if creator == self.owner:
            return v * (v * v + self.in_transit_bound) + v
        return v + self.in_transit_bound

    def _rebuild_queues(self) -> None:
        self.stored = {
            member: BoundedLabelQueue(self._queue_capacity(member)) for member in self.members
        }

    def rebuild(self, members: Iterable[ProcessId]) -> None:
        """``rebuild()``: resize the structures for a new configuration."""
        self.members = tuple(sorted(set(members) | {self.owner}))
        old_max = self.max_pairs
        self.max_pairs = {m: old_max.get(m) for m in self.members}
        self._rebuild_queues()

    def empty_all_queues(self) -> None:
        """``emptyAllQueues()``: clear every per-creator queue."""
        for queue in self.stored.values():
            queue.clear()
        self.queue_flushes += 1

    def clean_non_member_labels(self) -> None:
        """``cleanMax()``: drop max entries whose label creator left the config."""
        for member, pair in list(self.max_pairs.items()):
            if pair is None:
                continue
            if pair.ml.creator not in self.members or (
                pair.cl is not None and pair.cl.creator not in self.members
            ):
                self.max_pairs[member] = None

    def clean_pair(self, pair: Optional[LabelPair]) -> Optional[LabelPair]:
        """``cleanLP()``: nullify a pair referencing a non-member creator."""
        if pair is None:
            return None
        if pair.ml.creator not in self.members:
            return None
        if pair.cl is not None and pair.cl.creator not in self.members:
            return None
        return pair

    # ------------------------------------------------------------------
    # Inspection helpers
    # ------------------------------------------------------------------
    def own_max(self) -> Optional[LabelPair]:
        """The owner's current maximal label pair (may be None before boot)."""
        return self.max_pairs.get(self.owner)

    def local_max_label(self) -> Optional[EpochLabel]:
        """The owner's current maximal label when it is legitimate."""
        pair = self.own_max()
        if pair is not None and pair.legit:
            return pair.ml
        return None

    def legit_labels(self) -> List[EpochLabel]:
        """``legitLabels()``: the legitimate labels among the max entries."""
        return [pair.ml for pair in self.max_pairs.values() if pair is not None and pair.legit]

    # ------------------------------------------------------------------
    # The receipt action (Algorithm 4.2, labelReceiptAction)
    # ------------------------------------------------------------------
    def receipt_action(
        self,
        sent_max: Optional[LabelPair],
        last_sent: Optional[LabelPair],
        sender: ProcessId,
    ) -> Optional[LabelPair]:
        """Process one exchange and return the owner's (new) maximal pair.

        ``sent_max`` is the sender's own maximal pair; ``last_sent`` is the
        echo of the owner's maximal pair as last received by the sender.
        Either may be ``None`` (the ``⊥`` of the pseudo-code).
        """
        # Line 18: record the sender's maximum.
        if sender in self.max_pairs:
            self.max_pairs[sender] = self.clean_pair(sent_max)

        # Line 19: if the sender canceled the label we currently consider
        # maximal, adopt the cancellation.
        own = self.own_max()
        if (
            last_sent is not None
            and not last_sent.legit
            and own is not None
            and own.ml == last_sent.ml
        ):
            self.max_pairs[self.owner] = last_sent

        # Line 20: stale structural information flushes every queue.
        if self._stale_info():
            self.empty_all_queues()

        # Line 21: make sure every max entry is filed in its creator's queue.
        for pair in self.max_pairs.values():
            if pair is None:
                continue
            queue = self.stored.get(pair.ml.creator)
            if queue is None:
                continue
            if queue.get(pair.ml) is None:
                queue.add(pair)

        # Line 22: cancel stored labels dominated-by-nothing rivals exist for.
        for creator, queue in self.stored.items():
            if len(queue) < 2:
                continue  # a lone pair has no rival
            pairs = queue.pairs()
            for pair in pairs:
                if not pair.legit:
                    continue
                for rival in pairs:
                    if rival.ml == pair.ml:
                        continue
                    if not label_less_than(rival.ml, pair.ml):
                        queue.replace(pair.cancel(rival.ml))
                        break

        # Lines 23-25: reconcile cancellation state between max[] and queues.
        for member, pair in list(self.max_pairs.items()):
            if pair is None:
                continue
            queue = self.stored.get(pair.ml.creator)
            if queue is None:
                continue
            stored = queue.get(pair.ml)
            if stored is None:
                continue
            if not pair.legit and stored.legit:
                queue.replace(pair)
            elif pair.legit and not stored.legit:
                self.max_pairs[member] = stored

        # Lines 26-27: elect the owner's maximal label.
        legit = self.legit_labels()
        if legit:
            chosen = max_label(legit)
            assert chosen is not None
            self.max_pairs[self.owner] = LabelPair(ml=chosen, cl=None)
        else:
            self._use_own_label()
        return self.own_max()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stale_info(self) -> bool:
        """``staleInfo()``: a pair filed under the wrong creator's queue."""
        for creator, queue in self.stored.items():
            for pair in queue:
                if pair.ml.creator != creator:
                    return True
        return False

    def _use_own_label(self) -> None:
        """``useOwnLabel()``: reuse a legit own label or create a fresh one."""
        own_queue = self.stored.get(self.owner)
        if own_queue is None:
            own_queue = BoundedLabelQueue(self._queue_capacity(self.owner))
            self.stored[self.owner] = own_queue
        for pair in own_queue:
            if pair.legit:
                self.max_pairs[self.owner] = pair
                return
        known = [pair.ml for pair in own_queue]
        # Labels known anywhere in the store also constrain the new label so
        # that it cannot be immediately canceled by an already-present rival.
        for queue in self.stored.values():
            known.extend(pair.ml for pair in queue if pair.ml.creator == self.owner)
        for pair in self.max_pairs.values():
            if pair is not None and pair.ml.creator == self.owner:
                known.append(pair.ml)
        fresh = next_label(
            creator=self.owner,
            known=known,
            domain_size=self.domain_size,
            antisting_capacity=self.antisting_capacity,
        )
        fresh_pair = LabelPair(ml=fresh, cl=None)
        own_queue.add(fresh_pair)
        self.max_pairs[self.owner] = fresh_pair
        self.labels_created += 1
