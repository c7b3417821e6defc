"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.types import Phase, Proposal, is_majority, majority_size, make_config
from repro.counters.counter import Counter, counter_less_than
from repro.labels.label import (
    EpochLabel,
    LabelPair,
    label_less_than,
    max_label,
    next_label,
)
from repro.labels.store import LabelStore
from repro.sim.events import EventQueue


pids = st.integers(min_value=0, max_value=20)
pid_sets = st.frozensets(pids, min_size=1, max_size=8)


proposals = st.builds(
    Proposal,
    phase=st.sampled_from(list(Phase)),
    members=st.one_of(st.none(), pid_sets),
)


class TestProposalOrderProperties:
    @given(proposals, proposals)
    def test_order_is_total_and_antisymmetric(self, a, b):
        a, b = a.sort_key(), b.sort_key()
        assert (a < b) or (b < a) or (a == b)
        assert not ((a < b) and (b < a))

    @given(proposals, proposals, proposals)
    def test_order_is_transitive(self, a, b, c):
        a, b, c = a.sort_key(), b.sort_key(), c.sort_key()
        if a < b and b < c:
            assert a < c

    @given(proposals)
    def test_default_is_minimum(self, a):
        from repro.common.types import DEFAULT_PROPOSAL

        assert DEFAULT_PROPOSAL.sort_key() <= a.sort_key()


class TestMajorityProperties:
    @given(pid_sets)
    def test_majority_is_more_than_half(self, members):
        size = majority_size(members)
        assert 2 * size > len(members)
        assert 2 * (size - 1) <= len(members)

    @given(pid_sets, st.data())
    def test_two_majorities_intersect(self, members, data):
        size = majority_size(members)
        quorum_a = frozenset(data.draw(st.permutations(sorted(members)))[:size])
        quorum_b = frozenset(data.draw(st.permutations(sorted(members)))[:size])
        assert quorum_a & quorum_b

    @given(pid_sets)
    def test_quorum_system_consistent_with_is_majority(self, members):
        """The majority quorum system: the smallest majority is a quorum and
        one member fewer is not."""
        size = majority_size(members)
        sorted_members = sorted(members)
        assert is_majority(sorted_members[:size], members)
        assert not is_majority(sorted_members[: size - 1], members)


labels = st.builds(
    EpochLabel,
    creator=st.integers(min_value=0, max_value=5),
    sting=st.integers(min_value=0, max_value=30),
    antistings=st.frozensets(st.integers(min_value=0, max_value=30), max_size=6),
)


class TestLabelProperties:
    @given(labels, labels)
    def test_strict_order_is_antisymmetric(self, a, b):
        assert not (label_less_than(a, b) and label_less_than(b, a))

    @given(labels)
    def test_irreflexive(self, a):
        assert not label_less_than(a, a)

    @given(st.lists(labels, min_size=1, max_size=6))
    def test_max_label_is_maximal(self, known):
        chosen = max_label(known)
        assert chosen is not None
        assert not any(label_less_than(chosen, other) for other in known)

    @settings(max_examples=50)
    @given(st.lists(labels, max_size=6), st.integers(min_value=0, max_value=5))
    def test_next_label_dominates_same_creator_labels(self, known, creator):
        fresh = next_label(creator=creator, known=known)
        for label in known:
            if label.creator == creator:
                assert label_less_than(label, fresh)
            assert not label_less_than(fresh, label) or label.creator > creator


# -- the receipt action and label election, against the versions replaced ----
def _reference_max_label(candidates):
    """``max_label`` before it deduplicated: O(k^2) over every copy."""
    candidates = list(candidates)
    if not candidates:
        return None
    maximal = [
        a for a in candidates if not any(label_less_than(a, b) for b in candidates if b != a)
    ]
    return max(maximal, key=lambda lbl: lbl.sort_key())


class _ReferenceLabelStore(LabelStore):
    """``LabelStore`` with the receipt action as it was: the rival scan walks
    every queue (also those holding a single pair), every queue walk copies
    the queue first, and the election runs the quadratic ``max_label``."""

    def receipt_action(self, sent_max, last_sent, sender):
        if sender in self.max_pairs:
            self.max_pairs[sender] = self.clean_pair(sent_max)
        own = self.own_max()
        if (
            last_sent is not None
            and not last_sent.legit
            and own is not None
            and own.ml == last_sent.ml
        ):
            self.max_pairs[self.owner] = last_sent
        if any(
            pair.ml.creator != creator
            for creator, queue in self.stored.items()
            for pair in list(queue._pairs.values())
        ):
            self.empty_all_queues()
        for pair in self.max_pairs.values():
            if pair is None:
                continue
            queue = self.stored.get(pair.ml.creator)
            if queue is None:
                continue
            if queue.get(pair.ml) is None:
                queue.add(pair)
        for creator, queue in self.stored.items():
            pairs = list(reversed(list(queue._pairs.values())))
            for pair in pairs:
                if not pair.legit:
                    continue
                for rival in pairs:
                    if rival.ml == pair.ml:
                        continue
                    if not label_less_than(rival.ml, pair.ml):
                        queue.replace(pair.cancel(rival.ml))
                        break
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
        legit = self.legit_labels()
        if legit:
            self.max_pairs[self.owner] = LabelPair(ml=_reference_max_label(legit), cl=None)
        else:
            self._use_own_label()
        return self.own_max()


def _store_state(store: LabelStore):
    return (
        store.max_pairs,
        # Queue order is behaviour: it decides eviction and rival order.
        {creator: list(queue._pairs.items()) for creator, queue in store.stored.items()},
        store.labels_created,
        store.queue_flushes,
    )


#: A small label space, so that equal labels, same-creator rivals, cancelled
#: pairs and pairs by a creator outside the configuration (9) all collide.
_exchange_labels = st.builds(
    EpochLabel,
    creator=st.sampled_from([1, 2, 3, 9]),
    sting=st.integers(min_value=0, max_value=4),
    antistings=st.frozensets(st.integers(min_value=0, max_value=4), max_size=3),
)
_exchange_pairs = st.one_of(
    st.none(),
    st.builds(LabelPair, ml=_exchange_labels, cl=st.one_of(st.none(), _exchange_labels)),
)
_exchanges = st.lists(
    st.tuples(
        _exchange_pairs,
        _exchange_pairs,
        st.sampled_from([1, 2, 3, 9]),
        # Now and then a transient fault files a pair in member 2's queue,
        # whoever created it (staleInfo() must flush in both versions).
        st.one_of(st.none(), st.none(), st.none(), _exchange_pairs),
    ),
    max_size=25,
)


class TestLabelElectionEquivalence:
    @given(st.lists(labels, max_size=8), st.data())
    def test_max_label_equals_the_quadratic_reference(self, known, data):
        # Steady state is many copies of few labels: repeat some.
        copies = data.draw(st.lists(st.sampled_from(known), max_size=8)) if known else []
        candidates = known + copies
        try:
            expected = _reference_max_label(candidates)
        except ValueError:  # a cycle under the partial order: no maximal element
            with pytest.raises(ValueError):
                max_label(candidates)
            return
        chosen = max_label(candidates)
        assert chosen == expected
        assert chosen is expected  # the same copy, not merely an equal one

    @given(_exchanges)
    def test_receipt_action_equals_the_reference_on_random_exchanges(self, exchanges):
        new = LabelStore(owner=1, members=[1, 2, 3], in_transit_bound=2)
        old = _ReferenceLabelStore(owner=1, members=[1, 2, 3], in_transit_bound=2)
        for sent_max, last_sent, sender, misfiled in exchanges:
            outcomes = []
            for store in (new, old):
                if misfiled is not None:
                    store.stored[2].add(misfiled)
                try:
                    outcomes.append(store.receipt_action(sent_max, last_sent, sender))
                except ValueError:  # an election over a cycle of labels
                    outcomes.append(ValueError)
            assert outcomes[0] == outcomes[1]
            assert _store_state(new) == _store_state(old)


counters = st.builds(
    Counter,
    label=labels,
    seqn=st.integers(min_value=0, max_value=1000),
    wid=st.integers(min_value=0, max_value=10),
)


class TestCounterProperties:
    @given(counters, counters)
    def test_antisymmetric(self, a, b):
        assert not (counter_less_than(a, b) and counter_less_than(b, a))

    @given(counters)
    def test_increment_is_strictly_greater(self, a):
        assert counter_less_than(a, a.next(writer=a.wid))

    @given(counters, st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
    def test_same_seqn_ordered_by_wid(self, a, wid1, wid2):
        c1 = Counter(label=a.label, seqn=a.seqn, wid=wid1)
        c2 = Counter(label=a.label, seqn=a.seqn, wid=wid2)
        if wid1 != wid2:
            assert counter_less_than(c1, c2) or counter_less_than(c2, c1)


class TestEventQueueProperties:
    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=40))
    def test_events_pop_in_time_order(self, times):
        queue = EventQueue()
        for t in times:
            queue.schedule(t, lambda: None)
        popped = []
        while (entry := queue.pop_entry()) is not None:
            popped.append(entry[3].time)
        assert popped == sorted(popped)
        assert len(popped) == len(times)


_times = st.integers(min_value=0, max_value=12).map(float)
_queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _times),
        st.tuples(st.just("timer"), _times),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("pop"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("pickle"), st.just(0)),
    ),
    max_size=40,
)


def _live(queue):
    """Entries in the heap that are not cancelled timers."""
    return sum(1 for _, _, target, item in queue._heap if target is not None or not item.cancelled)


class TestMixedEventQueueModel:
    """Handle-less deliveries and cancellable timers in one heap, checked
    against a plain list of the live ``(time, seq, kind, token)`` entries."""

    @settings(max_examples=150, deadline=None)
    @given(_queue_ops)
    @example([
        ("timer", 3.0),
        ("timer", 1.0),
        ("timer", 1.0),
        ("push", 1.0),               # a delivery tied with two timers
        ("timer", 0.0),
        ("cancel", 1),               # cancel before pop
        ("pop", 2),
        ("cancel", 3),               # cancel after pop
        ("cancel", 3),               # ... twice
        ("pickle", 0),               # round trip mid-stream
        ("timer", 0.0),
        ("timer", 2.0),
        ("cancel", 6),               # cancel before pop
        ("push", 2.0),
        ("pop", 4),
    ])
    def test_mixed_queue_matches_reference_model(self, ops):
        queue = EventQueue()
        handles = []  # every Event ever scheduled, by creation order
        model = []    # live entries: (time, seq, kind, token)
        seq = 0

        def add(time, kind):
            nonlocal seq
            model.append((time, seq, kind, seq))
            seq += 1
            return seq - 1

        for op, arg in ops:
            if op == "push":
                token = add(arg, "delivery")
                queue.push(arg, "channel", token)
            elif op == "timer":
                token = add(arg, "timer")
                handles.append((queue.schedule(arg, list, args=(token,)), token))
            elif op == "cancel" and handles:
                handle, token = handles[arg % len(handles)]
                # Also on a handle already popped.
                queue.cancel(handle)
                model[:] = [entry for entry in model if entry[3] != token]
            elif op == "pop":
                for _ in range(arg):
                    entry = queue.pop_entry()
                    if not model:
                        assert entry is None
                        break
                    expected = min(model)
                    model.remove(expected)
                    time, entry_seq, target, item = entry
                    assert (time, entry_seq) == expected[:2]
                    if expected[2] == "delivery":
                        assert (target, item) == ("channel", expected[3])
                    else:
                        assert target is None and item.args == (expected[3],)
            elif op == "pickle":
                # The handles travel with the queue, as in a snapshot.
                queue, handles = pickle.loads(pickle.dumps((queue, handles)))
            assert _live(queue) == len(model)
            if op == "push":  # elsewhere a cancelled head is left for pop
                assert queue.peek_time() == (min(model)[0] if model else None)
        drained = []
        while (entry := queue.pop_entry()) is not None:
            drained.append(entry[:2])
        assert drained == sorted(entry[:2] for entry in model)
        assert queue.peek_time() is None
