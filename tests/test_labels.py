"""Tests for the bounded labeling scheme (labels, store, service)."""

from __future__ import annotations

import pytest

from repro.common.types import make_config
from repro.labels.label import (
    EpochLabel,
    LabelPair,
    label_less_than,
    max_label,
    next_label,
)
from repro.labels.store import BoundedLabelQueue, LabelStore

from tests.conftest import quick_cluster


def _label(creator=1, sting=0, antistings=()):
    return EpochLabel(creator=creator, sting=sting, antistings=frozenset(antistings))


class TestLabelOrdering:
    def test_creator_order_dominates(self):
        assert label_less_than(_label(creator=1), _label(creator=2))
        assert not label_less_than(_label(creator=2), _label(creator=1))

    def test_same_creator_sting_antisting_rule(self):
        a = _label(creator=1, sting=1, antistings=[5])
        b = _label(creator=1, sting=2, antistings=[1])
        assert label_less_than(a, b)
        assert not label_less_than(b, a)

    def test_same_creator_incomparable(self):
        a = _label(creator=1, sting=1, antistings=[3])
        b = _label(creator=1, sting=2, antistings=[4])
        # Neither label dominates the other under ≺lb.
        assert a != b and not label_less_than(a, b) and not label_less_than(b, a)

    def test_equal_labels_not_less(self):
        a = _label(creator=1, sting=1, antistings=[2])
        assert not label_less_than(a, a)

    def test_max_label_prefers_dominant(self):
        a = _label(creator=1, sting=1, antistings=[5])
        b = _label(creator=1, sting=2, antistings=[1])
        assert max_label([a, b]) == b

    def test_max_label_empty(self):
        assert max_label([]) is None

    def test_next_label_dominates_known(self):
        known = [
            _label(creator=3, sting=1, antistings=[7]),
            _label(creator=3, sting=4, antistings=[1, 2]),
        ]
        fresh = next_label(creator=3, known=known)
        assert all(label_less_than(lbl, fresh) for lbl in known)

    def test_next_label_domain_exhaustion(self):
        known = [_label(creator=1, sting=s, antistings=[(s + 1) % 3]) for s in range(3)]
        with pytest.raises(ValueError):
            next_label(creator=1, known=known, domain_size=3, antisting_capacity=3)


class TestBoundedLabelQueue:
    def test_eviction_of_least_recently_used(self):
        queue = BoundedLabelQueue(capacity=2)
        pairs = [LabelPair(ml=_label(sting=s)) for s in range(3)]
        for pair in pairs:
            queue.add(pair)
        assert len(queue) == 2
        assert queue.get(pairs[0].ml) is None

    def test_canceled_copy_wins(self):
        queue = BoundedLabelQueue(capacity=4)
        label = _label(sting=1)
        queue.add(LabelPair(ml=label))
        queue.add(LabelPair(ml=label, cl=label))
        stored = queue.get(label)
        assert stored is not None and not stored.legit

    def test_replace_overwrites(self):
        queue = BoundedLabelQueue(capacity=4)
        label = _label(sting=1)
        queue.add(LabelPair(ml=label, cl=label))
        queue.replace(LabelPair(ml=label))
        assert queue.get(label).legit


class TestLabelStore:
    def test_owner_creates_label_when_none_known(self):
        store = LabelStore(owner=1, members=[1, 2, 3])
        result = store.receipt_action(None, None, sender=1)
        assert result is not None and result.legit
        assert store.labels_created == 1

    def test_adopts_globally_maximal_label(self):
        store = LabelStore(owner=1, members=[1, 2, 3])
        store.receipt_action(None, None, sender=1)
        remote = LabelPair(ml=_label(creator=3, sting=5))
        result = store.receipt_action(remote, None, sender=3)
        assert result.ml.creator == 3

    def test_cancellation_adopted_from_peer(self):
        store = LabelStore(owner=1, members=[1, 2])
        own = store.receipt_action(None, None, sender=1)
        canceled = LabelPair(ml=own.ml, cl=_label(creator=2, sting=9))
        result = store.receipt_action(None, canceled, sender=2)
        # The owner learns its maximal label was canceled and elects another.
        assert result.ml != own.ml or result.legit

    def test_non_member_labels_cleaned(self):
        store = LabelStore(owner=1, members=[1, 2])
        foreign = LabelPair(ml=_label(creator=99, sting=1))
        assert store.clean_pair(foreign) is None

    def test_incomparable_same_creator_labels_cancel(self):
        store = LabelStore(owner=1, members=[1, 2])
        a = LabelPair(ml=_label(creator=2, sting=1, antistings=[5]))
        b = LabelPair(ml=_label(creator=2, sting=2, antistings=[6]))
        store.receipt_action(a, None, sender=2)
        store.receipt_action(b, None, sender=2)
        queue = store.stored[2]
        legits = [pair for pair in queue if pair.legit]
        assert len(legits) <= 1

    def test_storage_is_bounded(self):
        store = LabelStore(owner=1, members=[1, 2, 3], in_transit_bound=4)
        for sting in range(200):
            pair = LabelPair(ml=_label(creator=2, sting=sting, antistings=[sting + 1]))
            store.receipt_action(pair, None, sender=2)
        v = len(store.members)
        member_bound = v + store.in_transit_bound
        owner_bound = v * (v * v + store.in_transit_bound) + v
        assert len(store.stored[2]) <= member_bound
        assert len(store.stored[1]) <= owner_bound

    def test_rebuild_drops_departed_members(self):
        store = LabelStore(owner=1, members=[1, 2, 3])
        store.receipt_action(LabelPair(ml=_label(creator=3, sting=2)), None, sender=3)
        store.rebuild([1, 2])
        store.clean_non_member_labels()
        assert 3 not in store.stored
        assert all(
            pair is None or pair.ml.creator != 3 for pair in store.max_pairs.values()
        )

    def test_stale_misfiled_label_flushes_queues(self):
        store = LabelStore(owner=1, members=[1, 2])
        store.receipt_action(LabelPair(ml=_label(creator=2, sting=1)), None, sender=2)
        # Misfile a label under the wrong creator's queue (transient fault).
        store.stored[1].add(LabelPair(ml=_label(creator=2, sting=7)))
        flushes_before = store.queue_flushes
        store.receipt_action(None, None, sender=1)
        assert store.queue_flushes == flushes_before + 1


class TestLabelingServiceCluster:
    def _with_labels(self, n, seed):
        cluster = quick_cluster(n, seed=seed, stack="labels")
        services = cluster.services("labels")
        return cluster, services

    def test_members_converge_to_single_maximal_label(self):
        cluster, services = self._with_labels(4, seed=51)
        assert cluster.run_until_converged(timeout=800)
        assert cluster.run_until(
            lambda: len(
                {
                    svc.max_label()
                    for svc in services.values()
                    if svc.max_label() is not None
                }
            )
            == 1
            and all(svc.max_label() is not None for svc in services.values()),
            timeout=2000,
        )

    def test_labels_rebuilt_after_reconfiguration(self):
        cluster, services = self._with_labels(4, seed=52)
        assert cluster.run_until_converged(timeout=800)
        cluster.run(until=cluster.simulator.now + 50)
        target = make_config([0, 1, 2])
        assert cluster.nodes[0].scheme.request_reconfiguration(target)
        assert cluster.run_until(
            lambda: cluster.agreed_configuration() == target and cluster.is_converged(),
            timeout=2500,
        )
        assert cluster.run_until(
            lambda: all(
                services[pid].rebuild_count >= 2 for pid in target
            ),
            timeout=2000,
        )
        # Departed member 3 no longer participates in labeling.
        cluster.run(until=cluster.simulator.now + 60)
        labels = {services[pid].max_label() for pid in target}
        assert len(labels) == 1

    def test_corrupted_label_state_recovers(self):
        cluster, services = self._with_labels(3, seed=53)
        assert cluster.run_until_converged(timeout=800)
        cluster.run(until=cluster.simulator.now + 40)
        svc = services[0]
        assert svc.store is not None
        # Fabricate a canceled garbage maximum (transient fault).
        garbage = _label(creator=0, sting=13, antistings=[1, 2, 3])
        svc.store.max_pairs[0] = LabelPair(ml=garbage, cl=garbage)
        assert cluster.run_until(
            lambda: all(
                s.max_label() is not None for s in services.values()
            )
            and len({s.max_label() for s in services.values()}) == 1,
            timeout=2000,
        )
