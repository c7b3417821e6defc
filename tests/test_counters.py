"""Tests for the counter scheme (Algorithms 4.3 / 4.4 / 4.5)."""

from __future__ import annotations

import pytest

from repro.counters.counter import Counter, CounterPair, counter_less_than, max_counter
from repro.counters.service import MaxReadRequest, MaxWriteRequest
from repro.labels.label import EpochLabel
from repro.sim.stacks import stack

from tests.conftest import quick_cluster


def _label(creator=1, sting=0, antistings=()):
    return EpochLabel(creator=creator, sting=sting, antistings=frozenset(antistings))


class TestCounterOrdering:
    def test_order_by_label_first(self):
        small = Counter(label=_label(creator=1), seqn=100, wid=5)
        big = Counter(label=_label(creator=2), seqn=1, wid=1)
        assert counter_less_than(small, big)

    def test_order_by_seqn_within_label(self):
        label = _label(creator=1)
        assert counter_less_than(Counter(label, 1, 9), Counter(label, 2, 1))

    def test_order_by_wid_breaks_ties(self):
        label = _label(creator=1)
        assert counter_less_than(Counter(label, 5, 1), Counter(label, 5, 2))

    def test_max_counter(self):
        label = _label(creator=1)
        counters = [Counter(label, 1, 1), Counter(label, 3, 2), Counter(label, 3, 1)]
        assert max_counter(counters) == Counter(label, 3, 2)

    def test_exhaustion(self):
        label = _label(creator=1)
        assert Counter(label, 2 ** 64, 1).is_exhausted()
        assert not Counter(label, 5, 1).is_exhausted()
        assert Counter(label, 10, 1).is_exhausted(bound=10)

    def test_next_preserves_label(self):
        counter = Counter(_label(creator=1), 4, 1)
        incremented = counter.next(writer=7)
        assert incremented.seqn == 5
        assert incremented.wid == 7
        assert incremented.label == counter.label

    def test_counter_pair_cancel(self):
        pair = CounterPair(mct=Counter(_label(), 1, 1))
        assert pair.legit
        canceled = pair.cancel()
        assert not canceled.legit
        assert canceled.cancel() is canceled


class _ClusterWithCounters:
    def __init__(self, n, seed, seqn_bound=2 ** 64):
        self.cluster = quick_cluster(
            n, seed=seed, stack=stack("counters", seqn_bound=seqn_bound)
        )
        self.services = {
            pid: node.service("counters") for pid, node in self.cluster.nodes.items()
        }
        assert self.cluster.run_until_converged(timeout=800)
        self.cluster.run(until=self.cluster.simulator.now + 40)

    def increment(self, pid, timeout=120.0):
        results = []
        self.services[pid].increment(results.append)
        self.cluster.run_until(lambda: bool(results), timeout=timeout)
        return results[0] if results else None


class TestCounterService:
    def test_single_increment_succeeds(self):
        env = _ClusterWithCounters(4, seed=61)
        outcome = env.increment(0)
        assert outcome is not None and outcome.success
        assert outcome.counter.seqn >= 1

    def test_sequential_increments_are_monotonic(self):
        """E7, Theorem 4.6: completed increments return strictly increasing
        counters, whichever participant asks."""
        env = _ClusterWithCounters(4, seed=62)
        previous = None
        for pid in (0, 1, 2, 0, 3):
            outcome = env.increment(pid)
            assert outcome is not None and outcome.success
            if previous is not None:
                assert counter_less_than(previous, outcome.counter)
            previous = outcome.counter

    def test_concurrent_increments_are_ordered_by_wid(self):
        env = _ClusterWithCounters(4, seed=63)
        results = []
        env.services[0].increment(results.append)
        env.services[2].increment(results.append)
        env.cluster.run_until(lambda: len(results) == 2, timeout=150)
        assert all(outcome.success for outcome in results)
        a, b = (outcome.counter for outcome in results)
        assert counter_less_than(a, b) or counter_less_than(b, a)

    def test_increment_aborted_during_reconfiguration(self):
        env = _ClusterWithCounters(4, seed=64)
        node = env.cluster.nodes[0]
        assert node.scheme.request_reconfiguration(frozenset([0, 1, 2]))
        results = []
        env.services[0].increment(results.append)
        assert results and not results[0].success and results[0].aborted

    def test_exhaustion_rolls_over_to_new_label(self):
        """E7, Theorem 4.6 across an epoch: an exhausted ``seqn`` rolls over
        to a fresh label (Theorem 4.4) and increments keep completing.  Strict
        order across the rollover holds only once the new maximal label is
        agreed, so it is asserted within one epoch, above."""
        env = _ClusterWithCounters(3, seed=65, seqn_bound=3)
        labels_seen = set()
        for round_index in range(6):
            outcome = env.increment(round_index % 3)
            assert outcome is not None and outcome.success
            labels_seen.add(outcome.counter.label)
            assert outcome.counter.seqn <= 3
        assert len(labels_seen) >= 2
        assert any(svc.exhaustion_rollovers > 0 for svc in env.services.values())

    def test_non_member_participant_can_increment(self):
        env = _ClusterWithCounters(3, seed=66)
        # The joiner instantiates the cluster's stack profile itself.
        joiner = env.cluster.add_joiner(42)
        env.services[42] = joiner.service("counters")
        assert env.cluster.run_until(
            lambda: joiner.scheme.is_participant(), timeout=2500
        )
        env.cluster.run(until=env.cluster.simulator.now + 30)
        outcome = env.increment(42)
        assert outcome is not None and outcome.success
        assert outcome.counter.wid == 42

    def test_counter_survives_member_crash(self):
        env = _ClusterWithCounters(5, seed=67)
        first = env.increment(0)
        assert first is not None and first.success
        env.cluster.crash(4)
        env.cluster.run(until=env.cluster.simulator.now + 50)
        second = env.increment(1)
        assert second is not None and second.success
        assert counter_less_than(first.counter, second.counter)

    def test_one_request_object_per_phase(self):
        """Every member of a read phase, and of a write phase, is sent the
        same request object: the live transport encodes it once."""
        env = _ClusterWithCounters(4, seed=69)
        service = env.services[0]
        sent = []
        forward = service.send

        def capture(member, message):
            sent.append((member, message))
            forward(member, message)

        service.send = capture
        outcome = env.increment(0)
        assert outcome is not None and outcome.success
        others = set(env.cluster.agreed_configuration()) - {0}
        for kind in (MaxReadRequest, MaxWriteRequest):
            requests = [(member, message) for member, message in sent if isinstance(message, kind)]
            assert {member for member, _ in requests} == others
            assert all(message is requests[0][1] for _, message in requests)

    def test_members_converge_on_max_counter(self):
        env = _ClusterWithCounters(3, seed=68)
        outcome = env.increment(0)
        assert outcome is not None and outcome.success
        env.cluster.run(until=env.cluster.simulator.now + 80)
        for pid in env.cluster.agreed_configuration():
            local = env.services[pid].local_max_counter()
            assert local is not None
            assert not counter_less_than(local.mct, outcome.counter) or local.mct == outcome.counter
