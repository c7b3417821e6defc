"""Change-detected member gossip (``repro.core.gossip.GossipGate``).

recMA, the labeling service and the counter service tell a peer their small
piece of state only when it changed or every ``gossip_refresh_interval``
iterations.  These tests hold the two sides of that trade: an idle member
set is quiet, and nothing the proofs rely on is lost — a dropped message, a
corrupted gate or a corrupted store is repaired within K iterations.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import random

import pytest

from repro.audit.arbitrary_state import apply_plan
from repro.common.codec import frame
from repro.common.types import make_config
from repro.core.gossip import GossipGate
from repro.core.recsa import DEFAULT_GOSSIP_REFRESH_INTERVAL as K
from repro.counters.counter import Counter, CounterPair, counter_less_than
from repro.counters.service import (
    CounterGossipMessage,
    CounterService,
    MaxReadRequest,
    MaxWriteRequest,
)
from repro.labels.label import EpochLabel, LabelPair, next_label
from repro.labels.labeling import LabelMessage
from repro.sim.faults import CorruptionAtom
from repro.sim.stacks import get_stack

from tests.conftest import quick_cluster

GOSSIP = {"labels": LabelMessage, "counters": CounterGossipMessage}


def _one_label(services):
    labels = {svc.store.local_max_label() if svc.store else None for svc in services.values()}
    return len(labels) == 1 and None not in labels


def _settled(n, stack, seed=21):
    cluster = quick_cluster(n, seed=seed, stack=stack)
    services = cluster.services(stack)
    assert cluster.run_until_converged(timeout=800)
    assert cluster.run_until(lambda: _one_label(services), timeout=800)
    cluster.run(until=cluster.simulator.now + 20)
    return cluster, services


def _tap(cluster, services, kind):
    """Record ``(sender, destination, sender's iteration)`` of every *kind*
    message the services send from now on."""
    sent = []
    for pid, svc in services.items():
        def send(destination, message, _pid=pid, _send=svc.send):
            if isinstance(message, kind):
                sent.append((_pid, destination, cluster.nodes[_pid].step_count))
            _send(destination, message)

        svc.send = send
    return sent


class TestGossipGate:
    def test_unchanged_key_goes_out_once_per_refresh(self):
        gate = GossipGate(K)
        assert [gate.due(1, "x") for _ in range(2 * K)] == ([True] + [False] * (K - 1)) * 2

    def test_changed_key_goes_out_at_once(self):
        gate = GossipGate(K)
        assert gate.due(1, "x") and not gate.due(1, "x") and gate.due(1, "y")

    def test_refresh_one_sends_every_time(self):
        gate = GossipGate(1)
        assert all(gate.due(1, "x") for _ in range(5))

    @pytest.mark.parametrize("rounds", [-1, -(10 ** 6), K, 10 ** 6])
    def test_out_of_range_counter_sends_now(self, rounds):
        gate = GossipGate(K)
        gate.due(1, "x")
        gate.rounds[1] = rounds
        assert gate.due(1, "x")

    def test_corrupted_memory_delays_a_send_by_less_than_k(self):
        gate = GossipGate(K)
        gate.sent[1], gate.rounds[1] = "x", 0  # "x" never went out
        assert [gate.due(1, "x") for _ in range(K)] == [False] * (K - 1) + [True]

    def test_retain_drops_departed_peers(self):
        gate = GossipGate(K)
        for pid in (1, 2, 3):
            gate.due(pid, "x")
        gate.retain({1, 2})
        assert set(gate.sent) == set(gate.rounds) == {1, 2}


class TestQuietMembers:
    @pytest.mark.parametrize("stack", ["labels", "counters"])
    def test_idle_members_gossip_once_per_refresh(self, stack):
        """An idle member set sends each peer one service-gossip frame per K
        iterations (n - 1 per iteration before the gate)."""
        n = 5
        cluster, services = _settled(n, stack)
        sent = _tap(cluster, services, GOSSIP[stack])
        before = {pid: node.step_count for pid, node in cluster.nodes.items()}
        cluster.run(until=cluster.simulator.now + 100)
        iterations = sum(node.step_count - before[pid] for pid, node in cluster.nodes.items())
        assert iterations >= n * 90
        assert len(sent) / iterations <= (n - 1) / K + 0.1

    @pytest.mark.parametrize("stack", ["labels", "counters"])
    def test_dropped_message_is_repaired_within_k(self, stack):
        """Member 0 adopts a label and its one message saying so is lost.
        Nothing changes at member 1 in response (there is nobody else to tell
        it), so only the refresh can repair member 1's copy."""
        cluster, services = _settled(2, stack)
        a, b = services[0], services[1]
        current = a.store.local_max_label()
        newer = next_label(current.creator, [current])
        lost = []

        def send(destination, message, _send=a.send):
            if isinstance(message, GOSSIP[stack]) and not lost:
                lost.append(message)
                return
            _send(destination, message)

        a.send = send
        a.store.receipt_action(LabelPair(ml=newer), None, 0)
        assert cluster.run_until(lambda: bool(lost), timeout=5)
        dropped_at = cluster.nodes[0].step_count

        def repaired():
            copy_at_b = b.store.max_pairs[0]
            return copy_at_b is not None and (copy_at_b.ml, copy_at_b.legit) == (newer, True)

        assert not repaired()
        assert cluster.run_until(repaired, timeout=3 * K)
        assert cluster.nodes[0].step_count - dropped_at <= K
        assert cluster.run_until(lambda: _one_label(services), timeout=3 * K)
        assert b.store.local_max_label() == newer


class TestCorruptedGossipState:
    def test_corrupted_gate_and_store_recover(self):
        """Literal atoms on the gate (iteration counts out of range, a
        refresh clock set back, a wrong key) and one member's store (forced
        rebuild, a forged sequence number): every member talks to every
        other within K iterations, increments stay ``≺ct``-increasing and the
        members end with one label."""
        n = 5
        cluster, services = _settled(n, "counters")

        def increment(pid):
            results = []
            services[pid].increment(results.append)
            assert cluster.run_until(lambda: bool(results), timeout=120)
            assert results[0].success
            return results[0].counter

        previous = increment(0)
        label = services[0].local_max_counter().mct.label
        held = services[1].gate.sent[2]
        path = ("service:counters", "gate")
        atoms = [
            CorruptionAtom(kind="entry", pid=0, path=path + ("rounds",), key=1, value=-7),
            CorruptionAtom(kind="entry", pid=0, path=path + ("rounds",), key=2, value=10 ** 6),
            CorruptionAtom(kind="entry", pid=1, path=path + ("sent",), key=2, value=held),
            CorruptionAtom(kind="entry", pid=1, path=path + ("rounds",), key=2, value=0),
            CorruptionAtom(kind="entry", pid=3, path=path + ("sent",), key=4, value=None),
            CorruptionAtom(kind="attr", pid=2, path=("service:counters",), key="_store_members",
                           value=None),
            CorruptionAtom(kind="entry", pid=2, path=("service:counters", "seqns"), key=label,
                           value=(2 ** 20, 4)),
        ]
        sent = _tap(cluster, services, CounterGossipMessage)
        start = {pid: node.step_count for pid, node in cluster.nodes.items()}
        assert apply_plan(cluster, atoms) == {"applied": len(atoms), "skipped": 0}
        cluster.run(until=cluster.simulator.now + 2 * K)

        first = {}
        for source, destination, step in sent:
            first.setdefault((source, destination), step - start[source])
        pairs = {(s, d) for s in range(n) for d in range(n) if s != d}
        assert set(first) == pairs
        assert max(first.values()) <= K

        for pid in (1, 2, 3, 4, 0, 2):
            counter = increment(pid)
            assert counter_less_than(previous, counter)
            previous = counter
        assert cluster.run_until(lambda: _one_label(services), timeout=10 * K)


class _StableScheme:
    """What a member's counter service reads of the scheme: one stable
    configuration."""

    def __init__(self, members):
        self.members = frozenset(members)
        self.recsa = self

    gossip_refresh_interval = K

    def no_reco(self):
        return True

    def configuration(self):
        return self.members


def _random_label(rng, members):
    return EpochLabel(
        creator=rng.choice(members),
        sting=rng.randrange(6),
        antistings=frozenset(rng.sample(range(6), rng.randrange(3))),
    )


def _random_pair(rng, members):
    counter = Counter(_random_label(rng, members), rng.randrange(50), rng.choice(members))
    return CounterPair(counter, counter if rng.random() < 0.2 else None)


def _store_state(store):
    """Every pair the store holds.  Not the queues' recency order: a skipped
    receipt action would only have re-marked the max entries most recently
    used, and the next receipt does that."""
    return (
        dict(store.max_pairs),
        {creator: set(queue) for creator, queue in store.stored.items()},
        store.labels_created,
        store.queue_flushes,
    )


@pytest.mark.parametrize("seed", range(8))
def test_write_of_the_held_label_changes_nothing(seed):
    """Seeded random walk over one member's counter service — gossip with
    arbitrary (also incomparable and canceled) labels, reads that cancel
    exhausted epochs, a canceled copy planted in its own slot, writes — and
    after every write, whether it carries the member's legit maximal label
    (no receipt action) or any other (one receipt action), the store holds
    exactly the pairs the unconditional receipt action leaves."""
    rng = random.Random(seed)
    members = [0, 1, 2, 3]
    service = CounterService(
        0, _StableScheme(members), lambda destination, message: None, seqn_bound=40
    )
    service.on_timer()  # builds the store and elects a first label
    held_writes = 0
    for op_id in range(400):
        sender = rng.choice(members[1:])
        roll = rng.random()
        if roll < 0.5:
            service.on_message(
                sender,
                CounterGossipMessage(
                    sender,
                    _random_pair(rng, members),
                    _random_pair(rng, members) if rng.random() < 0.5 else None,
                ),
            )
            continue
        if roll < 0.6:
            service.on_message(sender, MaxReadRequest(sender, op_id))
            continue
        own = service.store.own_max()
        if roll < 0.65:
            service.store.max_pairs[0] = own.cancel(own.ml)  # a transient fault
            continue
        label = own.ml if roll >= 0.75 else _random_label(rng, members)
        held_writes += own.legit and label == own.ml
        unconditional = copy.deepcopy(service.store)
        unconditional.receipt_action(LabelPair(ml=label), None, 0)
        counter = Counter(label, rng.randrange(50), sender)
        service.on_message(sender, MaxWriteRequest(sender, op_id, counter))
        assert _store_state(service.store) == _store_state(unconditional)
    assert held_writes > 50


def _service_send_digest(stack):
    """sha256 of every send the member services make, in send order —
    ``(now, sender, destination)`` and the framed message — then of every
    increment outcome, over n = 5: 30 increments (or, on the labels stack,
    30 periods) 7 su apart and a reconfiguration to ``{0, 1, 2, 3}`` after
    the 13th.  Operation ids come from a process-wide counter, so each is
    replaced by its first-appearance rank before framing."""
    cluster = quick_cluster(5, seed=29, stack=stack)
    services = cluster.services(stack.name)
    digest = hashlib.sha256()
    ranks = {}
    for pid, svc in services.items():
        def send(destination, message, _pid=pid, _send=svc.send):
            if hasattr(message, "op_id"):
                rank = ranks.setdefault(message.op_id, len(ranks))
                message_bytes = frame(dataclasses.replace(message, op_id=rank))
            else:
                message_bytes = frame(message)
            digest.update(repr((cluster.simulator.now, _pid, destination)).encode())
            digest.update(message_bytes)
            _send(destination, message)

        svc.send = send
    outcomes = []
    for step in range(30):
        if hasattr(services[0], "increment"):
            services[step % 5].increment(outcomes.append)
        cluster.run(until=cluster.simulator.now + 7)
        if step == 12:
            assert cluster.nodes[0].scheme.request_reconfiguration(make_config([0, 1, 2, 3]))
    for outcome in outcomes:
        digest.update(repr((outcome.success, outcome.aborted)).encode())
        digest.update(frame(outcome.counter))
    assert cluster.agreed_configuration() == make_config([0, 1, 2, 3])
    return digest.hexdigest(), [outcome.success for outcome in outcomes]


@pytest.mark.parametrize(
    "stack, expected",
    [
        (get_stack("labels"), "88c4958174df4dda11e655f410e501234c2c6e1b15578f9b6a55f9464fc724fb"),
        (get_stack("counters"), "905571271af7e4df93625470b16d3aaf0115f57db17a9d17868dd3f26282b1b7"),
        (
            get_stack("counters", seqn_bound=4),
            "0a7a6a33e641b213cf841c03f84ca80196c0fc521bfaec7ba07fc4bdc4a89c88",
        ),
    ],
    ids=["labels", "counters", "counters-exhausted"],
)
def test_service_send_trajectory_pin(stack, expected):
    """The service layer's trajectory: every gossip, read, write and reply
    with its time and content, and every increment outcome.  It moves only
    when a service sends something else or at another time, and then the
    change says why."""
    hexdigest, successes = _service_send_digest(stack)
    # The window holds the reconfiguration's aborts (the first increment
    # also starts before bootstrap has finished).
    aborted = [step for step, success in enumerate(successes) if not success]
    assert aborted == ([0, 13, 14] if successes else [])
    assert hexdigest == expected
