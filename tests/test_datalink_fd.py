"""Tests for the data-link layer and the (N, Theta)-failure detector."""

from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.common.codec import frame, unframe
from repro.datalink.heartbeat import HeartbeatService
from repro.datalink.token_exchange import (
    MAX_LINK_SEQ,
    DataLinkMessage,
    LinkEndpoint,
    LinkState,
)
from repro.failure_detector.ntheta import NThetaFailureDetector
from repro.node.config import paper_faithful
from repro.sim.cluster import build_cluster

from tests.conftest import quick_cluster


def _wire(a: LinkEndpoint, b: LinkEndpoint, rounds: int = 50):
    """Run *rounds* of synchronous exchange between two endpoints; return the
    number of heartbeats each endpoint observed."""
    beats_a = beats_b = 0
    for _ in range(rounds):
        for msg in a.on_timer():
            replies, heartbeat = b.on_packet(msg)
            beats_b += heartbeat
            for reply in replies:
                beats_a += a.on_packet(reply)[1]
        for msg in b.on_timer():
            replies, heartbeat = a.on_packet(msg)
            beats_a += heartbeat
            for reply in replies:
                beats_b += b.on_packet(reply)[1]
    return beats_a, beats_b


class TestTokenExchangeLink:
    """The sender role of :class:`LinkEndpoint`: the token exchange proper."""

    def test_round_trip_requires_capacity_plus_one_acks(self):
        link = LinkEndpoint(local=1, remote=2, capacity=3, require_cleaning=False)
        (msg,) = link.on_timer()
        for _ in range(3):
            assert not link.on_ack(msg.seq)
        assert link.on_ack(msg.seq)
        assert (link.seq, link.ack_count) == (1, 0)
        (token,) = link.on_timer()
        assert (token.kind, token.link_sender, token.seq) == ("data", 1, 1)

    def test_stale_ack_ignored(self):
        link = LinkEndpoint(local=1, remote=2, capacity=1, require_cleaning=False)
        assert not link.on_ack(999)
        assert link.ack_count == 0


class TestLinkEndpoint:
    def test_cleaning_completes_then_delivers(self):
        """After the handshake each side's token goes round: more than
        ``capacity`` acks flip its sequence number."""
        a = LinkEndpoint(1, 2, capacity=2, require_cleaning=True)
        b = LinkEndpoint(2, 1, capacity=2, require_cleaning=True)
        beats_a, beats_b = _wire(a, b, rounds=30)
        assert a.is_established()
        assert b.is_established()
        assert a.seq != 0 and b.seq != 0
        assert beats_a > 0 and beats_b > 0

    def test_packets_during_cleaning_not_delivered(self):
        """A token that arrives during cleaning is acked and counts as a
        heartbeat, but leaves the cleaning endpoint's state alone."""
        b = LinkEndpoint(2, 1, capacity=2, require_cleaning=True)
        data = DataLinkMessage(kind="data", link_sender=1, seq=0)
        replies, heartbeat = b.on_packet(data)
        assert replies == [DataLinkMessage(kind="ack", link_sender=2, seq=0)]
        assert heartbeat
        assert b.state is LinkState.CLEANING
        assert (b.seq, b.ack_count, b.clean_ack_count) == (0, 0, 0)

    def test_cleaning_nonces_stay_in_the_accepted_range(self, monkeypatch):
        """A process that has built ≈ 214 748 endpoints drew nonces of 2^31
        and up, which every peer quarantined: a link needing cleaning never
        established and the cluster never converged.  Below the wrap the
        nonce is unchanged, so every trajectory pin holds."""
        monkeypatch.setattr(LinkEndpoint, "_nonce_counter", itertools.count(214_748))
        def nonce():
            return LinkEndpoint(3, 4, capacity=1, require_cleaning=True).clean_nonce

        assert nonce() == 214_748 * 10_000 + 3
        assert 214_749 * 10_000 + 3 >= MAX_LINK_SEQ
        assert 0 <= nonce() < MAX_LINK_SEQ

        monkeypatch.setattr(LinkEndpoint, "_nonce_counter", itertools.count(214_800))
        cluster = build_cluster(4, 3, config=paper_faithful())
        assert cluster.run_until_converged(timeout=300)
        assert sum(node.heartbeat.quarantined for node in cluster.nodes.values()) == 0


class TestHeartbeatService:
    def _pair(self, require_cleaning=False, on_heartbeat=None):
        wires = {}
        beats = on_heartbeat or (lambda peer: None)

        def send_a(dest, payload):
            wires.setdefault(dest, []).append((1, payload))

        def send_b(dest, payload):
            wires.setdefault(dest, []).append((2, payload))

        svc_a = HeartbeatService(
            1, send_a, beats, channel_capacity=2, require_cleaning=require_cleaning,
            idle_resend_interval=1,
        )
        svc_b = HeartbeatService(
            2, send_b, lambda peer: None, channel_capacity=2, require_cleaning=require_cleaning,
            idle_resend_interval=1,
        )
        svc_a.add_peer(2)
        svc_b.add_peer(1)
        return svc_a, svc_b, wires

    def _pump(self, svc_a, svc_b, wires, rounds=20):
        for _ in range(rounds):
            svc_a.on_timer()
            svc_b.on_timer()
            for dest, queued in list(wires.items()):
                wires[dest] = []
                for sender, payload in queued:
                    target = svc_a if dest == 1 else svc_b
                    target.on_packet(sender, payload)

    def test_heartbeats_reach_listener(self):
        beats = []
        svc_a, svc_b, wires = self._pair(on_heartbeat=beats.append)
        self._pump(svc_a, svc_b, wires)
        assert beats.count(2) > 0

    def test_cleaning_eventually_establishes(self):
        svc_a, svc_b, wires = self._pair(require_cleaning=True)
        self._pump(svc_a, svc_b, wires, rounds=30)
        assert svc_a.links[2].is_established()
        assert svc_b.links[1].is_established()

    def test_rejects_self_peer(self):
        svc_a, _, _ = self._pair()
        with pytest.raises(ValueError):
            svc_a.add_peer(1)

    def test_packet_from_own_pid_is_quarantined(self):
        """No process keeps a link to itself, so a packet claiming the
        receiver's pid as its source (a forged datagram header) is dropped
        and counted; it used to raise out of ``add_peer`` and end the run."""
        cluster = quick_cluster(4, seed=3)
        assert cluster.run_until_converged(timeout=800)
        node = cluster.nodes[0]
        node.on_receive(0, DataLinkMessage("data", 0, 0))
        assert node.heartbeat.quarantined == 1
        assert 0 not in node.heartbeat.links
        cluster.run(until=cluster.simulator.now + 10.0)
        assert cluster.is_converged()

    def test_mislabelled_packet_ignored(self):
        beats = []
        svc_a, _, _ = self._pair(on_heartbeat=beats.append)
        bogus = DataLinkMessage(kind="data", link_sender=77, seq=0)
        svc_a.on_packet(2, bogus)
        assert beats == []

    def test_unhashable_kind_is_quarantined(self):
        """A forged frame may decode to any value in ``kind``; an unhashable
        one raised ``TypeError`` out of the kind check instead of being
        counted and dropped."""
        forged, _ = unframe(frame(DataLinkMessage(kind=["data"], link_sender=1, seq=0)))
        beats = []
        svc_b = HeartbeatService(
            2, lambda dest, payload: None, beats.append,
            channel_capacity=8, require_cleaning=True, idle_resend_interval=1,
        )
        svc_b.on_packet(1, forged)
        assert svc_b.quarantined == 1
        assert beats == [] and 1 not in svc_b.links

    def test_idle_resend_interval_throttles_established_tokens_only(self):
        """With interval 3, an established link sends its token on every
        third iteration (the first one included); a cleaning link sends its
        probe on every iteration."""
        for require_cleaning, expected in ((False, [1, 4, 7]), (True, list(range(1, 10)))):
            sent = []
            svc = HeartbeatService(
                1,
                lambda dest, payload: sent.append((iteration, payload.kind)),
                lambda peer: None,
                channel_capacity=8,
                require_cleaning=require_cleaning,
                idle_resend_interval=3,
            )
            svc.add_peer(2)
            for iteration in range(1, 10):
                svc.on_timer()
            kind = "clean" if require_cleaning else "data"
            assert sent == [(i, kind) for i in expected]


class TestNThetaFailureDetector:
    def test_initially_trusts_only_self(self):
        fd = NThetaFailureDetector(pid=1, upper_bound_n=10)
        assert fd.trusted() == frozenset({1})

    def test_trusts_heartbeating_peers(self):
        fd = NThetaFailureDetector(pid=1, upper_bound_n=10)
        for _ in range(5):
            for peer in (2, 3, 4):
                fd.heartbeat(peer)
        assert fd.trusted() == frozenset({1, 2, 3, 4})
        assert set(fd.counts) <= fd.trusted()

    def test_crashed_peer_eventually_suspected(self):
        """E10, the detector's rule on its own: a silent peer falls behind the
        gap and is suspected, the heartbeating ones stay trusted (the cluster
        half is ``test_claims.py::test_failure_detector_suspects_exactly_the_crashed``)."""
        fd = NThetaFailureDetector(pid=1, upper_bound_n=10, gap_slack=4)
        fd.GAP_FACTOR = 2.0
        for _ in range(5):
            for peer in (2, 3, 4):
                fd.heartbeat(peer)
        # Peer 4 stops heartbeating; 2 and 3 continue.
        for _ in range(200):
            fd.heartbeat(2)
            fd.heartbeat(3)
        assert 4 in fd.counts and 4 not in fd.trusted()
        assert fd.trusted() == frozenset({1, 2, 3})

    def test_own_heartbeat_ignored(self):
        fd = NThetaFailureDetector(pid=1, upper_bound_n=10)
        fd.heartbeat(1)
        assert fd.heartbeats_received == 0

    def test_counts_update_rule(self):
        fd = NThetaFailureDetector(pid=1, upper_bound_n=10)
        fd.heartbeat(2)
        fd.heartbeat(3)
        counts = dict(fd.counts)
        assert counts[3] == 0
        assert counts[2] == 1

    def test_estimate_active_caps_at_upper_bound(self):
        fd = NThetaFailureDetector(pid=1, upper_bound_n=3)
        for _ in range(3):
            for peer in (2, 3, 4, 5, 6):
                fd.heartbeat(peer)
        assert estimate_active(fd) <= 3
        assert len(fd.trusted()) <= 3


def ranked(fd: NThetaFailureDetector):
    """Processors ordered by recency of communication (best first), ties
    broken by identifier."""
    return sorted(fd.counts.items(), key=lambda item: (item[1], item[0]))


def estimate_active(fd: NThetaFailureDetector) -> int:
    """Gap-based estimate ``ni`` of the number of active processors.

    Walks the ranked vector and stops at the first entry whose count is
    "far" above the counts seen so far (the ever-expanding gap of a crashed
    processor); the number of entries before the gap — plus one for the
    owner — capped at ``N`` is the estimate.
    """
    active = 0
    reference = 0.0
    for index, (_, count) in enumerate(ranked(fd)):
        if index == 0:
            reference = float(count)
        if count > fd.GAP_FACTOR * max(reference, 1.0) + fd.gap_slack:
            break
        active += 1
        # Reference tracks the running mean of accepted counts so the gap
        # grows with the crashed processor's count, not with noise.
        reference = (reference * index + count) / (index + 1)
    return min(active + 1, fd.upper_bound_n)


def _two_walk_trusted(fd: NThetaFailureDetector) -> frozenset:
    """The reference ``_compute_trusted`` replaced: rank, walk once for the
    estimate (``estimate_active``), walk again for the admitted prefix."""
    ranked_counts = ranked(fd)
    limit = estimate_active(fd)
    trusted = {fd.pid}
    reference = None
    for index, (pid, count) in enumerate(ranked_counts):
        if len(trusted) >= min(limit, fd.upper_bound_n):
            break
        if reference is None:
            reference = float(count)
        threshold = fd.GAP_FACTOR * max(reference, 1.0) + fd.gap_slack
        if count > threshold:
            break
        trusted.add(pid)
        reference = (reference * index + count) / (index + 1)
    return frozenset(trusted)


#: Peers of owner 1 whose hashes collide in a small set's table (1, 9, 17 and
#: 2, 10 share slots mod 8), so a set's iteration order is its build order.
_PEERS = st.sampled_from([1, 2, 3, 9, 10, 17])


class TestOnePassTrusted:
    """``_compute_trusted`` is one sort and one walk; the two-walk version it
    replaced is kept here as the reference."""

    @given(
        counts=st.dictionaries(
            # Includes the owner's own pid (1): a corrupted vector may hold it.
            st.integers(min_value=0, max_value=12),
            # Small range for ties, negatives for corrupted counts, large
            # values for gaps.
            st.one_of(
                st.integers(min_value=-40, max_value=40),
                st.integers(min_value=-10_000, max_value=10_000),
            ),
            max_size=12,
        ),
        shift=st.integers(min_value=-500, max_value=500),
        upper_bound_n=st.integers(min_value=0, max_value=14),
        gap_factor=st.sampled_from([1.0, 2.0, 4.0]),
        gap_slack=st.sampled_from([0, 4, 16, 256]),
    )
    def test_equals_the_two_walk_reference(
        self, counts, shift, upper_bound_n, gap_factor, gap_slack
    ):
        fd = NThetaFailureDetector(pid=1, upper_bound_n=upper_bound_n, gap_slack=gap_slack)
        fd.GAP_FACTOR = gap_factor
        fd._shift = shift
        for pid, count in counts.items():
            fd.counts[pid] = count
        assert dict(fd.counts) == counts
        expected = _two_walk_trusted(fd)
        assert fd._compute_trusted() == expected
        fd._counts_version += 1
        assert fd.trusted() == expected

    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("beat"), _PEERS),
                # A run from one sender: the inflation clamp.
                st.tuples(st.just("run"), _PEERS, st.integers(min_value=2, max_value=9)),
                # Counts below zero and ties with a fresh sender break the order.
                st.tuples(st.just("write"), _PEERS, st.integers(min_value=-3, max_value=40)),
                st.tuples(st.just("delete"), _PEERS),
                st.tuples(st.just("uncache")),
                st.tuples(st.just("pickle")),
            ),
            min_size=1,
            max_size=60,
        ),
        upper_bound_n=st.integers(min_value=1, max_value=8),
    )
    def test_heartbeat_sequences_equal_the_reference_and_keep_the_object(
        self, steps, upper_bound_n
    ):
        """The kept order never shows: every recomputation equals the
        reference, whatever moved the vector in between."""
        fd = NThetaFailureDetector(pid=1, upper_bound_n=upper_bound_n, gap_slack=2)
        fd.GAP_FACTOR = 2.0
        previous = fd.trusted()
        for step in steps:
            kind = step[0]
            if kind == "beat":
                fd.heartbeat(step[1])
            elif kind == "run":
                for _ in range(step[2]):
                    fd.heartbeat(step[1])
            elif kind == "write":
                fd.counts[step[1]] = step[2]
            elif kind == "delete":
                fd.counts.pop(step[1], None)
            elif kind == "uncache":
                fd._trusted_cache_version = -1  # the corruption plan's atom
            else:
                fd = pickle.loads(pickle.dumps(fd))
                previous = fd._trusted_cache
            # A written count is seen at the next vector update, as always.
            due = fd._trusted_cache_version != fd._counts_version
            current = fd.trusted()
            if due:
                reference = _two_walk_trusted(fd)
                assert current == reference
                if current is not previous:
                    # Built like the reference, so it iterates alike: the
                    # broadcast's send order follows a small set's order.
                    assert list(current) == list(reference)
            # Same set => the very same frozenset object, so memo keys and
            # comparisons downstream hit identity.
            assert (current is previous) == (current == previous)
            previous = current

    def test_unchanged_set_is_the_identical_object(self):
        fd = NThetaFailureDetector(pid=1, upper_bound_n=10)
        for _ in range(3):
            for peer in (2, 3, 4):
                fd.heartbeat(peer)
        held = fd.trusted()
        for _ in range(10):
            for peer in (2, 3, 4):
                version = fd._counts_version
                fd.heartbeat(peer)
                assert fd._counts_version > version  # the vector did move
                assert fd.trusted() is held
        # Pitfall this guards: ``frozenset.__eq__`` has no identity shortcut
        # (``a == a`` walks the set), so callers compare ``a is b or a == b``
        # and the detector makes the first half hit.
