"""Unit and edge-case tests for the reliable-broadcast datalink layer.

Pins the protocol-level guarantees of :mod:`repro.datalink.reliable_broadcast`
that the audit matrix exercises only statistically: duplicate/replayed echo
suppression, echo-before-SEND progress, the exact ``f = ⌊(n-1)/3⌋`` resilience
boundary at ``n = 4``, inbound validation (malformed packets are quarantined,
never raised), Dolev path hygiene, the naive baseline's first-writer-wins
behaviour, and byte-identical snapshot/restore mid-broadcast.
"""

from __future__ import annotations

import copy

import pytest

from repro.analysis import probes
from repro.node.config import ClusterConfig
from repro.node.node import boot
from repro.datalink.reliable_broadcast import (
    MAX_PATH_LEN,
    MAX_RB_SEQ,
    MAX_TRACKED_MESSAGES,
    BrachaBroadcastService,
    DolevBroadcastService,
    NaiveBroadcastService,
    RBMessage,
    make_rb_service,
    validate_rb_message,
)
from repro.scenarios import ScenarioSpec, drive, finalize, prepare, run_scenario
from repro.scenarios.workloads import RBBroadcastWorkload
from repro.sim.snapshot import SimSnapshot


def rb_node(variant: str, n: int):
    """Node 0 of an *n*-node ``rb_<variant>`` stack, never started: what
    its ``on_receive`` hands the reliable-broadcast service."""
    _, nodes = boot(n, ClusterConfig(), stack=f"rb_{variant}")
    return nodes[0]


class SyncNet:
    """Synchronous in-memory fan-out for unit-testing RB services.

    Messages queue globally; :meth:`run` delivers them in rounds until
    quiescence.  ``silent`` pids model crashed-or-silent traitors: all their
    inbound and outbound traffic is dropped.
    """

    def __init__(self, variant: str, n: int, silent=()):
        self.queue = []
        self.silent = set(silent)
        pids = tuple(range(n))
        self.services = {
            pid: make_rb_service(
                variant,
                pid,
                tuple(p for p in pids if p != pid),
                self._sender(pid),
            )
            for pid in pids
        }

    def _sender(self, pid):
        def _send(destination, message):
            self.queue.append((pid, destination, message))

        return _send

    def run(self, rounds: int = 60) -> None:
        for _ in range(rounds):
            if not self.queue:
                return
            pending, self.queue = self.queue, []
            for src, dst, message in pending:
                if src in self.silent or dst in self.silent:
                    continue
                self.services[dst].on_message(src, message)

    def honest(self):
        return [s for pid, s in self.services.items() if pid not in self.silent]


# ---------------------------------------------------------------------------
# Inbound validation: malformed packets are counted, never raised
# ---------------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize(
        "message",
        [
            "not a message",
            ("send", 0, 0, "tuple-not-RBMessage"),
            RBMessage("bogus", 0, 0, "x"),
            RBMessage("send", True, 0, "bool-origin"),
            RBMessage("send", 0, -1, "negative-seq"),
            RBMessage("send", 0, MAX_RB_SEQ, "seq-at-bound"),
            RBMessage("send", 0, 0, ["unhashable"]),
            RBMessage("fwd", 0, 0, "x", path=tuple(range(MAX_PATH_LEN + 1))),
            RBMessage("fwd", 0, 0, "x", path=("one", 2)),
        ],
    )
    def test_malformed_rejected(self, message):
        assert not validate_rb_message(message)

    def test_wellformed_accepted(self):
        assert validate_rb_message(RBMessage("send", 3, 7, ("p", 1)))
        assert validate_rb_message(RBMessage("fwd", 0, 0, None, path=(1, 2)))

    @pytest.mark.parametrize("variant", ["bracha", "dolev", "naive"])
    def test_services_quarantine_instead_of_crashing(self, variant):
        node = rb_node(variant, 4)
        service = node.service("rb")
        junk = [
            RBMessage("bogus", 1, 0, "x"),
            RBMessage("send", 1, MAX_RB_SEQ + 5, "x"),
            RBMessage("send", 1, 0, ["unhashable"]),
        ]
        for message in junk:
            node.on_receive(1, message)  # consumed, not crashed
        assert service.quarantined == len(junk)
        assert not service.delivered
        # Non-RB traffic never reaches the service.
        node.on_receive(1, {"kind": "gossip"})
        assert service.quarantined == len(junk)


# ---------------------------------------------------------------------------
# Bracha: duplicates, replays, echo-before-SEND, equivocation accounting
# ---------------------------------------------------------------------------
class TestBrachaEdgeCases:
    def test_duplicate_and_replayed_echoes_count_once(self):
        node = rb_node("bracha", 5)
        service = node.service("rb")
        echo = RBMessage("echo", 2, 0, "v")
        node.on_receive(1, echo)
        before = service.duplicates
        # Replay the identical echo from the same sender three more times.
        for _ in range(3):
            node.on_receive(1, echo)
        assert service.duplicates == before + 3
        assert service.echoes[(2, 0)]["v"] == {1}

    def test_replayed_send_does_not_reecho(self):
        sent = []
        service = BrachaBroadcastService(0, (1, 2, 3, 4), lambda d, m: sent.append(m))
        send = RBMessage("send", 1, 0, "v")
        service.on_message(1, send)
        echoes = [m for m in sent if m.kind == "echo"]
        service.on_message(1, send)  # replay
        assert [m for m in sent if m.kind == "echo"] == echoes
        assert service.duplicates == 1

    def test_echo_before_send_still_delivers(self):
        # n=5, f=1: echo threshold 4, deliver threshold 3.  The SEND itself
        # is lost to this node; echoes/readies from the others must carry it
        # to delivery anyway (amplification), with no local echo ever sent.
        service = BrachaBroadcastService(0, (1, 2, 3, 4), lambda d, m: None)
        for peer in (1, 2, 3):
            service.on_message(peer, RBMessage("ready", 4, 0, "late"))
        assert service.delivered == {(4, 0): "late"}

    def test_echo_threshold_readies_without_send(self):
        out = []
        service = BrachaBroadcastService(0, (1, 2, 3, 4), lambda d, m: out.append(m))
        for peer in (1, 2, 3, 4):
            service.on_message(peer, RBMessage("echo", 4, 0, "v"))
        assert any(m.kind == "ready" for m in out)
        assert (4, 0) in service.readied

    def test_forged_send_on_wrong_link_quarantined(self):
        service = BrachaBroadcastService(0, (1, 2, 3, 4), lambda d, m: None)
        service.on_message(2, RBMessage("send", 1, 0, "forged"))
        assert service.quarantined == 1
        assert (1, 0) not in service.echoed

    def test_equivocating_send_echoed_once(self):
        service = BrachaBroadcastService(0, (1, 2, 3, 4), lambda d, m: None)
        service.on_message(1, RBMessage("send", 1, 0, "a"))
        service.on_message(1, RBMessage("send", 1, 0, "b"))
        assert service.echoed[(1, 0)] == "a"
        assert service.equivocations_observed == 1

    def test_tracking_table_is_bounded(self):
        service = BrachaBroadcastService(0, (1, 2, 3, 4), lambda d, m: None)
        for seq in range(MAX_TRACKED_MESSAGES + 40):
            service.on_message(1, RBMessage("send", 1, seq, ("spam", seq)))
        assert len(service.echoed) == MAX_TRACKED_MESSAGES
        assert service.quarantined == 40


# ---------------------------------------------------------------------------
# The f = ⌊(n-1)/3⌋ boundary at n = 4
# ---------------------------------------------------------------------------
class TestResilienceBoundary:
    def test_n4_tolerates_exactly_one_silent_traitor(self):
        net = SyncNet("bracha", 4, silent={3})
        net.services[0].broadcast("edge")
        net.run()
        for service in net.honest():
            assert service.delivered == {(0, 0): "edge"}

    def test_n4_two_silent_traitors_block_delivery(self):
        # f = 1 at n = 4; two silent peers leave only 2 honest participants,
        # below both the echo threshold (3) and the ready threshold (3).
        net = SyncNet("bracha", 4, silent={2, 3})
        net.services[0].broadcast("edge")
        net.run()
        for service in net.honest():
            if service.pid != 0:
                assert service.delivered == {}

    def test_n5_full_honest_delivery_all_variants(self):
        for variant in ("bracha", "dolev", "naive"):
            net = SyncNet(variant, 5)
            net.services[2].broadcast(("v", variant))
            net.run()
            for service in net.services.values():
                assert service.delivered == {(2, 0): ("v", variant)}, variant


# ---------------------------------------------------------------------------
# Dolev path flooding
# ---------------------------------------------------------------------------
class TestDolevPaths:
    def test_relayed_copy_includes_sender_in_effective_path(self):
        # A non-origin sender with an empty claimed path is itself the relay:
        # the effective path is {sender}, so two such copies via different
        # relays are disjoint and deliver (f = 1 needs 2 disjoint paths).
        service = DolevBroadcastService(0, (1, 2, 3, 4), lambda d, m: None)
        service.on_message(2, RBMessage("fwd", 1, 0, "v", path=()))
        assert not service.delivered
        service.on_message(3, RBMessage("fwd", 1, 0, "v", path=()))
        assert service.delivered == {(1, 0): "v"}

    def test_origin_claiming_nonempty_path_quarantined(self):
        service = DolevBroadcastService(0, (1, 2, 3, 4), lambda d, m: None)
        service.on_message(1, RBMessage("fwd", 1, 0, "v", path=(2,)))
        assert service.quarantined == 1
        assert not service.delivered

    def test_path_containing_receiver_or_sender_quarantined(self):
        service = DolevBroadcastService(0, (1, 2, 3, 4), lambda d, m: None)
        service.on_message(2, RBMessage("fwd", 1, 0, "v", path=(0,)))
        service.on_message(2, RBMessage("fwd", 1, 0, "v", path=(2,)))
        service.on_message(2, RBMessage("fwd", 1, 0, "v", path=(3, 3)))
        assert service.quarantined == 3

    def test_delivery_needs_disjoint_paths(self):
        # f = 1 for n = 5: delivery needs 2 node-disjoint paths.
        service = DolevBroadcastService(0, (1, 2, 3, 4), lambda d, m: None)
        service.on_message(2, RBMessage("fwd", 1, 0, "v", path=(3,)))
        service.on_message(4, RBMessage("fwd", 1, 0, "v", path=(3,)))
        assert not service.delivered  # {3,2} and {3,4} share relay 3
        service.on_message(1, RBMessage("fwd", 1, 0, "v", path=()))
        assert service.delivered == {(1, 0): "v"}  # direct edge is disjoint

    def test_distinct_copies_relayed_once(self):
        out = []
        service = DolevBroadcastService(0, (1, 2, 3, 4), lambda d, m: out.append((d, m)))
        copy_msg = RBMessage("fwd", 1, 0, "v", path=(3,))
        service.on_message(2, copy_msg)
        first = len(out)
        assert first > 0
        service.on_message(2, copy_msg)  # replay of the same path copy
        assert len(out) == first
        assert service.duplicates == 1


# ---------------------------------------------------------------------------
# Naive baseline: first-writer-wins (the motivating weakness)
# ---------------------------------------------------------------------------
class TestNaiveBaseline:
    def test_first_writer_wins_and_counts_equivocation(self):
        service = NaiveBroadcastService(0, (1, 2, 3, 4), lambda d, m: None)
        service.on_message(1, RBMessage("send", 1, 0, "first"))
        service.on_message(1, RBMessage("send", 1, 0, "second"))
        assert service.delivered == {(1, 0): "first"}
        assert service.equivocations_observed == 1

    def test_still_rejects_third_party_forgeries(self):
        service = NaiveBroadcastService(0, (1, 2, 3, 4), lambda d, m: None)
        service.on_message(2, RBMessage("send", 1, 0, "forged"))
        assert service.quarantined == 1
        assert not service.delivered


# ---------------------------------------------------------------------------
# Snapshot/restore byte-identity with a broadcast mid-flight
# ---------------------------------------------------------------------------
class TestSnapshotMidBroadcast:
    @pytest.mark.parametrize("stack", ["rb_bracha", "rb_dolev"])
    def test_restore_mid_broadcast_is_byte_identical(self, stack):
        spec = ScenarioSpec(
            name=f"rbsnap:{stack}",
            n=5,
            stack=stack,
            workloads=(
                RBBroadcastWorkload(at=20.0, origin=1, payload=("snap", 1)),
                RBBroadcastWorkload(at=21.0, origin=3, payload=("snap", 2)),
            ),
            horizon=45.0,
            probes=(probes.rb_delivered(4_000.0), probes.converged(4_000.0)),
            invariants=(
                probes.rb_agreement_invariant(),
                probes.rb_validity_invariant(),
            ),
            track_convergence=True,
        )
        cold = run_scenario(spec, seed=2)
        assert cold["ok"], cold

        run = prepare(spec, seed=2)
        # Pause between the two broadcasts: the first is mid-flight (echo /
        # fwd rounds in the channels), the second still pending.
        paused = not drive(run, stop_before=20.5)
        assert paused
        warm_run = SimSnapshot.capture(run).restore()
        drive(warm_run)
        warm = finalize(warm_run)

        strip = lambda r: {
            k: v for k, v in copy.deepcopy(r).items() if k != "wall_seconds"
        }
        assert strip(warm) == strip(cold)
