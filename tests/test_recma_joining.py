"""Tests for the recMA layer (Algorithm 3.2) and the joining mechanism (3.3)."""

from __future__ import annotations

from itertools import cycle, islice

from repro.common.types import make_config
from repro.core.recma import RecMA, RecMAMessage, never_reconfigure
from repro.sim.faults import CorruptionAtom, apply_plan

from tests.conftest import quick_cluster


class TestPredictionPolicies:
    def test_default_policy_never_votes(self):
        config = make_config([1, 2, 3])
        assert not never_reconfigure(config, frozenset([1, 2, 3]))
        assert not never_reconfigure(config, frozenset())


def _membership_drift(configuration, trusted, overlap=0.8):
    """Vote for a reconfiguration when fewer than *overlap* of the trusted
    processors are configuration members (many joiners arrived)."""
    return bool(trusted) and len(configuration & trusted) < overlap * len(trusted)


class TestRecMA:
    def test_no_trigger_in_steady_state(self):
        cluster = quick_cluster(4, seed=31)
        assert cluster.run_until_converged(timeout=800)
        cluster.run(until=cluster.simulator.now + 150)
        assert sum(node.recma.trigger_count for node in cluster.nodes.values()) == 0

    def test_majority_collapse_triggers_reconfiguration(self):
        """E4, Lemma 3.20: a collapsed majority triggers recMA and the
        survivors install a configuration of their own."""
        cluster = quick_cluster(5, seed=32)
        assert cluster.run_until_converged(timeout=800)
        old_config = cluster.agreed_configuration()
        for pid in (0, 1, 2):
            cluster.crash(pid)
        assert cluster.run_until(
            lambda: cluster.is_converged()
            and cluster.agreed_configuration() is not None
            and cluster.agreed_configuration() != old_config,
            timeout=4000,
        )
        new_config = cluster.agreed_configuration()
        assert new_config <= make_config([3, 4])
        assert sum(node.recma.majority_triggers for node in cluster.nodes.values()) >= 1

    def test_minority_crash_does_not_trigger(self):
        cluster = quick_cluster(5, seed=33)
        assert cluster.run_until_converged(timeout=800)
        config = cluster.agreed_configuration()
        cluster.crash(0)
        cluster.run(until=cluster.simulator.now + 200)
        assert cluster.agreed_configuration() == config
        assert sum(node.recma.majority_triggers for node in cluster.nodes.values()) == 0

    def test_prediction_majority_triggers_reconfiguration(self):
        # A drift policy plus two joiners: once a majority of members see the
        # drift, the configuration is replaced with the wider participant set.
        cluster = quick_cluster(3, seed=34)
        for node in cluster.nodes.values():
            node.recma.policy = _membership_drift
        assert cluster.run_until_converged(timeout=800)
        old_config = cluster.agreed_configuration()
        joiners = [cluster.add_joiner(100), cluster.add_joiner(101)]
        for joiner in joiners:
            joiner.recma.policy = _membership_drift
        assert cluster.run_until(
            lambda: all(j.scheme.is_participant() for j in joiners), timeout=3000
        )
        assert cluster.run_until(
            lambda: cluster.is_converged()
            and cluster.agreed_configuration() is not None
            and cluster.agreed_configuration() > old_config,
            timeout=4000,
        )
        assert 100 in cluster.agreed_configuration()

    def test_single_prediction_vote_does_not_trigger(self):
        # Only one node's policy votes for reconfiguration: no majority, no
        # trigger (the paper's protection against unilateral requests).
        votes = {0}
        cluster = quick_cluster(4, seed=35)
        for pid, node in cluster.nodes.items():
            node.recma.policy = lambda config, trusted, pid=pid: pid in votes
        assert cluster.run_until_converged(timeout=800)
        cluster.run(until=cluster.simulator.now + 200)
        assert sum(node.recma.prediction_triggers for node in cluster.nodes.values()) == 0

    def test_corrupt_flags_cause_bounded_triggers(self):
        """E3, Lemma 3.18: stale flags cause at most N²·cap spurious triggers.

        Here the bound cannot be reached: ``RecMA.step`` clears and recomputes
        the owner's own ``no_maj``/``need_reconf`` from its failure detector
        and policy before it reads any peer flag, so stale flags alone never
        complete a trigger.  The test therefore pins 0 exactly and asserts
        that every atom landed — with ``0 <= N²·cap`` alone, renaming a flag
        field (every atom skipped) would leave it green.
        """
        for n, capacity in ((4, 4), (6, 8)):
            cluster = quick_cluster(n, seed=36, capacity=capacity)
            assert cluster.run_until_converged(timeout=800)
            universe = list(range(n))
            # Every noMaj/needReconf flag at every node set ...
            flags = [
                CorruptionAtom(kind="entry", pid=pid, path=("recma", flag), key=other, value=True)
                for pid in universe
                for other in universe
                for flag in ("no_maj", "need_reconf")
            ]
            # ... and *capacity* stale all-True packets toward every node,
            # the senders taken in turn.
            stale = [
                CorruptionAtom(
                    kind="channel",
                    pid=sender,
                    key=target,
                    value=RecMAMessage(sender=sender, no_maj=True, need_reconf=True),
                )
                for target in universe
                for sender in islice(cycle(p for p in universe if p != target), capacity)
            ]
            assert apply_plan(cluster, flags) == {"applied": 2 * n * n, "skipped": 0}
            assert apply_plan(cluster, stale) == {"applied": n * capacity, "skipped": 0}
            cluster.run(until=cluster.simulator.now + 400)
            assert [node.recma.trigger_count for node in cluster.nodes.values()] == [0] * n
            # And the system is stable again afterwards.
            assert cluster.run_until_converged(timeout=2000)

    def test_healthy_member_builds_no_core(self, monkeypatch):
        """``core()`` decides only a majority collapse: a member that sees a
        trusted majority never builds it."""
        cluster = quick_cluster(5, seed=39)
        assert cluster.run_until_converged(timeout=800)
        cores, evaluations = [], []
        core, evaluate = RecMA.core, RecMA._evaluate
        monkeypatch.setattr(RecMA, "core", lambda self: cores.append(self.pid) or core(self))
        monkeypatch.setattr(
            RecMA, "_evaluate", lambda self, current: evaluations.append(self.pid) or evaluate(self, current)
        )
        cluster.run(until=cluster.simulator.now + 20.0)
        assert len(evaluations) >= 5 * 19
        assert cores == []

    def test_flags_reset_each_iteration(self):
        cluster = quick_cluster(3, seed=37)
        assert cluster.run_until_converged(timeout=800)
        node = cluster.nodes[0]
        node.recma.no_maj[0] = True
        node.recma.need_reconf[0] = True
        cluster.run(until=cluster.simulator.now + 10)
        assert not node.recma.no_maj[0]
        assert not node.recma.need_reconf[0]

    def test_non_participant_ignores_recma_messages(self):
        cluster = quick_cluster(3, seed=38)
        joiner = cluster.add_joiner(50)
        joiner.recma.on_message(1, RecMAMessage(sender=1, no_maj=True, need_reconf=True))
        assert not joiner.recma.no_maj.get(1, False)


class TestJoining:
    def test_joiner_becomes_participant(self):
        cluster = quick_cluster(4, seed=41)
        assert cluster.run_until_converged(timeout=800)
        joiner = cluster.add_joiner(99)
        assert cluster.run_until(lambda: joiner.scheme.is_participant(), timeout=2500)
        assert joiner.current_config() == cluster.agreed_configuration()
        assert cluster.is_converged() or cluster.run_until_converged(timeout=1000)

    def test_joiner_not_member_until_reconfiguration(self):
        """E5, Theorem 3.26: joining makes a participant, not a member."""
        cluster = quick_cluster(3, seed=42)
        assert cluster.run_until_converged(timeout=800)
        joiner = cluster.add_joiner(77)
        assert cluster.run_until(lambda: joiner.scheme.is_participant(), timeout=2500)
        # A participant, but not a member of the (unchanged) configuration.
        assert 77 not in joiner.scheme.configuration()
        assert 77 not in cluster.agreed_configuration()

    def test_admission_policy_denies_join(self):
        """E5, Theorem 3.26: a joiner ``passQuery()`` denies never participates."""
        cluster = quick_cluster(3, seed=43, admission_policy=lambda joiner: False)
        assert cluster.run_until_converged(timeout=800)
        joiner = cluster.add_joiner(88)
        cluster.run(until=cluster.simulator.now + 250)
        assert not joiner.scheme.is_participant()
        assert joiner.joining.join_requests_sent > 0

    def test_state_transfer_to_joiner(self):
        cluster = quick_cluster(3, seed=44)
        # Members expose an application state through the joining interface.
        for pid, node in cluster.nodes.items():
            node.joining.state_provider = lambda pid=pid: {"snapshot-from": pid}
        assert cluster.run_until_converged(timeout=800)
        joiner = cluster.add_joiner(66)
        received = {}
        joiner.joining.state_initializer = received.update
        assert cluster.run_until(lambda: joiner.scheme.is_participant(), timeout=2500)
        assert received
        assert all(value["snapshot-from"] in cluster.nodes for value in received.values())

    def test_multiple_joiners(self):
        """E5, Theorem 3.26: a burst of joiners all become participants and
        the configuration does not move."""
        cluster = quick_cluster(3, seed=45)
        assert cluster.run_until_converged(timeout=800)
        config = cluster.agreed_configuration()
        joiners = [cluster.add_joiner(pid) for pid in (200, 201, 202)]
        assert cluster.run_until(
            lambda: all(j.scheme.is_participant() for j in joiners), timeout=4000
        )
        assert cluster.run_until_converged(timeout=1000)
        assert cluster.agreed_configuration() == config

    def test_responses_withheld_during_reconfiguration(self):
        cluster = quick_cluster(4, seed=46)
        assert cluster.run_until_converged(timeout=800)
        member = cluster.nodes[0]
        # Force a replacement to be in progress, then ask for a pass.
        assert member.scheme.request_reconfiguration(make_config([0, 1, 2]))
        from repro.core.joining import JoinRequest

        sent = []
        member.joining.send = lambda dest, msg: sent.append((dest, msg))
        member.joining.on_join_request(JoinRequest(sender=99))
        assert sent, "a response must still be sent"
        assert all(not msg.granted for _, msg in sent)
