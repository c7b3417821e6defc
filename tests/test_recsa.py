"""Tests for the Reconfiguration Stability Assurance layer (Algorithm 3.1).

Unit tests drive :class:`RecSA` instances over the synchronous
:class:`~tests.conftest.LocalBus`; integration tests use the full simulated
cluster (unreliable channels, failure detectors, the works).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.audit.arbitrary_state import generate_plan
from repro.common.types import (
    BOTTOM,
    DEFAULT_PROPOSAL,
    NOT_PARTICIPANT,
    Phase,
    Proposal,
    make_config,
)
from repro.core.joining import JoinRequest
from repro.core.recsa import EchoTriple, RecSA, RecSAMessage
from repro.core.stale import StaleInfoType, classify_stale_information, is_real_config
from repro.sim.faults import apply_plan
from repro.sim.snapshot import SimSnapshot

from tests.conftest import RecSAHarness, quick_cluster, scramble


class TestStaleClassification:
    def _classify(self, harness: RecSAHarness, pid=1):
        inst = harness[pid]
        trusted = inst.trusted()
        return classify_stale_information(
            own=pid,
            records=inst._records,
            own_view=trusted,
            trusted=trusted,
            participants=inst.participants(trusted),
        )

    def test_clean_state_has_no_stale_info(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(3)
        assert self._classify(harness) == []

    def test_type1_detected(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(3)
        harness[1].prp[2] = Proposal(Phase.IDLE, make_config([1]))
        assert StaleInfoType.TYPE_1 in self._classify(harness)

    def test_config_conflict_is_not_type2_but_is_detected_separately(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(3)
        harness[1].config[2] = make_config([1, 2])
        # Conflicts are handled by the no-notification branch, not the
        # always-on classification (see stale.has_type2 docstring).
        assert StaleInfoType.TYPE_2 not in self._classify(harness)
        # Two trusted processors hold different real configurations.
        records = harness[1]._records
        configs = {records[pid]["config"] for pid in harness[1].trusted()}
        assert len({c for c in configs if is_real_config(c) and c}) > 1

    def test_type2_bottom_detected(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(3)
        harness[1].config[3] = BOTTOM
        assert StaleInfoType.TYPE_2 in self._classify(harness)

    def test_type3_phase2_disagreement_detected(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(3)
        harness[1].prp[2] = Proposal(Phase.REPLACE, make_config([1, 2]))
        harness[1].prp[3] = Proposal(Phase.REPLACE, make_config([2, 3]))
        assert StaleInfoType.TYPE_3 in self._classify(harness)

    def test_type4_no_active_member_detected(self):
        # A configuration containing no active participant is type-4 stale
        # information: the instances detect it and start a reset.
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([7, 8, 9]))
        harness.round(2)
        assert any(
            harness[p].stale_detections[StaleInfoType.TYPE_4] > 0 for p in harness.pids
        )

    def test_type4_recovers_to_participant_based_configuration(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([7, 8, 9]))
        assert harness.run_until(
            lambda: harness.converged()
            and set(harness.configs().values()) == {make_config([1, 2, 3])}
        )


class TestRecSAUnit:
    def test_bootstrap_from_bottom_converges_to_fd_set(self, recsa_harness):
        assert recsa_harness.run_until(recsa_harness.converged)
        configs = set(recsa_harness.configs().values())
        assert configs == {make_config([1, 2, 3])}

    def test_coherent_start_is_stable(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(5)
        assert harness.converged()
        assert all(harness[p].reset_count == 0 for p in harness.pids)

    def test_conflicting_configs_trigger_reset_and_reconverge(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(3)
        harness[1].config[1] = make_config([1])
        assert harness.run_until(harness.converged)
        assert any(harness[p].reset_count > 0 for p in harness.pids)
        assert set(harness.configs().values()) == {make_config([1, 2, 3])}

    def test_estab_rejected_when_not_stable(self):
        harness = RecSAHarness([1, 2, 3])
        # Before convergence a reset is in progress, so estab must refuse.
        assert not harness[1].estab([1, 2])
        assert harness[1].estab_rejected == 1

    def test_estab_rejected_for_current_config_or_empty(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(5)
        assert not harness[1].estab([])
        assert not harness[1].estab([1, 2, 3])

    def test_estab_installs_proposed_configuration(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(5)
        assert harness[1].estab([1, 2])
        assert harness.run_until(
            lambda: set(harness.configs().values()) == {make_config([1, 2])}
            and harness.converged()
        )
        assert all(harness[p].install_count >= 1 for p in harness.pids)

    def test_concurrent_estabs_select_single_configuration(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(5)
        assert harness[1].estab([1, 2])
        assert harness[2].estab([2, 3])  # has not yet seen 1's proposal
        assert harness.run_until(harness.converged)
        configs = set(harness.configs().values())
        assert len(configs) == 1
        # The lexically larger proposal wins the selection.
        assert configs == {make_config([2, 3])}

    def test_no_reco_false_during_replacement(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(5)
        harness[1].estab([1, 2])
        harness.round(1)
        assert not harness[1].no_reco()

    def test_estab_rejected_while_replacement_in_progress(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(5)
        assert harness[1].estab([1, 2])
        harness.round(2)
        assert not harness[2].estab([2, 3])

    def test_participate_on_complete_collapse_starts_reset(self):
        # A joiner facing a complete collapse (no participant holds a real
        # configuration) adopts ⊥, which starts the brute-force recovery.
        harness = RecSAHarness([1, 2, 3], initial_config=None)
        joiner = harness[1]
        assert joiner.participate()
        assert joiner.config[1] is BOTTOM
        assert not joiner.no_reco()

    def test_participate_refused_during_replacement(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(5)
        harness[2].estab([1, 2])
        harness.round(1)
        joiner = harness[3]
        joiner.config[3] = NOT_PARTICIPANT
        assert not joiner.participate()

    def test_non_participant_does_not_broadcast(self):
        harness = RecSAHarness([1, 2], initial_config=make_config([1, 2]))
        harness.round(3)
        bus_before = dict(harness.bus.queues)
        harness[1].config[1] = NOT_PARTICIPANT
        harness[1].step()
        sent = sum(len(v) for v in harness.bus.queues.values()) - sum(
            len(v) for v in bus_before.values()
        )
        assert sent == 0

    def test_crash_of_member_keeps_config_stable(self):
        harness = RecSAHarness([1, 2, 3, 4, 5], initial_config=make_config([1, 2, 3, 4, 5]))
        harness.round(5)
        harness.crash(5)
        assert harness.run_until(harness.converged)
        # The configuration itself is untouched by a minority crash.
        assert set(harness.configs().values()) == {make_config([1, 2, 3, 4, 5])}

    def test_get_config_returns_bottom_during_reset(self):
        harness = RecSAHarness([1, 2, 3])
        harness[1].step()
        assert harness[1].get_config() in (BOTTOM, make_config([1, 2, 3]))

    def test_chs_config_returns_bottom_when_no_values(self):
        harness = RecSAHarness([1, 2], initial_config=None)
        assert harness[1].chs_config() is BOTTOM

    def test_arbitrary_corruption_recovers(self):
        harness = RecSAHarness([1, 2, 3, 4], initial_config=make_config([1, 2, 3, 4]))
        harness.round(5)
        # Arbitrary garbage in every array of processor 1 and 3.
        harness[1].config[1] = frozenset()
        harness[1].prp[2] = Proposal(Phase.REPLACE, make_config([9]))
        harness[3].prp[3] = Proposal(Phase.SELECT, make_config([1, 9]))
        harness[3].all_flags[3] = True
        assert harness.run_until(harness.converged, max_rounds=300)
        values = set(harness.configs().values())
        assert len(values) == 1


class TestRecSACluster:
    def test_self_bootstrap_converges(self):
        cluster = quick_cluster(5, seed=21)
        assert cluster.run_until_converged(timeout=800)
        config = cluster.agreed_configuration()
        assert config == make_config(range(5))
        assert cluster.all_nodes_participating()

    def test_coherent_start_converges_without_resets(self):
        cluster = quick_cluster(4, seed=22, coherent_start=True)
        assert cluster.run_until_converged(timeout=800)
        assert sum(node.recsa.reset_count for node in cluster.nodes.values()) == 0

    def test_convergence_from_scrambled_state(self):
        """E9, the scheme's half: a ``scramble`` plan is recovered from (the
        baseline's half is ``test_transient_fault_never_recovers``)."""
        cluster = quick_cluster(5, seed=23)
        assert cluster.run_until_converged(timeout=800)
        atoms = scramble(cluster, seed=99)
        assert sum(atom.path[0] == "recsa" for atom in atoms) > 0
        assert cluster.run_until_converged(timeout=4000)
        config = cluster.agreed_configuration()
        assert config is not None and len(config) >= 1

    def test_single_node_corruption_recovers(self):
        cluster = quick_cluster(4, seed=24)
        assert cluster.run_until_converged(timeout=800)
        atoms = scramble(cluster, seed=7, only=0)
        assert atoms and {atom.pid for atom in atoms} == {0}
        assert cluster.run_until_converged(timeout=4000)

    def test_explicit_estab_through_scheme(self):
        cluster = quick_cluster(4, seed=25)
        assert cluster.run_until_converged(timeout=800)
        node = cluster.nodes[0]
        target = make_config([0, 1, 2])
        assert node.scheme.request_reconfiguration(target)
        assert cluster.run_until(
            lambda: cluster.agreed_configuration() == target and cluster.is_converged(),
            timeout=2500,
        )

    def test_closure_no_spurious_reconfigurations(self):
        """E2, Theorem 3.16 (closure): with no faults the configuration never
        changes, and an explicit ``estab()`` is installed exactly once by
        every processor, without a reset, and stays."""
        cluster = quick_cluster(4, seed=26)
        assert cluster.run_until_converged(timeout=800)
        config = cluster.agreed_configuration()

        def counts():
            nodes = cluster.nodes.values()
            return [node.recsa.install_count for node in nodes], sum(
                node.recsa.reset_count for node in nodes
            )

        installs_before, resets_before = counts()
        cluster.run(until=cluster.simulator.now + 200)
        assert cluster.agreed_configuration() == config
        assert counts() == (installs_before, resets_before)

        target = make_config([0, 1, 2])
        assert cluster.nodes[0].scheme.request_reconfiguration(target)
        assert cluster.run_until(
            lambda: cluster.agreed_configuration() == target and cluster.is_converged(),
            timeout=2500,
        )
        replaced = ([count + 1 for count in installs_before], resets_before)
        assert counts() == replaced
        cluster.run(until=cluster.simulator.now + 100)
        assert cluster.agreed_configuration() == target
        assert counts() == replaced


class TestChangeDetectedGossip:
    """The line-29 broadcast fast path: skip peers that echoed the current
    state, refresh unconditionally every K rounds (self-stabilization guard)."""

    def test_steady_state_broadcasts_are_skipped(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(5)  # reach echo-confirmed steady state
        sent_before = {p: harness[p].broadcasts_sent for p in harness.pids}
        harness.round(3)  # K=5 default: three quiet rounds inside the window
        skipped = sum(harness[p].broadcasts_skipped for p in harness.pids)
        assert skipped > 0
        # At least one node skipped every peer for at least one whole round.
        assert any(
            harness[p].broadcasts_sent - sent_before[p] < 3 * 2 for p in harness.pids
        )

    def test_periodic_refresh_always_resends(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        refresh = harness[1].gossip_refresh_interval
        harness.round(refresh * 4)
        sent_in_window = {p: harness[p].broadcasts_sent for p in harness.pids}
        harness.round(refresh)
        # Within any full refresh window every node re-sends to every peer at
        # least once, no matter how quiet the state is.
        for p in harness.pids:
            assert harness[p].broadcasts_sent - sent_in_window[p] >= 2

    def test_state_change_triggers_immediate_rebroadcast(self):
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(6)
        sent_before = harness[1].broadcasts_sent
        assert harness[1].estab([1, 2])
        harness[1].step()  # estab changed prp: the next broadcast must flow
        assert harness[1].broadcasts_sent >= sent_before + 2

    def test_refresh_interval_one_disables_skipping(self):
        bus_pids = [1, 2, 3]
        from tests.conftest import LocalBus
        from repro.core.recsa import RecSA

        bus = LocalBus()
        instances = {}
        for pid in bus_pids:
            inst = RecSA(
                pid=pid,
                fd_provider=lambda: frozenset(bus_pids),
                send=bus.sender_for(pid),
                initial_config=make_config(bus_pids),
                gossip_refresh_interval=1,
            )
            instances[pid] = inst
            bus.register(pid, inst.on_message)
        for _ in range(8):
            for pid in bus_pids:
                instances[pid].step()
            bus.deliver_all()
        assert all(inst.broadcasts_skipped == 0 for inst in instances.values())
        assert all(inst.broadcasts_sent == 8 * 2 for inst in instances.values())

    def test_corrupted_peer_repaired_within_refresh_window(self):
        """A peer whose received state is corrupted mid-quiet-period recovers
        even though its neighbours were skipping broadcasts to it."""
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(6)
        assert harness.converged()
        # Corrupt node 1's copy of node 2's state while the system is quiet.
        harness[1].config[2] = BOTTOM
        refresh = harness[1].gossip_refresh_interval
        assert harness.run_until(
            lambda: harness.converged()
            and set(harness.configs().values()) == {make_config([1, 2, 3])},
            max_rounds=refresh * 6,
        )

    def test_full_vector_repairs_corrupted_stored_copy(self):
        """Full vectors are the only wire form, so they alone repair a stored
        copy that silently diverged: within one refresh window."""
        harness = RecSAHarness([1, 2, 3])
        assert harness.run_until(harness.converged)
        harness.round(count=8)  # settle into echo-confirmed skipping
        victim = harness[2]
        truth = victim.part[1]
        victim.part[1] = frozenset({99})
        refresh = victim.gossip_refresh_interval
        assert harness.run_until(lambda: victim.part[1] == truth, max_rounds=refresh + 1)

    def test_convergence_unaffected_by_gossip_skipping(self):
        """Bootstrap from BOTTOM must converge to the same configuration with
        and without change detection (the skip guard never hides progress)."""
        configs = {}
        for refresh in (1, 5):
            cluster = quick_cluster(4, seed=42, gossip_refresh_interval=refresh)
            assert cluster.run_until_converged(timeout=800)
            configs[refresh] = cluster.agreed_configuration()
        assert configs[1] == configs[5]

    def test_skipping_reduces_cluster_traffic(self):
        delivered = {}
        for refresh in (1, 5):
            cluster = quick_cluster(6, seed=43, gossip_refresh_interval=refresh)
            assert cluster.run_until_converged(timeout=800)
            cluster.run(until=cluster.simulator.now + 100)
            delivered[refresh] = cluster.statistics()["delivered_messages"]
        assert delivered[5] < delivered[1]


# ---------------------------------------------------------------------------
# Derived verdicts: the memo behind noReco()/getConfig()/FD[i].part
# ---------------------------------------------------------------------------
def _underived(recsa: RecSA):
    """``(no_reco, get_config, participants)`` from the un-memoized bodies.

    Derived with the memo set aside, so nothing the oracle computes comes
    from — or leaks into — the memo under test.
    """
    saved, recsa._memo = recsa._memo, {}
    try:
        trusted = recsa.trusted()
        stable = recsa._derive_no_reco(trusted)
        config = (
            recsa._derive_chs_config(trusted)
            if stable
            else recsa.config.get(recsa.pid, NOT_PARTICIPANT)
        )
        return stable, config, recsa._derive_participants(trusted)
    finally:
        recsa._memo = saved


def _assert_memo_agrees(cluster, after: str) -> None:
    for node in cluster.nodes.values():
        recsa = node.recsa
        expected = _underived(recsa)
        answered = (recsa.no_reco(), recsa.get_config(), recsa.participants())
        assert answered == expected, (
            f"memoized verdicts of node {node.pid} diverged from the "
            f"un-memoized bodies after {after} at t={cluster.simulator.now}"
        )
        # Asking again (now certainly from the memo) changes nothing — nor
        # does asking about another trusted set in between: the set is part
        # of the key.
        other = frozenset(pid for pid in cluster.nodes if pid % 2)
        assert recsa.participants(other) == recsa._derive_participants(other)
        assert (recsa.no_reco(), recsa.get_config(), recsa.participants()) == expected


class TestDerivedVerdictMemo:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_walk_agrees_with_unmemoized_bodies(self, seed):
        """Oracle style (cf. ``conftest.oracle_checked``): after *every*
        operation of a seeded walk over everything that can move a verdict —
        simulator events (``step``/``on_message``), the interface calls,
        received forgeries, the joining hook and both corruption surfaces —
        the memoized answers equal the bodies they memoize."""
        rng = random.Random(seed)
        cluster = quick_cluster(5, seed=seed)
        universe = sorted(cluster.nodes)
        simulator = cluster.simulator

        def a_view():
            return frozenset(rng.sample(universe, rng.randint(0, len(universe))))

        def a_proposal():
            members = None if rng.random() < 0.3 else a_view()
            return Proposal(phase=Phase(rng.choice([0, 1, 2])), members=members)

        def a_config_value():
            return rng.choice([BOTTOM, NOT_PARTICIPANT, frozenset(), a_view()])

        def forged_message(recsa):
            sender = rng.choice(universe)
            echo = None
            if rng.random() < 0.5:
                echo = EchoTriple(part=a_view(), prp=a_proposal(), all_flag=rng.random() < 0.5)
            recsa.on_message(
                sender,
                RecSAMessage(
                    sender=sender,
                    fd=a_view(),
                    part=a_view(),
                    config=a_config_value(),
                    prp=a_proposal(),
                    all_flag=rng.random() < 0.5,
                    echo=echo,
                ),
            )

        operations = {
            "event": lambda node: simulator.step(),
            "estab": lambda node: node.recsa.estab(a_view()),
            "participate": lambda node: node.recsa.participate(),
            "config_set": lambda node: node.recsa.config_set(a_config_value()),
            "forged on_message": lambda node: forged_message(node.recsa),
            "join request": lambda node: node.scheme.on_message(
                rng.choice(universe), JoinRequest(sender=rng.choice(universe))
            ),
            "single-node scramble": lambda node: scramble(
                cluster, seed=rng.randrange(1 << 16), only=node.pid
            ),
            "apply_plan": lambda node: apply_plan(
                cluster, generate_plan(cluster, seed=rng.randrange(1 << 16))
            ),
        }
        # Mostly events (the protocol must get to run between faults).
        names = ["event"] * 24 + [name for name in operations if name != "event"]
        for _ in range(700):
            name = rng.choice(names)
            operations[name](cluster.nodes[rng.choice(universe)])
            _assert_memo_agrees(cluster, after=name)

    def test_planted_memo_is_gone_after_one_step(self):
        """The memo is state a transient fault can hit: a wrong verdict
        planted under a *valid* key survives queries, but not an iteration."""
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(6)
        recsa = harness[1]
        assert recsa.no_reco() is True
        recsa._memo["no_reco"] = False
        recsa._memo["chs_config"] = make_config([7])
        recsa._memo["participants"] = frozenset({9})
        assert recsa.no_reco() is False  # the fault is visible ...
        recsa.step()
        assert recsa.no_reco() is True  # ... for at most one iteration
        assert recsa.get_config() == make_config([1, 2, 3])
        assert recsa.participants() == frozenset({1, 2, 3})

    def test_queries_on_an_unchanged_detector_write_nothing(self):
        """A read that writes would defeat the memo it is the key of."""
        cluster = quick_cluster(4, seed=5)
        assert cluster.run_until_converged(timeout=800)
        recsa = cluster.nodes[0].recsa
        recsa.trusted()
        before = recsa.version
        held = recsa.fd[0]
        for _ in range(3):
            assert recsa.trusted() is held
            recsa.no_reco(), recsa.get_config(), recsa.participants(), recsa.chs_config()
        assert recsa.version == before
        assert recsa.fd[0] is held

    def test_every_mutator_counts_and_store_counts_changes_only(self):
        """Every write through an array view bumps the version; ``store``
        and a receipt bump it only when a value moved."""
        recsa = RecSA(pid=1, fd_provider=lambda: frozenset({1, 2}), send=lambda *_: None)
        seen = [recsa.version]

        def counted() -> bool:
            seen.append(recsa.version)
            return seen[-1] > seen[-2]

        recsa.config[2] = BOTTOM
        assert counted() and recsa.config[2] is BOTTOM
        recsa.prp.update({3: DEFAULT_PROPOSAL})
        assert counted()
        recsa.fd.setdefault(4, frozenset({4}))
        assert counted()
        recsa.fd.pop(4)
        assert counted() and 4 not in recsa.fd
        del recsa.prp[3]
        assert counted()
        recsa.all_flags[2] = True
        recsa.all_flags.popitem()
        assert counted()
        recsa.part[2] = frozenset({2})
        recsa.part.clear()
        assert counted() and dict(recsa.part) == {}

        value = frozenset({1, 2})
        recsa.store(2, "fd", value)
        assert counted()
        recsa.store(2, "fd", value)
        assert not counted()
        twin = frozenset({1, 2})
        recsa.store(2, "fd", twin)  # equal value, new object: stored, not counted
        assert not counted() and recsa.fd[2] is twin
        recsa.store(2, "fd", frozenset({1}))
        assert counted()
        recsa.store(5, "echo", None)  # an absent field is a change even for None
        assert counted() and 5 in recsa.echo

        message = RecSAMessage(
            sender=2,
            fd=frozenset({1, 2}),
            part=frozenset({1, 2}),
            config=make_config([1, 2]),
            prp=DEFAULT_PROPOSAL,
            all_flag=False,
            echo=None,
        )
        recsa.on_message(2, message)
        assert counted()
        recsa.on_message(2, message)  # a receipt that repeats the stored values
        assert not counted()
        recsa.on_message(2, RecSAMessage(**{**vars(message), "all_flag": True}))
        assert counted() and recsa.all_flags[2] is True

    def test_write_count_survives_pickle(self):
        """The version is plain state: a snapshot round trip keeps it, the
        records, and the own record as the one the table holds."""
        cluster = quick_cluster(4, seed=5)
        assert cluster.run_until_converged(timeout=800)
        recsa = cluster.nodes[0].recsa
        recsa.config[3] = BOTTOM
        clone = SimSnapshot.capture(cluster).restore().nodes[0].recsa
        assert clone.version == recsa.version > 0
        assert clone._records == recsa._records
        assert clone._own is clone._records[0]
        clone.config[3] = NOT_PARTICIPANT
        assert clone.version == recsa.version + 1
        assert pickle.loads(pickle.dumps(RecSA(pid=1, fd_provider=frozenset, send=print))).version == 0

    def test_broadcast_builds_an_echo_only_when_one_goes_out(self):
        """Skipped peers cost no ``EchoTriple``; a repeated echo is the same
        object, so the receiver's store compares by identity."""
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(6)
        held = {p: dict(harness[p].echo) for p in harness.pids}
        skipped = sum(harness[p].broadcasts_skipped for p in harness.pids)
        harness.round(harness[1].gossip_refresh_interval * 2)
        assert sum(harness[p].broadcasts_skipped for p in harness.pids) > skipped
        for p in harness.pids:
            for peer, echo in harness[p].echo.items():
                assert echo is held[p][peer]
