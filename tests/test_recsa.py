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
from repro.core import gossip
from repro.core.gossip import REFRESH_INTERVAL
from repro.core.joining import JoinRequest
from repro.core.recsa import DerivedView, EchoTriple, RecSA, RecSAMessage
from repro.core.stale import (
    NO_RECORD,
    StaleInfoType,
    classify_stale_information,
    is_real_config,
)
from repro.node.faults import apply_plan
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
        refresh = REFRESH_INTERVAL
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

    def test_refresh_interval_one_disables_skipping(self, monkeypatch):
        monkeypatch.setattr(gossip, "REFRESH_INTERVAL", 1)
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(8)
        assert all(harness[p].broadcasts_skipped == 0 for p in harness.pids)
        assert all(harness[p].broadcasts_sent == 8 * 2 for p in harness.pids)

    def test_corrupted_peer_repaired_within_refresh_window(self):
        """A peer whose received state is corrupted mid-quiet-period recovers
        even though its neighbours were skipping broadcasts to it."""
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(6)
        assert harness.converged()
        # Corrupt node 1's copy of node 2's state while the system is quiet.
        harness[1].config[2] = BOTTOM
        refresh = REFRESH_INTERVAL
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
        refresh = REFRESH_INTERVAL
        assert harness.run_until(lambda: victim.part[1] == truth, max_rounds=refresh + 1)

    def test_convergence_unaffected_by_gossip_skipping(self, monkeypatch):
        """Bootstrap from BOTTOM must converge to the same configuration with
        and without change detection (the skip guard never hides progress)."""
        configs = {}
        for refresh in (1, 5):
            monkeypatch.setattr(gossip, "REFRESH_INTERVAL", refresh)
            cluster = quick_cluster(4, seed=42)
            assert cluster.run_until_converged(timeout=800)
            configs[refresh] = cluster.agreed_configuration()
        assert configs[1] == configs[5]

    def test_skipping_reduces_cluster_traffic(self, monkeypatch):
        delivered = {}
        for refresh in (1, 5):
            monkeypatch.setattr(gossip, "REFRESH_INTERVAL", refresh)
            cluster = quick_cluster(6, seed=43)
            assert cluster.run_until_converged(timeout=800)
            cluster.run(until=cluster.simulator.now + 100)
            delivered[refresh] = cluster.statistics()["delivered_messages"]
        assert delivered[5] < delivered[1]


# ---------------------------------------------------------------------------
# The derived view behind noReco()/getConfig()/FD[i].part and the step
# ---------------------------------------------------------------------------
# Per-fact reference bodies: each predicate on its own walk over the records,
# as the paper states it.  ``stale.classify_stale_information`` is the
# reference of Definition 3.1.
def _config_of(records, pid):
    return records.get(pid, NO_RECORD).get("config", NOT_PARTICIPANT)


def _reference_participants(recsa: RecSA, trusted) -> frozenset:
    records = recsa._records
    return frozenset(pid for pid in trusted if _config_of(records, pid) is not NOT_PARTICIPANT)


def _reference_chs_config(recsa: RecSA, trusted):
    values = []
    for pid in trusted:
        value = _config_of(recsa._records, pid)
        if value is BOTTOM:
            return BOTTOM
        if value is not NOT_PARTICIPANT:
            values.append(value)
    if not values:
        return BOTTOM
    distinct = list(dict.fromkeys(values))
    if len(distinct) == 1:
        return distinct[0]
    return min(distinct, key=lambda cfg: tuple(sorted(cfg)))


def _reference_no_reco(recsa: RecSA, trusted) -> bool:
    part = _reference_participants(recsa, trusted)
    records = recsa._records
    own = recsa.pid
    agreed = None
    for pid in trusted:
        record = records.get(pid, NO_RECORD)
        value = record.get("config", NOT_PARTICIPANT)
        if value is not NOT_PARTICIPANT:
            if value is BOTTOM:
                return False  # (4) an ongoing reset
            if agreed is None:
                agreed = value
            elif value != agreed:
                return False  # (2) configuration conflict
        if not record.get("prp", DEFAULT_PROPOSAL).is_default:
            return False  # (5) delicate replacement in progress
        if pid == own:
            continue
        view = record.get("fd")
        if view is not None and own not in view:
            return False  # (1) mutual trust
        if pid in part:
            # (3) participant sets and, for a participant owner, their echoes
            if record.get("part") is None or frozenset(record["part"]) != part:
                return False
            if recsa.is_participant():
                echo = record.get("echo")
                if echo is None or frozenset(echo.part) != part:
                    return False
    return True


def _reference_max_ntf(recsa: RecSA, part):
    candidates = []
    for pid in part:
        prp = recsa._records.get(pid, NO_RECORD).get("prp", DEFAULT_PROPOSAL)
        if not prp.is_default and prp.members is not None and len(prp.members) > 0:
            candidates.append(prp)
    return max(candidates, key=lambda prp: prp.sort_key()) if candidates else None


def _reference_conflict(recsa: RecSA, trusted) -> bool:
    values = {_config_of(recsa._records, pid) for pid in trusted}
    return len(values - {NOT_PARTICIPANT, BOTTOM}) > 1


def _reference_fd_views_agree(recsa: RecSA, trusted) -> bool:
    return all(
        recsa._records.get(pid, NO_RECORD).get("fd") is not None
        and frozenset(recsa._records[pid]["fd"]) == trusted
        for pid in trusted
        if pid != recsa.pid
    )


def _reference_view(recsa: RecSA, trusted) -> DerivedView:
    """Every field of :meth:`RecSA.view` from its per-fact reference."""
    part = _reference_participants(recsa, trusted)
    stale = classify_stale_information(
        own=recsa.pid, records=recsa._records, own_view=trusted, trusted=trusted,
        participants=part,
    )
    return DerivedView(
        participants=part,
        chs_config=_reference_chs_config(recsa, trusted),
        no_reco=_reference_no_reco(recsa, trusted),
        stale=tuple(stale),
        max_ntf=_reference_max_ntf(recsa, part),
        conflict=_reference_conflict(recsa, trusted),
        fd_views_agree=_reference_fd_views_agree(recsa, trusted),
    )


def _assert_memo_agrees(cluster, after: str) -> None:
    for node in cluster.nodes.values():
        recsa = node.recsa
        trusted = recsa.trusted()
        expected = _reference_view(recsa, trusted)
        assert recsa.view() == expected, (
            f"the derived view of node {node.pid} diverged from the per-fact "
            f"references after {after} at t={cluster.simulator.now}"
        )
        config = expected.chs_config if expected.no_reco else recsa.own_config()
        answered = (
            recsa.no_reco(), recsa.get_config(), recsa.participants(), recsa.chs_config(),
            recsa.max_ntf(),
        )
        assert answered == (
            expected.no_reco, config, expected.participants, expected.chs_config,
            expected.max_ntf,
        )
        # Asking again (now certainly from the memo) changes nothing — nor
        # does asking about another trusted set in between: the set is part
        # of the key.
        other = frozenset(pid for pid in cluster.nodes if pid % 2)
        assert recsa.view(other) == _reference_view(recsa, other)
        assert recsa.participants(other) == _reference_participants(recsa, other)
        assert recsa.view() == expected
        assert (recsa.no_reco(), recsa.get_config(), recsa.participants()) == answered[:3]


def _stable_joiners_with_stale_echoes(cluster) -> int:
    """Joiners whose ``noReco()`` holds although a participant peer's echo
    of them is missing or reports another participant set: the states in
    which evidence (3)'s echo half must not bind a joiner."""
    count = 0
    for node in cluster.nodes.values():
        recsa = node.recsa
        if recsa.is_participant() or not recsa.no_reco():
            continue
        part = recsa.participants()
        echoes = [recsa.echo.get(pid) for pid in part if pid != node.pid]
        if any(echo is None or frozenset(echo.part) != part for echo in echoes):
            count += 1
    return count


class TestDerivedVerdictMemo:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_walk_agrees_with_unmemoized_bodies(self, seed):
        """Oracle style: after *every* operation of a seeded walk over
        everything that can move a verdict — simulator events (``step``/``on_message``), the interface calls,
        received forgeries, the joining hook, a participant turned joiner
        and both corruption surfaces — every field of the memoized view
        equals its per-fact reference.  The walk must reach a stable joiner
        whose peers still echo its pre-join values."""
        rng = random.Random(seed)
        stale_echo_joiners = 0
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

        def check(after: str) -> None:
            nonlocal stale_echo_joiners
            _assert_memo_agrees(cluster, after=after)
            stale_echo_joiners += _stable_joiners_with_stale_echoes(cluster)

        def rejoin(node):
            # A participant turned joiner, built as
            # ``test_a_joiner_ignores_what_its_peers_echo`` builds one: its
            # own entry is ``]`` and its peers store that entry as its join
            # request.  Then a gossip refresh of events, each checked, so
            # its peers report their new participant sets while their
            # echoes still carry its pre-join values.
            node.recsa.config[node.pid] = NOT_PARTICIPANT
            for peer in cluster.nodes.values():
                if peer is not node:
                    peer.recsa.store(node.pid, "config", NOT_PARTICIPANT)
            until = simulator.now + REFRESH_INTERVAL + 1
            while simulator.now < until and simulator.step():
                check(after="rejoin")

        operations = {
            "event": lambda node: simulator.step(),
            "rejoin": rejoin,
            "estab": lambda node: node.recsa.estab(a_view()),
            "participate": lambda node: node.recsa.participate(),
            "config_set": lambda node: node.recsa.config_set(a_config_value()),
            "forged on_message": lambda node: forged_message(node.recsa),
            "join request": lambda node: node.on_receive(
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
            check(after=name)
        assert stale_echo_joiners > 0

    def test_planted_memo_is_gone_after_one_step(self):
        """The memo is state a transient fault can hit: a wrong view planted
        under a *valid* key survives queries, but not an iteration — and the
        step acts on the view it derives, not on the planted one."""
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(6)
        recsa = harness[1]
        assert recsa.no_reco() is True
        resets, sent = recsa.reset_count, recsa.broadcasts_sent + recsa.broadcasts_skipped
        recsa._view = recsa.view()._replace(
            participants=frozenset({9}),
            chs_config=make_config([7]),
            no_reco=False,
            stale=(StaleInfoType.TYPE_2,),
            max_ntf=Proposal(Phase.SELECT, make_config([7])),
            conflict=True,
            fd_views_agree=False,
        )
        assert recsa.no_reco() is False  # the fault is visible ...
        assert recsa.get_config() == recsa.config[1]
        recsa.step()
        assert recsa.no_reco() is True  # ... for at most one iteration
        assert recsa.get_config() == make_config([1, 2, 3])
        assert recsa.participants() == frozenset({1, 2, 3})
        assert recsa.view() == _reference_view(recsa, recsa.trusted())
        # The planted stale type, conflict and notification were never acted on.
        assert recsa.reset_count == resets
        assert recsa.prp[1] == DEFAULT_PROPOSAL
        assert recsa.broadcasts_sent + recsa.broadcasts_skipped == sent + 2

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
        recsa = RecSA(
            pid=1, fd_provider=lambda: frozenset({1, 2}), send_many=lambda *_: None,
            initial_config=None,
        )
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
        fresh = RecSA(pid=1, fd_provider=frozenset, send_many=print, initial_config=None)
        assert pickle.loads(pickle.dumps(fresh)).version == 0

    def test_broadcast_builds_an_echo_only_when_one_goes_out(self):
        """Skipped peers cost no ``EchoTriple``; a repeated echo is the same
        object, so the receiver's store compares by identity."""
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(6)
        held = {p: dict(harness[p].echo) for p in harness.pids}
        skipped = sum(harness[p].broadcasts_skipped for p in harness.pids)
        harness.round(REFRESH_INTERVAL * 2)
        assert sum(harness[p].broadcasts_skipped for p in harness.pids) > skipped
        for p in harness.pids:
            for peer, echo in harness[p].echo.items():
                assert echo is held[p][peer]

    def test_converged_nodes_derive_at_most_one_view_per_iteration(self):
        """The structural half of the one-walk claim: on a converged bare
        cluster every reader of an iteration (the step, recMA, the joining
        check, the convergence predicate) shares the step's view."""
        cluster = quick_cluster(8, seed=89, stack="bare")
        assert cluster.run_until_converged(timeout=800)
        counts = {pid: {"steps": 0, "views": 0} for pid in cluster.nodes}

        def counted(pid, name, body):
            def wrapper(*args, **kwargs):
                counts[pid][name] += 1
                return body(*args, **kwargs)
            return wrapper

        for pid, node in cluster.nodes.items():
            recsa = node.recsa
            recsa.step = counted(pid, "steps", recsa.step)
            recsa._derive_view = counted(pid, "views", recsa._derive_view)
        # Event by event, each followed by the convergence predicate, as a
        # per-event tracker asks it.
        simulator, end = cluster.simulator, cluster.simulator.now + 20
        while simulator.now < end:
            simulator.step()
            assert cluster.is_converged()
        for pid, count in counts.items():
            assert count["steps"] > 10, count
            assert count["views"] <= count["steps"], (pid, count)


# ---------------------------------------------------------------------------
# Conjuncts a deletion once left unnoticed (ROADMAP item 22)
# ---------------------------------------------------------------------------
class TestEveryConjunctIsSeen:
    def test_a_peer_that_does_not_trust_the_owner_is_evidence(self):
        """noReco() evidence (1): a trusted peer whose view lacks the owner."""
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(6)
        recsa = harness[1]
        assert recsa.no_reco() is True
        recsa.fd[2] = frozenset({2, 3})
        assert recsa.no_reco() is False
        assert recsa.get_config() == make_config([1, 2, 3])  # the own entry, not chsConfig

    def test_a_joiner_ignores_what_its_peers_echo(self):
        """Evidence (3)'s echo half binds participants only: a joiner never
        broadcasts, so its peers' echoes of it are stale by construction and
        must not keep it from ``participate()``."""
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(6)
        joiner = harness[3]
        joiner.config[3] = NOT_PARTICIPANT
        for pid in (1, 2):
            harness[pid].store(3, "config", NOT_PARTICIPANT)  # its join request
        harness.round(REFRESH_INTERVAL + 1)
        assert joiner.echo[1].part != joiner.participants()
        assert joiner.no_reco() is True
        assert joiner.participate() is True
        assert joiner.config[3] == make_config([1, 2, 3])

    @pytest.mark.parametrize("reported", [frozenset({2}), frozenset({1, 2})])
    def test_same_k_needs_the_peer_to_report_our_participant_set(self, reported):
        """The delicate barrier's ``same(k)``: a peer echoing our notification
        but reporting another participant set holds the all flag down."""
        notification = Proposal(Phase.SELECT, make_config([1, 2, 3]))
        recsa = RecSA(pid=1, fd_provider=lambda: frozenset({1, 2}), send_many=lambda *_: None,
                      initial_config=make_config([1, 2]))
        recsa.store(1, "prp", notification)
        recsa.on_message(2, RecSAMessage(
            sender=2, fd=frozenset({1, 2}), part=reported, config=make_config([1, 2]),
            prp=notification, all_flag=False,
            echo=EchoTriple(part=frozenset({1, 2}), prp=notification, all_flag=False),
        ))
        recsa.step()
        assert recsa.prp[1] == notification
        assert recsa.all_flags[1] is (reported == frozenset({1, 2}))

    def test_config_set_forgets_the_barrier(self):
        """``configSet()`` nullifies the replacement, so the peers recorded as
        past its barrier are forgotten with it."""
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(3)
        recsa = harness[1]
        recsa.all_seen.update({2, 3})
        recsa.config_set(BOTTOM)
        assert recsa.all_seen == set()

    def test_an_untrusted_peer_leaves_the_send_ledger(self):
        """A peer the detector stops trusting loses its send bookkeeping, and
        a re-trusted one is sent the full state at once."""
        harness = RecSAHarness([1, 2, 3], initial_config=make_config([1, 2, 3]))
        harness.round(6)
        recsa = harness[1]
        assert set(recsa._sent) == {2, 3}
        harness.trusted[1] = frozenset({1, 2})
        recsa.step()
        assert set(recsa._sent) == {2}
        harness.trusted[1] = frozenset({1, 2, 3})
        sent = recsa.broadcasts_sent
        recsa.step()
        assert set(recsa._sent) == {2, 3} and recsa.broadcasts_sent > sent
