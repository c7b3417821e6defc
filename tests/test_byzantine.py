"""Tests for the Byzantine fault layer (behaviors, traitors, audit wiring).

Pins the layer's load-bearing guarantees: the behavior registry and
deterministic traitor planning, interceptor install/uninstall through the
fault injector, the failure detector's heartbeat-inflation clamp, the
motivating counterexample (an equivocating traitor splits the naive
baseline's deliveries — ``rb_agreement`` violated — while Bracha certifies
under the same adversary), ddmin shrinking of a violating traitor program to
its minimal behavior, and byte-identical warm prefix reuse for Byzantine
audit cases.
"""

from __future__ import annotations

import copy

import pytest

from repro.audit.byzantine import (
    BEHAVIORS,
    ByzantineSpec,
    ByzantineWorkload,
    TraitorProgram,
    available_behaviors,
    get_behavior,
    plan_assignments,
    select_traitors,
)
from repro.audit.harness import (
    STACK_INVARIANTS,
    AuditCase,
    prefix_snapshot,
    run_case,
    shrink_case,
)
from repro.common.rng import make_rng
from repro.failure_detector.ntheta import NThetaFailureDetector

from tests.conftest import quick_cluster

ALL_BEHAVIORS = ("forge", "mutate", "drop", "equivocate", "inflate")


def _violated(result):
    """Names of the invariants that recorded violation intervals."""
    summary = result.get("invariants") or {}
    return sorted({v["name"] for v in summary.get("intervals", ())})


def _strip_wall(result):
    result = copy.deepcopy(result)
    result.pop("wall_seconds", None)
    result.pop("worker_pid", None)
    return result


# ---------------------------------------------------------------------------
# Behavior registry + deterministic traitor planning
# ---------------------------------------------------------------------------
class TestRegistryAndPlanning:
    def test_registry_contains_the_five_core_behaviors(self):
        assert set(ALL_BEHAVIORS) <= set(available_behaviors())
        for name in ALL_BEHAVIORS:
            behavior = get_behavior(name)
            assert behavior.name == name and behavior.description

    def test_unknown_behavior_raises(self):
        with pytest.raises(KeyError, match="unknown byzantine behavior"):
            get_behavior("bribe")

    def test_selection_policies(self):
        cluster = quick_cluster(5, stack="rb_bracha")
        assert cluster.run_until_converged(timeout=2_000)
        rng = make_rng(7, "test-selection")
        assert select_traitors(cluster, 2, "lowest", rng) == [0, 1]
        sampled = select_traitors(cluster, 2, "random", rng)
        assert len(sampled) == 2 and set(sampled) <= set(cluster.nodes)
        adaptive = select_traitors(cluster, 1, "coordinator", make_rng(7, "x"))
        assert len(adaptive) == 1
        with pytest.raises(KeyError, match="unknown traitor selection"):
            select_traitors(cluster, 1, "nepotism", rng)

    def test_plan_is_deterministic_and_ordered(self):
        cluster = quick_cluster(5, stack="rb_bracha")
        assert cluster.run_until_converged(timeout=2_000)
        spec = ByzantineSpec(behaviors=("forge", "equivocate"), traitors=2)
        plan = plan_assignments(cluster, spec)
        assert plan == [
            (0, "forge"), (0, "equivocate"), (1, "forge"), (1, "equivocate"),
        ]
        assert plan == plan_assignments(cluster, spec)


# ---------------------------------------------------------------------------
# Interceptor lifecycle
# ---------------------------------------------------------------------------
class TestTraitorLifecycle:
    def test_make_byzantine_installs_and_restore_honest_removes(self):
        cluster = quick_cluster(5, stack="rb_bracha")
        assert cluster.run_until_converged(timeout=2_000)
        program = TraitorProgram(cluster, 1, ("equivocate",), seed=3)
        program.activate()
        assert cluster.simulator.outbound_interceptors[1] is program
        assert 1 in cluster.byzantine_pids and program.active

        program.deactivate()
        assert 1 not in cluster.simulator.outbound_interceptors
        assert not program.active
        # The pid stays marked: its local state carries no guarantees.
        assert 1 in cluster.byzantine_pids

    def test_make_byzantine_refuses_dead_nodes(self):
        """Traitors are chosen among the nodes alive when the workload
        fires, so a crashed node is never turned."""
        cluster = quick_cluster(4, stack="rb_bracha")
        assert cluster.run_until_converged(timeout=2_000)
        cluster.try_crash(0)
        spec = ByzantineSpec(behaviors=("forge",), traitors=2)
        ByzantineWorkload(at=cluster.simulator.now + 1.0, spec=spec).install(cluster)
        cluster.run(until=cluster.simulator.now + 2.0)
        (entry,) = cluster.workload_reports
        assert entry["traitors"] == [1, 2]
        assert sorted(cluster.simulator.outbound_interceptors) == [1, 2]
        assert 0 not in cluster.byzantine_pids

    def test_traitor_emissions_bypass_interception(self):
        """Forged spontaneous traffic must not recurse into the interceptor."""
        cluster = quick_cluster(5, stack="rb_bracha")
        assert cluster.run_until_converged(timeout=2_000)
        program = TraitorProgram(cluster, 0, ("forge", "inflate"), seed=5)
        program.activate()
        cluster.run(until=cluster.simulator.now + 30.0)
        assert program.forged > 0 and program.inflated > 0
        # Honest nodes survived the junk: simulation kept executing and the
        # garbage landed in quarantine counters, not exceptions.
        for node in cluster.alive_nodes():
            if node.pid != 0:
                rb = node.service_map["rb"]
                assert rb.variant == "bracha"


# ---------------------------------------------------------------------------
# Failure-detector inflation clamp (satellite hardening)
# ---------------------------------------------------------------------------
class TestInflationClamp:
    def _fd_with_peers(self, peers=(1, 2, 3, 4)):
        fd = NThetaFailureDetector(0, upper_bound_n=10)
        for _ in range(3):  # interleaved honest rounds register everyone
            for peer in peers:
                fd.heartbeat(peer)
        return fd

    def test_burst_from_freshest_sender_ages_at_clamped_rate(self):
        fd = self._fd_with_peers()
        baseline = fd.counts[1]
        burst = 120
        for _ in range(burst):
            fd.heartbeat(2)  # sender 2 is already the freshest entry
        aged = fd.counts[1] - baseline
        assert aged == burst // NThetaFailureDetector.INFLATION_CLAMP

    def test_interleaved_honest_traffic_resets_the_streak(self):
        fd = self._fd_with_peers()
        before = fd.counts[3]
        for _ in range(8):
            fd.heartbeat(1)
            fd.heartbeat(2)  # alternating fresh senders: every beat ages
        assert fd.counts[3] == before + 16

    @staticmethod
    def _storm(clamp=None):
        """Honest heartbeat rounds with a 25-beat traitor burst after each."""
        fd = NThetaFailureDetector(0, upper_bound_n=10)
        if clamp is not None:
            fd.INFLATION_CLAMP = clamp  # instance override: pre-fix behaviour
        for _ in range(12):
            for peer in (1, 2, 3, 4):
                fd.heartbeat(peer)
            for _ in range(25):
                fd.heartbeat(2)
        return fd

    def test_heartbeat_storm_does_not_poison_trusted(self):
        fd = self._storm()
        assert fd.trusted() == frozenset({0, 1, 2, 3, 4})

    def test_unclamped_storm_did_poison_trusted(self):
        # The regression the clamp fixes: with every traitor beat aging the
        # vector (clamp 1 ≡ pre-fix), honest peers blow past the suspicion
        # gap between their legitimate heartbeats.
        fd = self._storm(clamp=1)
        assert {1, 3, 4} & (set(fd.counts) - fd.trusted())

    def test_single_live_peer_still_ages_out_the_crashed(self):
        # Everyone but peer 1 crashed: peer 1 is the only traffic source, so
        # every beat comes from an already-freshest sender.  The clamp must
        # slow aging, not freeze it — the crashed peers' counts keep growing
        # until the gap rule suspects them.
        fd = self._fd_with_peers()
        for _ in range(2_000):
            fd.heartbeat(1)
        assert 1 in fd.trusted()
        assert {2, 3, 4} <= set(fd.counts) - fd.trusted()


# ---------------------------------------------------------------------------
# The pinned counterexample + the protocol that fixes it
# ---------------------------------------------------------------------------
EQUIVOCATE = ByzantineSpec(behaviors=("equivocate",), traitors=1)


def _case(stack, byzantine):
    # ``build_cases`` arms the stack's invariants automatically; direct
    # construction must pass them (an AuditCase without invariants only
    # probes convergence, so violations would go unrecorded).
    return AuditCase(
        scheduler="uniform",
        corruption_seed=0,
        stack=stack,
        profile="none",
        invariants=STACK_INVARIANTS[stack],
        byzantine=byzantine,
    )


class TestAuditIntegration:
    def test_equivocation_splits_the_naive_baseline(self):
        """The motivating violation: no echo round ⇒ honest nodes deliver
        different payloads for the same message id."""
        result = run_case(_case("rb_naive", EQUIVOCATE), seed=0)
        assert not result["ok"]
        assert "rb_agreement" in _violated(result)

    def test_bracha_certifies_under_the_same_adversary(self):
        result = run_case(_case("rb_bracha", EQUIVOCATE), seed=0)
        assert result["ok"], _violated(result)
        assert _violated(result) == []

    def test_bracha_certifies_under_all_behaviors(self):
        spec = ByzantineSpec(behaviors=ALL_BEHAVIORS, traitors=1)
        result = run_case(_case("rb_bracha", spec), seed=1)
        assert result["ok"], _violated(result)

    def test_shrink_finds_the_minimal_traitor_behavior(self):
        spec = ByzantineSpec(
            behaviors=("forge", "drop", "equivocate", "inflate"), traitors=1
        )
        report = shrink_case(_case("rb_naive", spec), seed=0)
        assert report["plan"] == "byzantine"
        assert report["still_fails"]
        assert report["minimal_size"] == 1
        assert report["atoms"] == ["traitor 0: equivocate"]

    def test_byzantine_case_warm_prefix_is_byte_identical(self):
        case = _case("rb_bracha", EQUIVOCATE)
        cold = run_case(case, seed=0, record_atoms=True)
        snapshot = prefix_snapshot(case, seed=0)
        assert snapshot is not None
        warm = run_case(case, seed=0, record_atoms=True, snapshot=snapshot)
        assert _strip_wall(warm) == _strip_wall(cold)
        byz_reports = [
            r for r in warm["workload_reports"] if r.get("workload") == "byzantine"
        ]
        assert byz_reports and byz_reports[0]["atoms"] == ["traitor 0: equivocate"]
