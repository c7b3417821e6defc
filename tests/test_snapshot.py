"""Snapshot/restore determinism, warm prefix sharing, pool + resolve cache.

The load-bearing guarantee of PR 5's sweep-throughput engine is pinned here:
a restored :class:`~repro.sim.snapshot.SimSnapshot` resumed to completion is
**byte-identical** to a cold, uninterrupted run of the same seed — for every
stack profile, with active leaky partitions and link rules in the captured
state, and through the audit harness's warm prefix path (certify and ddmin
shrinking).  The work-stealing sweep meta and the network's route table are
covered alongside, since the same engine relies on both.
"""

from __future__ import annotations

import copy
import copyreg
import io
import pickle
import random
import types

import pytest

from repro.analysis import probes
from repro.audit.harness import (
    AuditCase,
    build_cases,
    certify,
    prefix_key,
    prefix_snapshot,
    run_case,
    shrink_case,
)
from repro.audit.schedulers import _VictimLinkPolicy
from repro.scenarios import (
    ArbitraryStateWorkload,
    ScenarioSpec,
    drive,
    finalize,
    get_scenario,
    prepare,
    run_matrix,
    run_scenario,
)
from repro.common.errors import SimulationError
from repro.common.rng import ChannelStream
from repro.failure_detector.ntheta import NThetaFailureDetector
from repro.node.config import ChannelConfig
from repro.node.stacks import available_stacks
from repro.sim.cluster import build_cluster
from repro.sim.events import Action
from repro.sim.snapshot import SimSnapshot, _reduce_method

from tests.conftest import report_bytes


def _strip_wall(result):
    """Drop the wall-clock keys that are deliberately nondeterministic."""
    result = copy.deepcopy(result)
    result.pop("wall_seconds", None)
    result.pop("worker_pid", None)
    return result


def _snapshot_spec(stack: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"snapdet:{stack}",
        n=5,
        stack=stack,
        workloads=(ArbitraryStateWorkload(at=20.0, seed=5),),
        horizon=40.0,
        probes=(probes.converged(4_000.0),),
        track_convergence=True,
    )


# ---------------------------------------------------------------------------
# Core determinism guarantee: restore + run == cold run, per stack profile
# ---------------------------------------------------------------------------
class TestSnapshotDeterminism:
    @pytest.mark.parametrize("stack", sorted(available_stacks()))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_restored_run_is_byte_identical_per_stack(self, stack, seed):
        spec = _snapshot_spec(stack)
        cold = run_scenario(spec, seed=seed)

        run = prepare(spec, seed=seed)
        paused = not drive(run, stop_before=20.0)
        assert paused, "the pending corruption event must pause the prefix"
        snapshot = SimSnapshot.capture(run)
        restored = snapshot.restore()
        drive(restored)
        warm = finalize(restored)

        assert _strip_wall(warm) == _strip_wall(cold)
        # The satellite contract, spelled out: identical executed events,
        # deliveries and convergence behaviour.
        assert warm["statistics"]["executed_events"] == cold["statistics"]["executed_events"]
        assert warm["statistics"]["delivered_messages"] == cold["statistics"]["delivered_messages"]
        assert warm["convergence"] == cold["convergence"]

    def test_snapshot_with_active_leaky_partition_and_overlay(self):
        """Capture mid-run with a leaky partition standing and a link rule
        pushed; the restored run must still replay byte-identically."""
        spec = ScenarioSpec(
            name="snapdet:leaky",
            n=6,
            stack="counters",
            scheduler="partition_leak",  # forward leaky split stands at t=70
            horizon=200.0,
            probes=(probes.converged(6_000.0),),
            track_convergence=True,
        )
        rule = _VictimLinkPolicy(0, ChannelConfig(min_delay=2.0, max_delay=6.0))

        def run_with_boundary(capture: bool):
            run = prepare(spec, seed=7)
            assert not drive(run, stop_before=70.0)
            network = run.cluster.network
            assert network.summary()["active_partitions"] == ["partition_leak:forward"]
            network.push_rule("test-rule", rule)
            if capture:
                snapshot = SimSnapshot.capture(run)
                run = snapshot.restore()
                assert run.cluster.network.summary()["active_partitions"] == [
                    "partition_leak:forward"
                ]
                assert run.cluster.network._rules["test-rule"] == rule
            drive(run)
            return finalize(run)

        cold = run_with_boundary(capture=False)
        warm = run_with_boundary(capture=True)
        assert _strip_wall(warm) == _strip_wall(cold)

    def test_snapshot_mid_bootstrap(self):
        """A prefix boundary that lands before convergence resumes correctly
        (the bootstrap phase deadline survives the snapshot)."""
        case = AuditCase(scheduler="uniform", corruption_seed=0, corrupt_at=2.0)
        cold = run_case(case, seed=1)
        snapshot = prefix_snapshot(case, seed=1)
        assert snapshot is not None
        assert snapshot.restore().cluster.simulator.now < 2.0
        warm = run_case(case, seed=1, snapshot=snapshot)
        assert warm == cold

    def test_restores_are_isolated(self):
        """Restoring and running copies never perturbs the original, and
        sibling restores never perturb each other."""
        spec = _snapshot_spec("bare")
        cold = run_scenario(spec, seed=3)
        run = prepare(spec, seed=3)
        drive(run, stop_before=20.0)
        before_events = run.cluster.simulator.executed_events
        snapshot = SimSnapshot.capture(run)

        first = snapshot.restore()
        drive(first)
        first_result = finalize(first)
        # Driving the first copy moved neither the original nor the snapshot.
        assert run.cluster.simulator.executed_events == before_events
        second = snapshot.restore()
        drive(second)
        assert _strip_wall(finalize(second)) == _strip_wall(first_result)
        assert snapshot.restores == 2

        # The paused original still completes to the cold result.
        drive(run)
        assert _strip_wall(finalize(run)) == _strip_wall(cold)

    def test_in_flight_marks_survive_restore(self):
        """Packets in flight across the boundary keep their marks on the
        copy: each channel's occupancy equals the distinct pending packets
        still marked in flight, before and after the copy runs on."""

        def marked_pending(simulator):
            pending = {}
            for _, _, channel, item in simulator.events._heap:
                if channel is not None and item.in_flight:
                    pending.setdefault(channel, set()).add(item)
            return {channel: len(packets) for channel, packets in pending.items()}

        def assert_occupancy_matches(simulator):
            pending = marked_pending(simulator)
            for channel in simulator.network.channels():
                assert channel.occupancy() == pending.get(channel, 0)
            return sum(pending.values())

        spec = _snapshot_spec("bare")
        run = prepare(spec, seed=0)
        # Pause inside the bootstrap storm, where the boundary is guaranteed
        # to cut live traffic (steady state throttles itself to near-silence).
        drive(run, stop_before=2.0)
        restored = SimSnapshot.capture(run).restore()
        assert assert_occupancy_matches(restored.cluster.simulator) > 0
        drive(restored)
        assert_occupancy_matches(restored.cluster.simulator)


# ---------------------------------------------------------------------------
# A snapshot is its pickle bytes
# ---------------------------------------------------------------------------
class TestByteSnapshots:
    def test_method_wrapped_under_another_name_survives_the_round_trip(self, monkeypatch):
        """A class-level wrapper installed without ``functools.wraps`` (the
        benchmark's tracing spans) gives every bound method it produces the
        wrapper's ``__name__``; pickle's own reduction would look that name
        up on the instance and fail to restore the heartbeat listener."""
        spec = _snapshot_spec("bare")
        cold = run_scenario(spec, seed=2)

        calls = []
        original = NThetaFailureDetector.heartbeat

        def traced(self, sender):
            calls.append(sender)
            return original(self, sender)

        # Installed before the cluster is built, as the spans are: the
        # listener captured at wiring time is a bound ``traced``.
        monkeypatch.setattr(NThetaFailureDetector, "heartbeat", traced)
        run = prepare(spec, seed=2)
        assert not drive(run, stop_before=20.0)
        listener = run.cluster.nodes[0].heartbeat.on_heartbeat
        assert listener.__func__.__name__ == "traced"

        restored = SimSnapshot.capture(run).restore()
        node = restored.cluster.nodes[0]
        listener = node.heartbeat.on_heartbeat
        assert listener.__self__ is node.failure_detector
        assert listener.__func__ is traced
        before = len(calls)
        drive(restored)
        assert len(calls) > before  # the restored graph still runs the wrapper
        assert _strip_wall(finalize(restored)) == _strip_wall(cold)

    def test_unpicklable_subject_raises_simulation_error_naming_it(self):
        cluster = build_cluster(n=3, seed=0)
        cluster.simulator.call_at(1.0, lambda: None, label="a closure in live state")
        with pytest.raises(SimulationError) as caught:
            SimSnapshot.capture(cluster)
        assert "Cluster" in str(caught.value) and "lambda" in str(caught.value)

    def test_restored_generators_equal_the_captured_ones(self):
        """Generators are rebuilt from their state alone, and channel streams
        from their fields: every one in the restored graph has the captured
        state and draws the same next values."""

        def generators(subject):
            found = []

            def record(rng):
                found.append(rng)
                return rng.__reduce__()

            pickler = pickle.Pickler(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
            pickler.dispatch_table = {
                **copyreg.dispatch_table,
                types.MethodType: _reduce_method,
                random.Random: record,
                ChannelStream: record,
            }
            pickler.dump(subject)
            return found

        def state(rng):
            return rng.getstate() if isinstance(rng, random.Random) else rng.__reduce__()[1]

        run = prepare(_snapshot_spec("counters"), seed=3)
        assert not drive(run, stop_before=20.0)
        captured = generators(run)
        restored = generators(SimSnapshot.capture(run).restore())
        assert len(captured) == len(restored) > 8
        assert sum(isinstance(rng, ChannelStream) for rng in captured) > 8
        for original, copy_ in zip(captured, restored):
            assert type(copy_) is type(original)
            assert state(copy_) == state(original)
            assert [copy_.random() for _ in range(3)] == [original.random() for _ in range(3)]

    def test_capture_rejects_a_subject_without_a_simulator(self):
        with pytest.raises(SimulationError):
            SimSnapshot.capture({"not": "a simulation"})


# ---------------------------------------------------------------------------
# Warm prefix sharing through the audit harness
# ---------------------------------------------------------------------------
class TestWarmPrefixSharing:
    def test_prefix_key_groups_corruption_axes_only(self):
        base = AuditCase(scheduler="uniform", corruption_seed=0)
        assert prefix_key(base) == prefix_key(
            AuditCase(scheduler="uniform", corruption_seed=7, profile="heavy")
        )
        assert prefix_key(base) != prefix_key(AuditCase(scheduler="delay_skew", corruption_seed=0))
        assert prefix_key(base) != prefix_key(
            AuditCase(scheduler="uniform", corruption_seed=0, n=8)
        )
        assert prefix_key(base) != prefix_key(
            AuditCase(scheduler="uniform", corruption_seed=0, stack="vs_smr")
        )

    def test_warm_certify_matches_cold_certify(self):
        cases = build_cases(
            schedulers=["uniform", "delay_skew"], corruption_seeds=[0, 1, 2]
        )
        seeds = [0, 1]
        cold = certify(cases, seeds=seeds, shrink_failures=False, reuse_prefix=False)
        warm = certify(cases, seeds=seeds, shrink_failures=False, reuse_prefix=True)
        assert report_bytes(warm) == report_bytes(cold)
        reuse = warm["meta"]["prefix_reuse"]
        assert reuse["enabled"] and reuse["distinct_prefixes"] == 2
        # 2 prefixes x 2 seeds snapshots, every one of the 12 runs warm.
        assert reuse["snapshots"] == 4
        assert reuse["warm_runs"] == 12

    def test_warm_certify_matches_cold_for_dynamic_adversary_and_smr_stack(self):
        cases = build_cases(
            schedulers=["target_coordinator"],
            corruption_seeds=[0, 1],
            stacks=["vs_smr"],
        )
        cold = certify(cases, seeds=[0], shrink_failures=False, reuse_prefix=False)
        warm = certify(cases, seeds=[0], shrink_failures=False, reuse_prefix=True)
        assert report_bytes(warm) == report_bytes(cold)

    def test_quiet_programs_share_the_program_free_prefix(self):
        """``uniform`` and the three dynamic adversaries anchored after the
        corruption run the same prefix: one snapshot per seed serves all."""
        cases = build_cases(
            schedulers=["uniform", "crash_recovery", "partition_leak", "target_coordinator"],
            corruption_seeds=[0, 1],
        )
        cold = certify(cases, seeds=[0], shrink_failures=False, reuse_prefix=False)
        warm = certify(cases, seeds=[0], shrink_failures=False, reuse_prefix=True)
        assert report_bytes(warm) == report_bytes(cold)
        reuse = warm["meta"]["prefix_reuse"]
        assert reuse["distinct_prefixes"] == 1
        assert reuse["snapshots"] == 1 and reuse["warm_runs"] == 8

    def test_armed_program_keeps_its_place_in_a_tie(self):
        """On ``vs_smr_rb`` the coordinator-hunting program's first epoch and
        a broadcast workload both fire at t = 32; the cold run fires the
        program first (installed first), and so must a warm run off the
        shared prefix."""
        from repro.audit.__main__ import MATRICES

        cases = [
            case
            for case in MATRICES["byzantine"][0]
            if case.stack == "vs_smr_rb" and case.profile_name == "none"
        ]
        assert sorted(case.scheduler for case in cases) == ["target_coordinator", "uniform"]
        cold = certify(cases, seeds=[0], shrink_failures=False, reuse_prefix=False)
        warm = certify(cases, seeds=[0], shrink_failures=False, reuse_prefix=True)
        assert warm["meta"]["prefix_reuse"]["distinct_prefixes"] == 1
        assert warm["meta"]["prefix_reuse"]["warm_runs"] == 2
        assert report_bytes(warm) == report_bytes(cold)
        (tie,) = [v for v in warm["verdicts"] if ":target_coordinator:" in v["case"]]
        assert tie["convergence"]["stabilization_time"] == 34.925273797992936

    def test_static_and_early_programs_keep_their_own_prefix(self):
        quiet = prefix_key(AuditCase(scheduler="uniform", corruption_seed=0))
        assert prefix_key(AuditCase(scheduler="crash_recovery", corruption_seed=0)) == quiet
        # A static program pushes its rule at install time, before any event.
        for name in ("delay_skew", "reorder_heavy", "burst_delivery", "slow_node"):
            assert prefix_key(AuditCase(scheduler=name, corruption_seed=0)) != quiet
            assert prefix_key(
                AuditCase(scheduler=name, corruption_seed=0, corrupt_at=0.0)
            ) != prefix_key(AuditCase(scheduler="uniform", corruption_seed=0, corrupt_at=0.0))
        # A dynamic program whose first transition precedes the corruption.
        early = AuditCase(
            scheduler="crash_recovery", corruption_seed=0, scheduler_params=(("start", 10.0),)
        )
        assert prefix_key(early) != quiet

    def test_single_run_prefixes_stay_cold(self):
        cases = build_cases(schedulers=["uniform", "slow_node"], corruption_seeds=[0])
        report = certify(cases, seeds=[0], shrink_failures=False, reuse_prefix=True)
        assert report["certified"]
        assert report["meta"]["prefix_reuse"]["snapshots"] == 0

    def test_warm_shrink_matches_cold_shrink(self):
        case = AuditCase(
            scheduler="uniform",
            corruption_seed=0,
            invariants=(probes.no_reset_invariant(),),
        )
        cold = shrink_case(case, seed=0, reuse_prefix=False)
        warm = shrink_case(case, seed=0, reuse_prefix=True)
        assert warm == cold
        assert warm["still_fails"] and warm["minimal_size"] >= 1


# ---------------------------------------------------------------------------
# Work-stealing sweep accounting
# ---------------------------------------------------------------------------
class TestSweepAccounting:
    def test_serial_sweep_reports_utilization(self):
        sweep = run_matrix([get_scenario("bootstrap")], seeds=[0, 1], workers=1)
        summary = sweep["meta"]["sweep"]
        assert summary["wall_seconds"] > 0
        assert summary["busy_seconds"] > 0
        assert 0 < summary["utilization"] <= 1.0 + 1e-9
        (worker,) = summary["by_worker"].values()
        assert worker["jobs"] == 2
        for entry in sweep["results"]:
            assert entry["wall_seconds"] > 0 and entry["worker_pid"]

    def test_parallel_sweep_accounts_every_job(self):
        sweep = run_matrix([get_scenario("bootstrap")], seeds=[0, 1, 2, 3], workers=2)
        summary = sweep["meta"]["sweep"]
        assert sum(w["jobs"] for w in summary["by_worker"].values()) == 4
        assert summary["max_job_seconds"] <= summary["busy_seconds"] + 1e-9
        # Work stealing still returns sorted, complete results.
        assert [entry["seed"] for entry in sweep["results"]] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Memoized link resolution: the network's route table
# ---------------------------------------------------------------------------
class TestResolveCache:
    """A pair's channel keeps its config in the route table until a rule
    push or pop empties the table."""

    def test_rule_push_and_pop_invalidate(self):
        cluster = build_cluster(n=3, seed=0)
        network = cluster.network
        base = network.channel(0, 1).config
        shaped = ChannelConfig(min_delay=3.0, max_delay=9.0)
        network.push_rule("shape", lambda s, d: shaped if (s, d) == (0, 1) else None)
        assert not network._routes
        assert network.channel(0, 1).config is shaped
        network.push_rule("t", lambda s, d: base)
        assert not network._routes
        assert network.channel(0, 1).config is base
        assert network.pop_rule("t")
        assert not network._routes
        assert network.channel(0, 1).config is shaped

    def test_policy_registration_invalidates(self):
        cluster = build_cluster(n=3, seed=0)
        network = cluster.network
        default = network.channel(0, 2).config
        shaped = ChannelConfig(min_delay=5.0, max_delay=10.0)
        network.push_rule("shape", lambda s, d: shaped)
        assert network.channel(0, 2).config is shaped
        assert default is not shaped

    def test_partition_and_heal_leave_routes_untouched(self):
        cluster = build_cluster(n=3, seed=0)
        network = cluster.network
        channel = network.channel(0, 1)
        routes = dict(network._routes)
        name = network.partition([0], [1], leak=0.5)
        assert network._routes == routes
        assert network.channel(0, 1) is channel
        network.heal(name)
        assert network._routes == routes


# ---------------------------------------------------------------------------
# Action: the deep-copy-safe scheduled callable
# ---------------------------------------------------------------------------
class TestAction:
    def test_action_remaps_targets_under_deepcopy(self):
        class Box:
            def __init__(self):
                self.value = 0

            def bump(self, amount):
                self.value += amount

        box = Box()
        action = Action(Box.bump, box, 3)
        clone = copy.deepcopy(action)
        clone()
        assert box.value == 0  # the original graph is untouched
        assert clone.args[0].value == 3
        action()
        assert box.value == 3

    def test_action_with_bound_method(self):
        class Box:
            def __init__(self):
                self.value = 0

            def bump(self):
                self.value += 1

        box = Box()
        action = Action(box.bump)
        clone = copy.deepcopy(action)
        clone()
        assert box.value == 0
        assert clone.fn.__self__.value == 1
