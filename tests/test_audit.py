"""Tests for the adversarial audit engine and this PR's bugfixes.

Covers the timeout-budget semantics of ``Cluster.run_until`` (regression:
probes issued after ``now > 2000`` used to time out instantly), the
interval-based violation recording of :class:`InvariantMonitor`, the
arbitrary-state generator's
determinism and closure, the adversarial schedulers, and the certification
harness with reproducer shrinking and its byte-comparable report projection.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.analysis import probes
from repro.analysis.probes import wait_for
from repro.audit.arbitrary_state import (
    CorruptionProfile,
    generate_plan,
    plan_summary,
)
from repro.audit.harness import (
    AuditCase,
    build_cases,
    certify,
    run_case,
    shrink_case,
)
from repro.audit.schedulers import available_schedulers, get_scheduler
from repro.node.config import ChannelConfig, fast_sim
from repro.node.stacks import available_stacks
from repro.scenarios import (
    ArbitraryStateWorkload,
    ScenarioSpec,
    available_scenarios,
    run_scenario,
)
from repro.scenarios.runner import prepare
from repro.sim.cluster import build_cluster
from repro.sim.faults import CorruptionAtom, _resolve_path, apply_plan
from repro.sim.monitors import InvariantMonitor
from repro.sim.simulator import Simulator

from tests.conftest import deterministic_report, quick_cluster, report_bytes


# ---------------------------------------------------------------------------
# Bugfix: cluster-level timeouts are budgets, not absolute deadlines
# ---------------------------------------------------------------------------
class TestTimeoutBudget:
    def test_run_until_gets_full_budget_past_2000(self):
        cluster = quick_cluster(3)
        assert cluster.run_until_converged(timeout=800)
        # Drive the clock well past the old default deadline of 2000.
        cluster.run(until=2_500)
        assert cluster.simulator.now >= 2_500
        target = cluster.simulator.now + 3.0
        # Before the fix this timed out instantly (2000 < now).
        assert cluster.run_until(
            lambda: cluster.simulator.now >= target, timeout=2_000
        )

    def test_run_until_converged_after_late_disturbance(self):
        cluster = quick_cluster(4, seed=3)
        assert cluster.run_until_converged(timeout=800)
        cluster.run(until=2_200)
        plan = generate_plan(cluster, seed=7)
        apply_plan(cluster, plan)
        # Re-convergence issued at now > 2000 must still get its full budget.
        assert cluster.run_until_converged()  # default timeout=2000 budget
        assert cluster.is_converged()

    def test_probe_budget_is_relative_to_now(self):
        cluster = quick_cluster(3, seed=5)
        assert cluster.run_until_converged(timeout=800)
        cluster.run(until=2_100)
        outcome = wait_for(cluster, probes.converged(500))
        assert outcome.satisfied
        # An unsatisfiable probe consumes (roughly) its budget, not zero.
        start = cluster.simulator.now
        outcome = wait_for(cluster, probes.Probe("never", lambda c: False, 50.0))
        assert not outcome.satisfied
        assert outcome.time >= start

    def test_simulator_run_until_stays_absolute(self):
        sim = Simulator(seed=1)
        sim.now = 10.0
        # Deadline already in the past: returns the predicate's value now.
        assert not sim.run_until(lambda: False, timeout=5.0)


# ---------------------------------------------------------------------------
# Bugfix: interval-based violation recording
# ---------------------------------------------------------------------------
class _Ticker:
    """Schedules itself every time unit so post-step hooks keep firing."""

    def __init__(self, simulator: Simulator, until: float) -> None:
        self.simulator = simulator
        self.until = until
        self._tick()

    def _tick(self) -> None:
        if self.simulator.now < self.until:
            self.simulator.call_later(1.0, self._tick, label="tick")


class TestViolationIntervals:
    def test_single_interval_for_contiguous_violation(self):
        sim = Simulator(seed=1)
        _Ticker(sim, until=50.0)
        monitor = InvariantMonitor(sim)
        monitor.add_invariant("window", lambda: not (10.0 <= sim.now <= 20.0))
        sim.run(until=50.0)
        assert not monitor.ok()
        intervals = [v for v in monitor.violations if v.name == "window"]
        assert len(intervals) == 1
        interval = intervals[0]
        assert interval.time >= 10.0
        assert interval.last_time <= 20.0
        assert interval.count > 1  # many steps, one record

    def test_memory_is_per_interval_not_per_step(self):
        sim = Simulator(seed=1)
        _Ticker(sim, until=500.0)
        monitor = InvariantMonitor(sim)
        monitor.add_invariant("always-false", lambda: False)
        sim.run(until=500.0)
        assert len(monitor.violations) == 1
        assert monitor.violations[0].count >= 500

    def test_flapping_predicate_records_one_interval_per_flap(self):
        sim = Simulator(seed=1)
        _Ticker(sim, until=40.0)
        monitor = InvariantMonitor(sim)
        # False during [5, 10] and [25, 30]: two intervals.
        monitor.add_invariant(
            "two-windows",
            lambda: not (5.0 <= sim.now <= 10.0 or 25.0 <= sim.now <= 30.0),
        )
        sim.run(until=40.0)
        assert len([v for v in monitor.violations if v.name == "two-windows"]) == 2

    def test_violated_filters_and_ok(self):
        sim = Simulator(seed=1)
        _Ticker(sim, until=10.0)
        monitor = InvariantMonitor(sim)
        monitor.add_invariant("good", lambda: True)
        monitor.add_invariant("bad", lambda: False)
        sim.run(until=10.0)
        assert not monitor.ok()
        assert [v for v in monitor.violations if v.name == "good"] == []
        assert len([v for v in monitor.violations if v.name == "bad"]) == 1
        assert monitor.summary()["intervals"][0]["name"] == "bad"

    def test_strict_mode_still_raises(self):
        from repro.common.errors import InvariantViolation

        sim = Simulator(seed=1)
        _Ticker(sim, until=10.0)
        monitor = InvariantMonitor(sim, strict=True)
        monitor.add_invariant("never", lambda: False)
        with pytest.raises(InvariantViolation):
            sim.run(until=10.0)


# ---------------------------------------------------------------------------
# Arbitrary-state generator
# ---------------------------------------------------------------------------
class TestArbitraryState:
    def _converged_cluster(self, seed: int = 2):
        cluster = quick_cluster(4, seed=seed, stack="counters")
        assert cluster.run_until_converged(timeout=800)
        return cluster

    def test_plan_is_deterministic(self):
        plan_a = generate_plan(self._converged_cluster(), seed=11)
        plan_b = generate_plan(self._converged_cluster(), seed=11)
        assert plan_a == plan_b
        assert generate_plan(self._converged_cluster(), seed=12) != plan_a

    def test_plan_covers_every_layer(self):
        plan = generate_plan(
            self._converged_cluster(),
            seed=3,
            profile=CorruptionProfile(field_probability=0.9, channel_fraction=0.9),
        )
        paths = {atom.path for atom in plan if atom.kind != "channel"}
        assert ("recsa", "config") in paths
        assert ("recsa", "prp") in paths
        assert ("recma", "no_maj") in paths
        assert ("failure_detector", "counts") in paths
        assert any(p and p[0].startswith("service:") for p in paths)
        summary = plan_summary(plan)
        assert summary.get("channel", 0) > 0

    def test_anchor_keeps_one_participant(self):
        # Even at maximal intensity, the lowest selected pid's own config
        # entry is never corrupted to NOT_PARTICIPANT (the joining
        # mechanism needs at least one configuration member alive).
        from repro.common.types import NOT_PARTICIPANT

        for seed in range(10):
            cluster = self._converged_cluster()
            plan = generate_plan(
                cluster, seed=seed, profile=CorruptionProfile(field_probability=1.0)
            )
            own_entries = {
                atom.key: atom.value
                for atom in plan
                if atom.kind == "entry"
                and atom.path == ("recsa", "config")
                and atom.key == atom.pid
            }
            anchor = min(own_entries)
            assert own_entries[anchor] is not NOT_PARTICIPANT

    def test_closure_after_full_corruption(self):
        # The paper's headline claim: convergence from the arbitrary state.
        cluster = self._converged_cluster(seed=9)
        plan = generate_plan(cluster, seed=4)
        report = apply_plan(cluster, plan)
        assert report["applied"] > 0
        assert cluster.run_until_converged(timeout=6_000)

    def test_channel_stuffing_bounded_by_capacity(self):
        cluster = self._converged_cluster()
        plan = [
            CorruptionAtom(kind="channel", pid=0, key=1, value=f"stale-{i}")
            for i in range(50)
        ]
        report = apply_plan(cluster, plan)
        capacity = cluster.config.channel.capacity
        assert report["applied"] <= capacity
        assert report["skipped"] >= 50 - capacity

    def test_atom_on_missing_service_is_skipped(self):
        cluster = quick_cluster(3)  # bare stack: no "vs" service
        atom = CorruptionAtom(
            kind="attr", pid=0, path=("service:vs",), key="rnd", value=7
        )
        report = apply_plan(cluster, [atom])
        assert report == {"applied": 0, "skipped": 1}

    def test_attr_atom_on_missing_attribute_is_skipped(self):
        cluster = quick_cluster(3)
        atom = CorruptionAtom(
            kind="attr", pid=0, path=("recsa",), key="renamed_field", value=7
        )
        assert apply_plan(cluster, [atom]) == {"applied": 0, "skipped": 1}
        assert not hasattr(cluster.nodes[0].recsa, "renamed_field")

    @pytest.mark.parametrize("stack_name", available_stacks())
    def test_every_atom_names_a_field_the_stack_has(self, stack_name):
        """The vocabulary stays honest: on every registered stack, each
        non-channel atom of a heavy plan lands on an existing variable — a
        renamed protocol field fails here instead of silently shrinking what
        the audit covers."""
        cluster = build_cluster(n=4, seed=2, config=fast_sim(), stack=stack_name)
        assert cluster.run_until_converged(timeout=800)
        atoms = [
            atom
            for atom in generate_plan(cluster, seed=3, profile="heavy")
            if atom.kind != "channel"
        ]
        assert len(atoms) > 100
        for atom in atoms:
            target = _resolve_path(cluster.nodes[atom.pid], atom.path)
            assert target is not None, atom.describe()
            if atom.kind == "attr":
                assert hasattr(target, atom.key), atom.describe()
        assert apply_plan(cluster, atoms) == {"applied": len(atoms), "skipped": 0}

    def test_scramble_profile_touches_recsa_and_recma_only(self):
        plan = generate_plan(self._converged_cluster(), seed=6, profile="scramble")
        assert {atom.path[0] for atom in plan} == {"recsa", "recma"}
        assert "channel" not in plan_summary(plan)
        # Every alive node is in scope, as with the default profile.
        assert {atom.pid for atom in plan} == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# Adversarial schedulers
# ---------------------------------------------------------------------------
class TestSchedulers:
    def test_registry_contains_all_five(self):
        assert set(available_schedulers()) >= {
            "uniform",
            "delay_skew",
            "reorder_heavy",
            "burst_delivery",
            "slow_node",
        }
        with pytest.raises(KeyError, match="unknown scheduler"):
            get_scheduler("quantum_foam")

    def test_delay_skew_installs_per_pair_overrides(self):
        cluster = quick_cluster(3, seed=8)
        get_scheduler("delay_skew").install(cluster)
        network = cluster.simulator.network
        configs = {
            (s, d): network.channel(s, d).config
            for s in range(3)
            for d in range(3)
            if s != d
        }
        delays = {cfg.max_delay for cfg in configs.values()}
        assert len(delays) > 1  # heterogeneous per-link delays

    def test_burst_delivery_aligns_arrival_instants(self):
        # Packets sent at *different* times must land on quantum boundaries,
        # so a window's traffic arrives together as one burst.
        config = ChannelConfig(min_delay=0.2, max_delay=0.9, delay_quantum=2.0)
        sim = Simulator(seed=1, channel_config=config)

        class _Sink:
            def __init__(self):
                self.arrivals = []

        from repro.node.process import Process

        class _Node(Process):
            def __init__(self, pid, sink):
                super().__init__(pid=pid, step_interval=1000.0)
                self.sink = sink

            def on_receive(self, sender, payload):
                self.sink.arrivals.append(self.context.transport.now)

        sink = _Sink()
        sim.add_process(_Node(0, sink))
        sim.add_process(_Node(1, sink))
        for send_at in (0.1, 0.7, 1.3, 2.9, 3.4):
            sim.call_at(send_at, lambda: sim.send(0, 1, "burst"), label="send")
        sim.run(until=10.0)
        assert len(sink.arrivals) == 5
        for time in sink.arrivals:
            assert abs(time / 2.0 - round(time / 2.0)) < 1e-9
        # The first window's sends (0.1, 0.7, 1.3) collapse into one burst.
        assert sink.arrivals.count(2.0) == 3

    def test_scheduler_install_is_seeded(self):
        a = quick_cluster(4, seed=13)
        b = quick_cluster(4, seed=13)
        for cluster in (a, b):
            get_scheduler("slow_node").install(cluster)
        net_a, net_b = a.simulator.network, b.simulator.network
        for s in range(4):
            for d in range(4):
                if s != d:
                    assert (
                        net_a.channel(s, d).config.max_delay
                        == net_b.channel(s, d).config.max_delay
                    )

    def test_spec_scheduler_field_applies(self):
        spec = ScenarioSpec(
            name="sched_field", n=3, scheduler="reorder_heavy", require_bootstrap=False
        )
        run = prepare(spec, seed=0)
        chan = run.cluster.simulator.network.channel(0, 1)
        base = run.cluster.config.channel
        assert chan.config.max_delay == pytest.approx(base.max_delay * 8.0)
        with pytest.raises(KeyError, match="unknown scheduler"):
            prepare(replace(spec, scheduler="nope"), seed=0)


# ---------------------------------------------------------------------------
# Certification harness + shrinking
# ---------------------------------------------------------------------------
class TestAuditHarness:
    def test_case_runs_and_certifies(self):
        case = AuditCase(scheduler="uniform", corruption_seed=0)
        result = run_case(case, seed=0)
        assert result["ok"]
        assert result["convergence"]["converged"]
        reports = result["workload_reports"]
        assert reports[0]["workload"] == "arbitrary_state"
        assert reports[0]["atoms_total"] > 0

    def test_same_seed_identical_corruption_and_verdict(self):
        case = AuditCase(scheduler="delay_skew", corruption_seed=1)
        first = run_case(case, seed=3)
        second = run_case(case, seed=3)
        assert first["workload_reports"] == second["workload_reports"]
        assert first["statistics"] == second["statistics"]
        assert first["convergence"] == second["convergence"]
        assert first["probes"] == second["probes"]

    def test_audit_path_trajectory_pin(self):
        """The audit path's 1794/1726: every verdict, stabilization time,
        invariant interval and corruption report of the benchmark's matrix
        (8 schedulers x 4 corruptions, n=8, simulator seed 89, warm prefix
        snapshots), as one digest.  Computed on the commit *before* recSA's
        verdict memo, the one-pass failure detector and byte snapshots; it
        moves only when a trajectory does, and then the PR says why."""
        cases = build_cases(corruption_seeds=range(4), n=8)
        report = certify(cases, seeds=[89], workers=1, reuse_prefix=True, store=None)
        assert report["certified"], report["failed"]
        assert report["meta"]["prefix_reuse"]["warm_runs"] == 32
        assert hashlib.sha256(report_bytes(report)).hexdigest() == (
            "e674463240c5960422d704c6f57ec52990a47e6244c3f6d5977d3e93ccb71738"
        )
        # ``store`` survives only for the benchmark's call above: None is its
        # one accepted value.
        with pytest.raises(TypeError):
            certify(cases[:1], seeds=[89], store=object())

    def test_certify_sweep_all_schedulers(self):
        cases = build_cases(corruption_seeds=[0])
        report = certify(cases, seeds=[0], shrink_failures=False)
        assert report["certified"], report["failed"]
        assert report["meta"]["runs"] == len(available_schedulers())
        # Every verdict carries the corruption report and convergence summary,
        # and at n=5 bootstrap always finishes before corrupt_at=30 — the
        # corruption demonstrably hit an already-converged system.
        for verdict in report["verdicts"]:
            assert verdict["corruption"][0]["atoms_total"] > 0
            assert verdict["convergence"]["converged"]
            assert verdict["corrupted_converged_state"] is True
        assert report["meta"]["corrupted_mid_bootstrap"] == 0

    def test_case_names_encode_topology_and_stack(self):
        a = AuditCase(scheduler="uniform", corruption_seed=0, n=5, stack="bare")
        b = AuditCase(scheduler="uniform", corruption_seed=0, n=8, stack="counters")
        assert a.name != b.name  # no cross-sweep registry aliasing

    def test_invariants_arm_after_corruption(self):
        case = AuditCase(
            scheduler="uniform",
            corruption_seed=0,
            invariants=(probes.no_reset_invariant(),),
        )
        # An empty corruption plan must certify: bootstrap resets happen
        # before the invariant arms, so a violation is attributable to the
        # injected state only.
        empty = run_case(case, seed=0, include=())
        assert empty["ok"]
        assert empty["invariants"]["ok"]

    def test_shrink_broken_invariant_to_minimal_reproducer(self):
        case = AuditCase(
            scheduler="uniform",
            corruption_seed=0,
            invariants=(probes.no_reset_invariant(),),
        )
        full = run_case(case, seed=0)
        assert not full["ok"]  # the deliberately broken invariant fires
        reproducer = shrink_case(case, seed=0)
        assert reproducer["still_fails"]
        assert 1 <= reproducer["minimal_size"] < reproducer["atoms_total"]
        assert len(reproducer["atoms"]) == reproducer["minimal_size"]

    def test_shrink_is_deterministic(self):
        case = AuditCase(
            scheduler="uniform",
            corruption_seed=0,
            invariants=(probes.no_reset_invariant(),),
        )
        a = shrink_case(case, seed=0)
        b = shrink_case(case, seed=0)
        assert a == b

    def test_workload_include_subsets_plan(self):
        spec = ScenarioSpec(
            name="subset",
            n=3,
            workloads=(ArbitraryStateWorkload(at=20.0, seed=0, include=(0, 1, 2)),),
            horizon=25.0,
            probes=(probes.converged(4_000),),
        )
        result = run_scenario(spec, seed=0)
        report = result["workload_reports"][0]
        assert report["atoms_selected"] == 3
        assert report["atoms_total"] > 3


# ---------------------------------------------------------------------------
# The deterministic report surface: sweeps byte-compare equal
# ---------------------------------------------------------------------------
def _report_cases():
    return build_cases(schedulers=["uniform"], corruption_seeds=[0, 1])


class TestDeterministicReport:
    def test_serial_and_parallel_runs_byte_compare_equal(self):
        cases = _report_cases()
        serial = certify(cases, seeds=[0, 1], workers=1)
        parallel = certify(cases, seeds=[0, 1], workers=2)
        assert report_bytes(serial) == report_bytes(parallel)

    def test_certify_leaves_the_scenario_registry_unchanged(self):
        """The sweep runs the cases it is handed; nothing is registered by
        name, so certifying leaves no trace in the process."""
        before = available_scenarios()
        report = certify(_report_cases(), seeds=[0], workers=2)
        assert report["meta"]["runs"] == 2
        assert available_scenarios() == before

    def test_projection_drops_scheduling_meta_only(self):
        report = certify(_report_cases(), seeds=[0])
        det = deterministic_report(report)
        assert "wall_seconds" not in json.dumps(det)
        assert "worker_pid" not in json.dumps(det)
        for key in ("sweep", "workers", "prefix_reuse"):
            assert key not in det["meta"]
        assert det["certified"] == report["certified"]
        assert len(det["verdicts"]) == len(report["verdicts"])
        assert det["meta"]["runs"] == report["meta"]["runs"]


# ---------------------------------------------------------------------------
# Environment-program sweep surface: stacks, profiles, smoke, gate
# ---------------------------------------------------------------------------
class TestAuditStacksAndProfiles:
    def test_dynamic_schedulers_registered(self):
        from repro.audit.schedulers import dynamic_schedulers, static_schedulers

        assert dynamic_schedulers() == [
            "crash_recovery",
            "partition_leak",
            "target_coordinator",
        ]
        assert set(static_schedulers()) == {
            "uniform",
            "delay_skew",
            "reorder_heavy",
            "burst_delivery",
            "slow_node",
        }

    def test_build_cases_stacks_arm_smr_agreement(self):
        cases = build_cases(
            schedulers=["uniform"], corruption_seeds=[0], stacks=["bare", "vs_smr"]
        )
        by_stack = {case.stack: case for case in cases}
        assert by_stack["bare"].invariants == ()
        assert [inv.name for inv in by_stack["vs_smr"].invariants] == ["smr_agreement"]

    def test_profile_names_disambiguate_registered_specs(self):
        light = AuditCase(scheduler="uniform", corruption_seed=0, profile="light")
        heavy = AuditCase(scheduler="uniform", corruption_seed=0, profile="heavy")
        default = AuditCase(scheduler="uniform", corruption_seed=0)
        assert len({light.name, heavy.name, default.name}) == 3
        assert default.profile_name == "default"

    def test_unknown_profile_fails_fast(self):
        case = AuditCase(scheduler="uniform", corruption_seed=0, profile="nope")
        with pytest.raises(KeyError, match="unknown corruption profile"):
            case.to_spec()

    def test_dynamic_case_params_anchor_at_corruption(self):
        case = AuditCase(scheduler="crash_recovery", corruption_seed=0, corrupt_at=30.0)
        params = dict(case.to_spec().scheduler_params)
        assert params["start"] == pytest.approx(32.0)
        # Explicit params override the audit-tuned defaults.
        custom = AuditCase(
            scheduler="crash_recovery",
            corruption_seed=0,
            scheduler_params=(("start", 99.0),),
        )
        assert dict(custom.to_spec().scheduler_params)["start"] == pytest.approx(99.0)

    def test_smr_agreement_holds_on_vs_smr_audit_case(self):
        case = build_cases(
            schedulers=["uniform"], corruption_seeds=[0], stacks=["vs_smr"]
        )[0]
        result = run_case(case, seed=0)
        assert result["ok"]
        assert result["invariants"]["ok"]

    def test_smr_audit_invariant_is_not_vacuous(self):
        # The SMR-stack audit cases multicast commands around the corruption,
        # so the armed smr_agreement invariant compares real (non-empty)
        # delivery histories.
        from repro.scenarios.runner import execute, prepare

        case = build_cases(
            schedulers=["uniform"], corruption_seeds=[0], stacks=["vs_smr"]
        )[0]
        run = prepare(case.to_spec(), seed=0)
        result = execute(run)
        assert result["ok"]
        histories = [
            node.service_map["vs"].delivery_history()
            for node in run.cluster.alive_nodes()
        ]
        assert any(history for history in histories)

    def test_case_names_do_not_alias_across_params_or_profiles(self):
        plain = AuditCase(scheduler="partition_leak", corruption_seed=0)
        tuned = AuditCase(
            scheduler="partition_leak",
            corruption_seed=0,
            scheduler_params=(("leak", 0.5),),
        )
        ad_hoc_a = AuditCase(
            scheduler="uniform", corruption_seed=0,
            profile=CorruptionProfile(field_probability=0.31),
        )
        ad_hoc_b = AuditCase(
            scheduler="uniform", corruption_seed=0,
            profile=CorruptionProfile(field_probability=0.32),
        )
        names = {plain.name, tuned.name, ad_hoc_a.name, ad_hoc_b.name}
        assert len(names) == 4

    def test_smoke_cases_cover_dynamic_and_smr(self):
        from repro.audit.__main__ import MATRICES

        cases, _ = MATRICES["smoke"]
        schedulers = {case.scheduler for case in cases}
        assert {"crash_recovery", "partition_leak", "target_coordinator"} <= schedulers
        stacks = {case.stack for case in cases}
        assert {"bare", "labels", "vs_smr", "shared_register"} <= stacks
        armed = [
            case for case in cases if any(i.name == "smr_agreement" for i in case.invariants)
        ]
        assert armed and all(case.stack != "bare" for case in armed)

    def test_stabilization_distribution_shape(self):
        from repro.audit.harness import stabilization_distribution

        verdicts = [
            {"case": "a", "seed": 0, "convergence": {"stabilization_time": 10.0}},
            {"case": "a", "seed": 1, "convergence": {"stabilization_time": 30.0}},
            {"case": "b", "seed": 0, "convergence": {"stabilization_time": 20.0}},
            {"case": "b", "seed": 1, "convergence": {"stabilization_time": None}},
        ]
        dist = stabilization_distribution(verdicts)
        assert dist["runs"] == 3
        assert dist["worst"] == 30.0
        assert dist["by_case"] == {"a": 30.0, "b": 20.0}
        assert dist["unconverged"] == ["b@1"]


class TestConvergenceGate:
    def test_gate_passes_within_tolerance(self):
        from repro.audit.gate import compare

        outcome = compare(
            {"worst": 110.0, "unconverged": [], "by_case": {"a": 110.0}},
            {"worst": 100.0, "by_case": {"a": 100.0}},
            tolerance=0.25,
        )
        assert outcome["ok"] and not outcome["failures"]

    def test_gate_fails_beyond_tolerance(self):
        from repro.audit.gate import compare

        outcome = compare(
            {"worst": 130.0, "unconverged": [], "by_case": {}},
            {"worst": 100.0, "by_case": {}},
            tolerance=0.25,
        )
        assert not outcome["ok"]
        assert "regressed" in outcome["failures"][0]

    def test_gate_fails_on_unconverged_runs(self):
        from repro.audit.gate import compare

        outcome = compare(
            {"worst": 50.0, "unconverged": ["x@0"], "by_case": {}},
            {"worst": 100.0, "by_case": {}},
        )
        assert not outcome["ok"]

    def test_gate_warns_on_per_case_regression(self):
        from repro.audit.gate import compare

        outcome = compare(
            {"worst": 100.0, "unconverged": [], "by_case": {"a": 100.0, "b": 90.0}},
            {"worst": 100.0, "by_case": {"a": 100.0, "b": 50.0}},
            tolerance=0.25,
        )
        assert outcome["ok"]  # overall worst unchanged
        assert outcome["warnings"] and "b" in outcome["warnings"][0]

    def test_gate_fails_when_a_pinned_case_or_run_goes_missing(self):
        # A matrix that silently loses cells must not pass on the worst case
        # of what is left.
        from repro.audit.gate import compare

        pinned = {"worst": 100.0, "runs": 6, "by_case": {"a": 100.0, "b": 50.0}}
        lost_case = compare(
            {"worst": 100.0, "runs": 3, "unconverged": [], "by_case": {"a": 100.0}},
            pinned,
        )
        assert not lost_case["ok"]
        assert any("'b'" in failure for failure in lost_case["failures"])
        assert any("run count" in failure for failure in lost_case["failures"])
        lost_runs = compare(
            {"worst": 100.0, "runs": 4, "unconverged": [], "by_case": pinned["by_case"]},
            pinned,
        )
        assert not lost_runs["ok"]
        assert compare({**pinned, "unconverged": []}, pinned)["ok"]

    def test_matrices_and_pins_agree(self):
        from repro.audit.__main__ import MATRICES
        from repro.audit.gate import load_pins

        pins = load_pins()
        assert set(MATRICES) == set(pins)
        for name, (cases, seeds) in MATRICES.items():
            pinned = pins[name]
            assert pinned["worst"] > 0 and pinned["by_case"], name
            assert set(pinned["by_case"]) == {case.name for case in cases}, name
            assert pinned["runs"] == len(cases) * len(seeds), name
