"""Tests for the declarative scenario engine and the layers beneath it.

Covers the config layer (ClusterConfig presets, the ``N >= n`` guard),
the service layer (stack profiles instantiated by nodes and joiners), the
unified ``Workload.install(cluster)`` protocol (fire-time churn guards,
corruption plans), probes, scenario determinism and the parallel runner.
"""

from __future__ import annotations

import multiprocessing
import os
from types import SimpleNamespace

import pytest

from repro.analysis import probes
from repro.common.errors import SimulationError
from repro.node.config import ChannelConfig, fast_sim, paper_faithful, preset
from repro.node.stacks import available_stacks, get_stack, stack
from repro.scenarios import (
    ArbitraryStateWorkload,
    ChurnWorkload,
    CrashWorkload,
    FlashJoinWorkload,
    ScenarioSpec,
    available_scenarios,
    get_scenario,
    run_matrix,
    run_scenario,
)
from repro.runtime.cluster import RuntimeCluster
from repro.sim.cluster import build_cluster

from tests.conftest import quick_cluster, scramble

COMPOSED = [
    "churn_during_corruption",
    "quorum_edge_crash_storm",
    "flash_join_wave",
    "partition_heal",
    "register_under_churn",
    "arbitrary_state_recovery",
    "arbitrary_state_reorder",
]


class TestClusterConfig:
    def test_presets_resolve(self):
        for name in ("fast_sim", "paper_faithful", "coherent_start"):
            config = preset(name).resolve(4)
            assert config.channel is not None
            assert config.upper_bound_n == 8

    def test_unknown_preset_raises(self):
        with pytest.raises(SimulationError, match="unknown cluster preset"):
            preset("warp_speed")

    def test_paper_faithful_is_stricter(self):
        config = paper_faithful()
        assert config.require_link_cleaning
        assert config.heartbeat_resend_interval == 1

    def test_resolved_config_reusable_with_new_channel(self):
        resolved = fast_sim().resolve(3)
        config = resolved.with_overrides(channel=ChannelConfig(capacity=4))
        cluster = build_cluster(n=3, config=config)
        assert cluster.config.channel.capacity == 4

    def test_upper_bound_below_n_raises(self):
        # A config resolved for 3 nodes carries N = 6; reusing it at n = 10
        # must not run every detector with N below the processor count.  An
        # explicit 0 is a bound like any other, not "unset".
        bounded = (fast_sim().resolve(3), fast_sim(upper_bound_n=5), fast_sim(upper_bound_n=0))
        for config in bounded:
            with pytest.raises(SimulationError, match="upper_bound_n"):
                build_cluster(n=10, seed=1, config=config)
            with pytest.raises(SimulationError, match="upper_bound_n"):
                RuntimeCluster(n=10, seed=1, config=config)
        spec = get_scenario("flash_join_wave")
        assert (spec.n, spec.config.upper_bound_n) == (4, 20)
        cluster = build_cluster(n=spec.n, seed=0, config=spec.config)
        assert {
            node.failure_detector.upper_bound_n for node in cluster.nodes.values()
        } == {20}

    def test_config_shared_by_late_joiners(self):
        cluster = quick_cluster(3, seed=9, heartbeat_resend_interval=7)
        joiner = cluster.add_joiner(77)
        assert joiner.config is cluster.config
        assert joiner.heartbeat.idle_resend_interval == 7


class TestStackProfiles:
    def test_builtin_registry(self):
        assert {"bare", "labels", "counters", "vs_smr", "shared_register"} <= set(
            available_stacks()
        )

    def test_unknown_stack_raises(self):
        with pytest.raises(KeyError, match="unknown stack profile"):
            get_stack("turbo")

    def test_configure_returns_derived_profile(self):
        base = get_stack("counters")
        derived = stack("counters", seqn_bound=3)
        assert base.options == {}
        assert derived.options == {"seqn_bound": 3}

    def test_nodes_instantiate_stack(self):
        cluster = quick_cluster(3, seed=10, stack="shared_register")
        for node in cluster.nodes.values():
            assert set(node.service_map) == {"counters", "vs", "register"}
            # The services keep the profile's build order.
            assert list(node.service_map) == ["counters", "vs", "register"]

    def test_joiner_gets_the_cluster_stack(self):
        cluster = quick_cluster(3, seed=11, stack="counters")
        joiner = cluster.add_joiner(50)
        assert joiner.service("counters").pid == 50

    def test_missing_service_error_names_stack(self):
        cluster = quick_cluster(2, seed=12)
        with pytest.raises(KeyError, match="stack 'bare'"):
            cluster.nodes[0].service("vs")

    def test_shared_register_rejects_foreign_state_machine(self):
        from repro.vs.smr import KeyValueStateMachine

        with pytest.raises(ValueError, match="pinned to RegisterStateMachine"):
            quick_cluster(
                2, seed=13, stack=stack("shared_register", state_machine=KeyValueStateMachine)
            )


class TestChurnTraceGuards:
    def test_join_of_existing_pid_is_noop(self):
        cluster = quick_cluster(3, seed=81)
        assert cluster.run_until_converged(timeout=800)
        FlashJoinWorkload(at=cluster.simulator.now + 5.0, count=1, first_pid=0).install(cluster)
        cluster.run(until=cluster.simulator.now + 20)
        # Node 0 is the original node, not a rebooted joiner.
        assert cluster.nodes[0].scheme.is_participant()
        assert len(cluster.nodes) == 3

    def test_crash_then_join_of_same_pid_deduplicated(self):
        cluster = quick_cluster(3, seed=82)
        assert cluster.run_until_converged(timeout=800)
        now = cluster.simulator.now
        # Joiner ids starting at 0 collide with the members the same churn
        # crashes: one pid gets both a crash and a join event.
        churn = ChurnWorkload(
            start=now, duration=20.0, crash_rate=0.5, join_rate=0.5, first_new_pid=0, seed=0
        )
        events = churn.events(cluster)
        crashed = {pid for _, kind, pid in events if kind == "crash"}
        joined = {pid for _, kind, pid in events if kind == "join"}
        assert crashed and crashed <= joined
        churn.install(cluster)
        cluster.run(until=now + 25)
        # The crash fired; the join of the same pid never re-added it.
        assert all(cluster.nodes[pid].crashed for pid in crashed)
        assert set(cluster.nodes) == {0, 1, 2} | joined

    def test_crash_of_unknown_pid_is_noop(self):
        cluster = quick_cluster(2, seed=83)
        CrashWorkload(schedule=((5.0, 999),)).install(cluster)
        cluster.run(until=20)  # must not raise
        assert not any(node.crashed for node in cluster.nodes.values())


class TestWorkloadProtocol:
    def test_corruption_during_inflight_reconfiguration_converges(self):
        """Scramble recSA/recMA state while a reconfiguration is mid-flight."""
        cluster = quick_cluster(4, seed=85, stack="counters")
        assert cluster.run_until_converged(timeout=800)
        target = frozenset([0, 1, 2])
        assert cluster.nodes[0].scheme.request_reconfiguration(target)
        # The reconfiguration is now in flight; corrupt most of the cluster.
        layers = {atom.path[0] for atom in scramble(cluster, seed=3, fraction=0.75)}
        assert layers == {"recsa", "recma"}
        assert cluster.run_until_converged(timeout=8_000)
        assert all(node.scheme.no_reco() for node in cluster.participants())

    def test_scramble_workload_fires_at_time(self):
        cluster = quick_cluster(3, seed=86)
        assert cluster.run_until_converged(timeout=800)
        at = cluster.simulator.now + 10.0
        ArbitraryStateWorkload(at=at, profile="scramble").install(cluster)
        cluster.run(until=at + 1.0)  # let the scramble fire
        (report,) = cluster.workload_reports
        assert report["applied"] == report["atoms_total"] > 0
        assert cluster.run_until_converged(timeout=8_000)
        assert cluster.simulator.now > at

    def test_crash_workload_guards_double_crash(self):
        cluster = quick_cluster(3, seed=87)
        CrashWorkload(schedule=((2.0, 1), (4.0, 1), (6.0, 999))).install(cluster)
        cluster.run(until=10)
        assert cluster.nodes[1].crashed

    def test_churn_workload_defaults_seed_to_simulator(self):
        cluster_a = quick_cluster(3, seed=21)
        cluster_b = quick_cluster(3, seed=21)
        for cluster in (cluster_a, cluster_b):
            ChurnWorkload(duration=50.0, crash_rate=0.05, join_rate=0.05).install(cluster)
            cluster.run(until=100)
        assert cluster_a.statistics() == cluster_b.statistics()


class TestScenarioEngine:
    def test_library_contains_composed_scenarios(self):
        assert set(COMPOSED) <= set(available_scenarios())

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("does_not_exist")

    @pytest.mark.parametrize("name", COMPOSED)
    def test_composed_scenarios_pass_and_are_deterministic(self, name):
        first = run_scenario(name, seed=0)
        second = run_scenario(name, seed=0)
        assert first["ok"], f"{name} failed: {first['probes']}"
        # Same seed -> identical statistics dict (and probe outcomes).
        assert first["statistics"] == second["statistics"]
        assert first["probes"] == second["probes"]

    def test_different_seeds_diverge(self):
        a = run_scenario("churn_during_corruption", seed=0)
        b = run_scenario("churn_during_corruption", seed=1)
        assert a["statistics"] != b["statistics"]

    def test_inline_spec_runs(self):
        spec = ScenarioSpec(
            name="inline",
            n=3,
            config=fast_sim(),
            probes=(probes.converged(2_000),),
        )
        result = run_scenario(spec, seed=5)
        assert result["ok"] and result["probes"]["converged"]["satisfied"]

    def test_repeated_probe_names_all_reported(self):
        spec = ScenarioSpec(
            name="repeat_probes",
            n=3,
            probes=(probes.converged(2_000), probes.converged(2_000)),
        )
        result = run_scenario(spec, seed=4)
        assert set(result["probes"]) == {"converged", "converged#2"}
        assert result["ok"]

    def test_matrix_serial(self):
        sweep = run_matrix([get_scenario("bootstrap")], seeds=[0, 1], workers=1)
        assert sweep["meta"]["workers"] == 1
        assert [entry["seed"] for entry in sweep["results"]] == [0, 1]
        assert all(entry["ok"] for entry in sweep["results"])

    def test_matrix_uses_all_configured_workers(self):
        sweep = run_matrix([get_scenario("bootstrap")], seeds=[0, 1, 2, 3], workers=2)
        assert sweep["meta"]["workers"] == 2
        pids = {entry["worker_pid"] for entry in sweep["results"]}
        # Work stealing: jobs go to whichever pool worker is free, so the
        # only hard guarantees are that the pool (not the parent) ran them
        # and that every job is accounted exactly once.  Demanding an exact
        # worker split would be timing-dependent.
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids
        assert sum(w["jobs"] for w in sweep["meta"]["sweep"]["by_worker"].values()) == 4
        assert all(entry["ok"] for entry in sweep["results"])
        # Results come back sorted regardless of completion order.
        assert [entry["seed"] for entry in sweep["results"]] == [0, 1, 2, 3]

    def test_matrix_runs_unregistered_specs(self):
        """A sweep runs the spec objects it is handed: forked workers
        inherit them, so a spec that was never registered sweeps in
        parallel and matches its serial runs."""
        spec = ScenarioSpec(name="unregistered", n=3, probes=(probes.converged(2_000),))
        assert spec.name not in available_scenarios()
        sweep = run_matrix([spec], seeds=[0, 1], workers=2)
        assert sweep["meta"]["workers"] == 2
        volatile = ("wall_seconds", "worker_pid")
        swept = [
            {key: value for key, value in entry.items() if key not in volatile}
            for entry in sweep["results"]
        ]
        assert swept == [run_scenario(spec, seed=seed) for seed in (0, 1)]

    def test_matrix_results_match_serial_runs(self):
        sweep = run_matrix([get_scenario("bootstrap")], seeds=[3], workers=2)
        direct = run_scenario("bootstrap", seed=3)
        (entry,) = sweep["results"]
        assert entry["statistics"] == direct["statistics"]


def _failing_runner(scenario, seed):
    """A sweep job runner: seed 1 raises, every other seed answers at once."""
    if seed == 1:
        raise ValueError("planted")
    return {"scenario": scenario.name, "seed": seed, "ok": True}


def _dying_runner(scenario, seed):
    """A sweep job runner whose seed 1 kills its worker without reporting."""
    if seed == 1:
        os._exit(3)
    return {"scenario": scenario.name, "seed": seed, "ok": True}


class TestSweepFailures:
    job = SimpleNamespace(name="planted")

    def test_raising_job_is_an_error_entry_and_the_rest_finish(self):
        sweep = run_matrix([self.job], seeds=[0, 1, 2, 3], workers=2, job_runner=_failing_runner)
        assert [entry["seed"] for entry in sweep["results"]] == [0, 1, 2, 3]
        failed = sweep["results"][1]
        assert failed["ok"] is False
        assert failed["error"] == "ValueError: planted"
        assert failed["worker_pid"] != os.getpid()
        assert all(entry["ok"] for i, entry in enumerate(sweep["results"]) if i != 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_serial_and_pooled_sweeps_report_a_raising_job_alike(self, workers):
        sweep = run_matrix([self.job], seeds=[0, 1, 2], workers=workers, job_runner=_failing_runner)
        assert [entry["ok"] for entry in sweep["results"]] == [True, False, True]
        assert sweep["results"][1]["error"] == "ValueError: planted"
        assert sweep["meta"]["workers"] == workers

    def test_dead_worker_fails_the_sweep_naming_the_lost_pair(self):
        with pytest.raises(RuntimeError, match=r"\('planted', 1\)"):
            run_matrix([self.job], seeds=[0, 1, 2, 3], workers=2, job_runner=_dying_runner)
        assert multiprocessing.active_children() == []


class TestCLI:
    def test_seed_specs(self):
        from repro.scenarios.__main__ import parse_seeds

        assert parse_seeds("0:4") == [0, 1, 2, 3]
        assert parse_seeds("1,5,9") == [1, 5, 9]
        assert parse_seeds("7") == [7]

    def test_cli_list(self, capsys):
        from repro.scenarios.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in COMPOSED:
            assert name in out

    def test_cli_single_scenario(self, capsys):
        from repro.scenarios.__main__ import main

        assert main(["bootstrap", "--seeds", "0:2"]) == 0
        assert "bootstrap" in capsys.readouterr().out
