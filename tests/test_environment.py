"""Tests for the time-varying NetworkEnvironment layer.

Covers the directed/leaky/named partition model (per-partition heal, one-way
blocks, leak draws), the link-state layer stack (overlays over overrides
over policies over the default), the late-joiner shaping regression the
refactor fixes (a node joining under ``slow_node``/``delay_skew`` gets
shaped channels in both directions), the dynamic environment programs
selectable through :class:`~repro.scenarios.spec.ScenarioSpec`, and the
``smr_agreement`` invariant's prefix semantics.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import probes
from repro.audit.schedulers import current_coordinator, get_scheduler
from repro.node.config import ChannelConfig
from repro.node.process import Process
from repro.scenarios import ScenarioSpec, run_scenario
from repro.scenarios.runner import prepare
from repro.sim.simulator import Simulator

from tests.conftest import invariant_by_name, quick_cluster


class _Sink(Process):
    def __init__(self, pid):
        super().__init__(pid=pid, step_interval=1000.0)
        self.received = []

    def on_receive(self, sender, payload):
        self.received.append((sender, payload))


def _two_nodes(seed: int = 1, **channel_kwargs) -> Simulator:
    config = ChannelConfig(min_delay=0.1, max_delay=0.2, **channel_kwargs)
    sim = Simulator(seed=seed, channel_config=config)
    sim.add_process(_Sink(1))
    sim.add_process(_Sink(2))
    return sim


# ---------------------------------------------------------------------------
# Directed, leaky, named partitions
# ---------------------------------------------------------------------------
class TestDirectedPartitions:
    def test_one_way_partition_blocks_single_direction(self):
        sim = _two_nodes()
        sim.network.environment.partition([1], [2], symmetric=False)
        for _ in range(5):
            sim.send(1, 2, "forward")
            sim.send(2, 1, "reverse")
        sim.run(until=10.0)
        forward = sim.processes[2].received
        reverse = sim.processes[1].received
        assert forward == []
        assert len(reverse) == 5

    def test_per_partition_heal(self):
        sim = _two_nodes()
        sim.add_process(_Sink(3))
        env = sim.network.environment
        first = env.partition([1], [2], name="a")
        env.partition([1], [3], name="b")
        assert env.summary()["active_partitions"] == ["a", "b"]
        freed = env.heal(first)
        assert freed == 2  # both directions of the 1<->2 split
        assert env.summary()["active_partitions"] == ["b"]
        sim.send(1, 2, "healed")
        sim.send(1, 3, "still blocked")
        sim.run(until=10.0)
        assert sim.processes[2].received == [(1, "healed")]
        assert sim.processes[3].received == []

    def test_heal_unknown_partition_is_noop(self):
        sim = _two_nodes()
        assert sim.network.environment.heal("nope") == 0

    def test_leaky_partition_passes_some_packets(self):
        sim = _two_nodes(seed=3)
        sim.network.environment.partition([1], [2], leak=0.3)
        # Spread the sends out so channel capacity never throttles them.
        for i in range(200):
            sim.call_at(float(i), lambda: sim.send(1, 2, "leak?"), label="send")
        sim.run(until=300.0)
        leaked = len(sim.processes[2].received)
        # A 30% leak over 200 sends: comfortably between "none" and "all".
        assert 20 < leaked < 120

    def test_leak_is_deterministic_per_seed(self):
        def run(seed):
            sim = _two_nodes(seed=seed)
            sim.network.environment.partition([1], [2], leak=0.2)
            for i in range(100):
                sim.call_at(float(i), lambda i=i: sim.send(1, 2, i), label="send")
            sim.run(until=200.0)
            return [payload for _, payload in sim.processes[2].received]

        first = run(7)
        assert first == run(7)
        assert 0 < len(first) < 100  # the leak actually filtered

    def test_leak_free_overlapping_partition_wins(self):
        # A packet must leak through EVERY blocking partition; one leak-free
        # blocker therefore drops everything.
        sim = _two_nodes(seed=2)
        sim.network.environment.partition([1], [2], name="leaky", leak=0.9)
        sim.network.environment.partition([1], [2], name="wall", leak=0.0)
        for _ in range(50):
            sim.send(1, 2, "x")
        sim.run(until=20.0)
        assert sim.processes[2].received == []

    def test_invalid_leak_rejected(self):
        sim = _two_nodes()
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError, match="leak probability"):
            sim.network.environment.partition([1], [2], leak=1.0)


# ---------------------------------------------------------------------------
# Link-state layers: overlays > overrides > policies > default
# ---------------------------------------------------------------------------
class TestLinkStateLayers:
    def test_overlay_wins_and_pop_restores_override(self):
        # Channel configs are *pulled* through the memoized resolve on every
        # ``network.channel()`` access (PR 5), so the current shaping of a
        # pair is read by re-fetching the channel, and a mutation is O(1)
        # instead of a walk over touched channels.
        sim = _two_nodes()
        env = sim.network.environment
        override = ChannelConfig(min_delay=1.0, max_delay=2.0)
        env.set_link_config(1, 2, override)
        assert sim.network.channel(1, 2).config is override
        overlay = ChannelConfig(min_delay=5.0, max_delay=6.0)
        env.apply_overlay("slow", {(1, 2): overlay})
        assert sim.network.channel(1, 2).config is overlay
        assert env.remove_overlay("slow")
        assert sim.network.channel(1, 2).config is override
        assert not env.remove_overlay("slow")  # idempotent

    def test_policy_shapes_channels_created_later(self):
        sim = _two_nodes()
        shaped = ChannelConfig(min_delay=3.0, max_delay=4.0)
        sim.network.environment.add_link_policy(
            "test", lambda s, d: shaped if d == 2 else None
        )
        assert sim.network.channel(1, 2).config is shaped
        assert sim.network.channel(2, 1).config is sim.network.default_config

    def test_policy_reshapes_existing_unoverridden_channels(self):
        sim = _two_nodes()
        assert sim.network.channel(1, 2).config is sim.network.default_config
        shaped = ChannelConfig(min_delay=3.0, max_delay=4.0)
        sim.network.environment.add_link_policy("test", lambda s, d: shaped)
        assert sim.network.channel(1, 2).config is shaped

    def test_transitions_are_recorded_with_time(self):
        sim = _two_nodes()
        env = sim.network.environment
        sim.call_at(5.0, lambda: env.partition([1], [2], name="p"))
        sim.call_at(9.0, lambda: env.heal("p"))
        sim.run(until=20.0)
        summary = env.summary()
        assert summary["by_kind"] == {"partition": 1, "heal": 1}
        times = {entry["kind"]: entry["time"] for entry in summary["events"]}
        assert times == {"partition": 5.0, "heal": 9.0}


# ---------------------------------------------------------------------------
# Regression: late joiners inherit the active shaping (ISSUE satellite)
# ---------------------------------------------------------------------------
class TestLateJoinerShaping:
    def test_joiner_under_slow_node_gets_shaped_channels_both_directions(self):
        cluster = quick_cluster(4, seed=13)
        get_scheduler("slow_node").install(cluster)
        network = cluster.simulator.network
        base = cluster.config.channel
        victim = next(
            p
            for p in range(4)
            if all(
                network.channel(p, q).config.max_delay > base.max_delay
                for q in range(4)
                if q != p
            )
        )
        joiner = cluster.add_joiner(99)
        for a, b in ((victim, joiner.pid), (joiner.pid, victim)):
            config = network.channel(a, b).config
            assert config.max_delay == pytest.approx(base.max_delay * 10.0)
            assert config.min_delay == pytest.approx(base.min_delay * 10.0)
        # Joiner links not involving the victim stay at the base shape.
        bystander = next(p for p in range(4) if p != victim)
        assert network.channel(joiner.pid, bystander).config.max_delay == pytest.approx(
            base.max_delay
        )

    def test_joiner_under_delay_skew_gets_skewed_channels_both_directions(self):
        cluster = quick_cluster(3, seed=8)
        get_scheduler("delay_skew").install(cluster)
        network = cluster.simulator.network
        base = cluster.config.channel
        cluster.add_joiner(50)
        configs = [network.channel(50, 0).config, network.channel(0, 50).config]
        for config in configs:
            # Skewed: scaled from the base by a per-pair factor (min and max
            # move together), and essentially never exactly the base shape.
            ratio = config.max_delay / base.max_delay
            assert ratio == pytest.approx(config.min_delay / base.min_delay)
            assert 0.5 <= ratio < 8.0
        # Directions draw independent factors.
        assert configs[0].max_delay != configs[1].max_delay

    def test_joiner_shaping_is_deterministic(self):
        shapes = []
        for _ in range(2):
            cluster = quick_cluster(3, seed=21)
            get_scheduler("delay_skew").install(cluster)
            cluster.add_joiner(50)
            network = cluster.simulator.network
            shapes.append(
                (
                    network.channel(50, 1).config.max_delay,
                    network.channel(1, 50).config.max_delay,
                )
            )
        assert shapes[0] == shapes[1]


# ---------------------------------------------------------------------------
# Dynamic environment programs through the scenario engine
# ---------------------------------------------------------------------------
class TestDynamicSchedulers:
    def test_selectable_via_spec_with_params(self):
        spec = ScenarioSpec(
            name="env_partition_leak",
            n=4,
            scheduler="partition_leak",
            scheduler_params=(
                ("at", 10.0), ("flip_at", 20.0), ("heal_at", 30.0), ("leak", 0.2),
            ),
            horizon=40.0,
            probes=(probes.converged(4_000),),
            require_bootstrap=True,
        )
        result = run_scenario(spec, seed=0)
        assert result["ok"]
        env = result["environment"]
        assert env["by_kind"]["partition"] == 2
        assert env["by_kind"]["heal"] == 2
        assert env["active_partitions"] == []

    def test_unknown_scheduler_param_fails_fast(self):
        spec = ScenarioSpec(
            name="env_bad_param",
            n=3,
            scheduler="crash_recovery",
            scheduler_params=(("outage_typo", 1.0),),
            require_bootstrap=False,
        )
        with pytest.raises(TypeError, match="rejected parameters"):
            prepare(spec, seed=0)

    def test_crash_recovery_blackout_blocks_then_heals(self):
        spec = ScenarioSpec(
            name="env_crash_recovery",
            n=4,
            scheduler="crash_recovery",
            scheduler_params=(("start", 10.0), ("period", 15.0), ("outage", 5.0), ("epochs", 2)),
            horizon=50.0,
            probes=(probes.converged(4_000),),
        )
        result = run_scenario(spec, seed=1)
        assert result["ok"]
        env = result["environment"]
        assert env["by_kind"]["partition"] == 2
        assert env["by_kind"]["heal"] == 2

    def test_target_coordinator_targets_the_coordinator(self):
        cluster = quick_cluster(4, seed=5)
        get_scheduler("target_coordinator").install(
            cluster, start=5.0, period=10.0, epochs=2, slow_factor=4.0
        )
        assert cluster.run_until_converged(timeout=4_000)
        cluster.run(until=cluster.simulator.now + 10.0)
        targets = [
            entry["victim"]
            for entry in cluster.environment.summary()["events"]
            if entry["kind"] == "target"
        ]
        assert targets, "the adaptive program never picked a victim"
        # The victim read off the environment log is a plausible coordinator:
        # with the bare stack the proxy is the max alive configuration member.
        assert set(targets) <= set(cluster.nodes)

    def test_current_coordinator_prefers_vs_leader(self):
        spec = ScenarioSpec(
            name="env_vs_leader",
            n=3,
            stack="vs_smr",
            probes=(probes.view_installed(6_000),),
        )
        run = prepare(spec, seed=2)
        from repro.scenarios.runner import execute

        result = execute(run)
        assert result["ok"]
        leader = current_coordinator(run.cluster)
        vs = run.cluster.nodes[leader].service_map["vs"]
        assert vs.is_coordinator()


# ---------------------------------------------------------------------------
# smr_agreement invariant semantics
# ---------------------------------------------------------------------------
class TestSMRAgreementInvariant:
    def _converged_vs_cluster(self):
        spec = ScenarioSpec(
            name="env_smr_inv",
            n=3,
            stack="vs_smr",
            probes=(probes.view_installed(6_000),),
        )
        run = prepare(spec, seed=4)
        from repro.scenarios.runner import execute

        result = execute(run)
        assert result["ok"]
        return run.cluster

    def test_holds_with_follower_lag(self):
        cluster = self._converged_vs_cluster()
        services = [
            node.service_map["vs"]
            for node in cluster.alive_nodes()
            if node.service_map["vs"].view is not None
        ]
        assert probes.smr_histories_agree(cluster)
        # A replica that lags (strict prefix) does not violate agreement.
        services[0]._delivered_history.append((99, "extra"))
        assert probes.smr_histories_agree(cluster)

    def test_divergence_same_view_is_violation(self):
        cluster = self._converged_vs_cluster()
        services = [
            node.service_map["vs"]
            for node in cluster.alive_nodes()
            if node.service_map["vs"].view is not None
        ]
        services[0]._delivered_history.append((99, "fork-a"))
        services[1]._delivered_history.append((99, "fork-b"))
        assert not probes.smr_histories_agree(cluster)

    def test_vacuous_on_stacks_without_vs(self):
        cluster = quick_cluster(3, seed=1)
        assert probes.smr_histories_agree(cluster)

    def test_invariant_by_name_registry(self):
        invariant = invariant_by_name("smr_agreement")
        assert invariant.name == "smr_agreement"
        with pytest.raises(KeyError, match="unknown invariant"):
            invariant_by_name("definitely_not_registered")
