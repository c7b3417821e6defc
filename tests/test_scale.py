"""Scale regression tests.

Pins the behavior-preservation contract of the large-n paths:

* the convergence predicate reads node state as it is, so a write behind
  a node's back moves the verdict at once;
* ``run_until`` poll throttling delays *detection* by at most one poll
  interval and never changes the trajectory;
* same-seed runs at large n are bit-identical.
"""

from __future__ import annotations

import pytest

from tests.conftest import quick_cluster
from repro.common.types import BOTTOM
from repro.failure_detector.ntheta import NThetaFailureDetector
from repro.sim.cluster import build_cluster
from repro.sim.config import fast_sim


def _stats_at(n, seed, horizon, **overrides):
    cluster = quick_cluster(n, seed=seed, **overrides)
    cluster.run(until=horizon)
    return cluster.statistics()


class TestConvergencePredicate:
    def test_out_of_band_write_is_seen_at_once(self):
        """Nothing tells the cluster about a direct write to a node's own
        config slot; the next check still answers on the state as it is."""
        cluster = build_cluster(n=4, seed=3, config=fast_sim())
        assert cluster.run_until_converged(timeout=300)
        assert cluster.is_converged()
        cluster.nodes[0].recsa.config[0] = BOTTOM
        assert not cluster.is_converged()


class TestPollThrottling:
    def test_detection_within_one_poll_interval_of_exact(self):
        exact = quick_cluster(8, seed=31)
        assert exact.simulator.run_until(
            exact.is_converged, timeout=300, poll_interval=0.0
        )
        t_exact = exact.simulator.now

        throttled = quick_cluster(8, seed=31)
        poll = throttled.config.poll_interval()
        assert poll > 0.0
        assert throttled.run_until_converged(timeout=300)
        assert t_exact <= throttled.simulator.now <= t_exact + poll + 1e-9

    def test_throttled_run_checks_predicate_fewer_times(self):
        calls = {"exact": 0, "throttled": 0}

        def counting(cluster, key):
            inner = cluster.is_converged

            def probe():
                calls[key] += 1
                return inner()

            return probe

        for key, exact in (("exact", True), ("throttled", False)):
            cluster = quick_cluster(8, seed=37)
            cluster.simulator.run_until(
                counting(cluster, key),
                timeout=40.0,
                poll_interval=0.0 if exact else cluster.config.poll_interval(),
            )
        assert calls["throttled"] < calls["exact"]


class TestScaledFailureDetector:
    def test_default_slack_matches_detector_default(self):
        """The config's default slack is the detector's own default, and an
        explicit 16 is the same trajectory as the default.

        Guards the seed trajectories: every small-n pin runs on this value.
        """
        detector = NThetaFailureDetector(pid=0, upper_bound_n=4)
        assert fast_sim().fd_gap_slack == detector.gap_slack == 16
        default = _stats_at(12, seed=7, horizon=40.0)
        explicit = _stats_at(12, seed=7, horizon=40.0, fd_gap_slack=16)
        assert default == explicit

    def test_scaled_slack_unlocks_n128_bootstrap(self):
        """With slack ~ 2n an n=128 cold bootstrap converges in ~13 rounds.

        With the default slack it *never* converges (suspicion churn keeps
        the no-reconfiguration windows from ever aligning cluster-wide) —
        this is the scale-push headline and the benchmark's n=128 leg.
        """
        cluster = quick_cluster(128, seed=89, fd_gap_slack=256)
        assert cluster.run_until_converged(timeout=10.0)
        assert cluster.simulator.now < 6.0


class TestTransportRewireGuard:
    def test_bootstrap_n16_pin_survives_transport_split(self):
        """The transport-split pin: routing every process through the
        transport boundary (the ``Simulator`` itself) must leave the
        benchmark headline trajectory byte-identical — bootstrap_n16 at
        seed 89 executes exactly 1794 events and delivers exactly 1726
        messages."""
        from repro.scenarios import ScenarioSpec, run_scenario

        spec = ScenarioSpec(
            name="bootstrap_n16", n=16, config="fast_sim",
            bootstrap_timeout=6_000.0,
        )
        result = run_scenario(spec, seed=89)
        stats = result["statistics"]
        assert result["bootstrapped"]
        assert stats["executed_events"] == 1794
        assert stats["delivered_messages"] == 1726
        assert stats["time"] == pytest.approx(4.857012582571038)

    def test_degraded_net_n8_pin_covers_the_loss_branch(self):
        """The lossy counterpart of the pin above: ``degraded_net`` (5 %
        loss, delays 0.2-1.2) at n=8, seed 89, run for 60 time units.  Every
        unicast and burst send takes the loss draw before its delay draw, so
        this pins the trajectory of ``loss_probability`` — which the lossless
        canary and the audit digest do not exercise."""
        from repro.sim.cluster import build_cluster
        from repro.sim.config import degraded_net

        cluster = build_cluster(8, 89, config=degraded_net())
        cluster.run(until=60.0)
        stats = cluster.statistics()
        assert cluster.is_converged()
        assert stats["executed_events"] == 3931
        assert stats["delivered_messages"] == 3453
        assert stats["net_dropped"] == 204
        assert stats["net_sent"] == 3698


class TestScaleDeterminism:
    def test_same_seed_is_bit_identical_at_n128(self):
        """Two cold n=128 bootstraps, same seed, byte-identical statistics.

        The horizon is short — the point is determinism at scale, not
        convergence (which gets its own curve in the audit
        tier and benchmarks).
        """
        first = _stats_at(128, seed=89, horizon=2.0)
        second = _stats_at(128, seed=89, horizon=2.0)
        assert first == second
        assert first["executed_events"] > 10_000

    def test_different_seeds_diverge_at_scale(self):
        first = _stats_at(64, seed=89, horizon=2.0)
        second = _stats_at(64, seed=90, horizon=2.0)
        assert first != second
