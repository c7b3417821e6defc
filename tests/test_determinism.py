"""Determinism guards for the fast-path refactor.

Two full-stack runs from the same ``(topology, seed)`` must be byte-identical
in every observable statistic: this pins the tuple-heap tie-breaking, the
per-stream RNG derivation (including the dedicated broadcast stream used by
``send_many``) and the change-detected gossip, all of which must be pure
functions of the seeded state.
"""

from __future__ import annotations

import pytest

from tests.conftest import quick_cluster


def _bootstrap_run(n: int, seed: int, extra_horizon: float = 60.0):
    """One full bootstrap (plus steady-state tail) returning all observables."""
    cluster = quick_cluster(n, seed=seed)
    converged = cluster.run_until_converged(timeout=6_000)
    cluster.run(until=cluster.simulator.now + extra_horizon)
    stats = cluster.statistics()
    gossip = {
        pid: (
            node.recsa.broadcasts_sent,
            node.recsa.broadcasts_skipped,
            node.recma.broadcasts_sent,
            node.recma.broadcasts_skipped,
        )
        for pid, node in cluster.nodes.items()
    }
    return {
        "converged": converged,
        "config": cluster.agreed_configuration(),
        "statistics": stats,
        "gossip": gossip,
        "now": cluster.simulator.now,
    }


class TestSeededDeterminism:
    @pytest.mark.parametrize("n,seed", [(4, 11), (8, 89)])
    def test_same_seed_identical_statistics(self, n, seed):
        first = _bootstrap_run(n, seed)
        second = _bootstrap_run(n, seed)
        assert first["converged"] and second["converged"]
        assert first["statistics"] == second["statistics"]
        assert first["config"] == second["config"]
        assert first["gossip"] == second["gossip"]
        assert first["now"] == second["now"]

    def test_different_seeds_diverge(self):
        # Sanity check that the comparison above is not vacuous.
        a = _bootstrap_run(4, seed=11)
        b = _bootstrap_run(4, seed=12)
        assert a["statistics"] != b["statistics"]

    def test_crash_recovery_deterministic(self):
        def run():
            cluster = quick_cluster(5, seed=23)
            assert cluster.run_until_converged(timeout=6_000)
            cluster.crash(4)
            cluster.run_until_converged(timeout=6_000)
            return cluster.statistics(), cluster.agreed_configuration()

        assert run() == run()
