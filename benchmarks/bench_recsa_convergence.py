"""E1 (Theorem 3.15, Convergence): recSA convergence from arbitrary states.

Measures the simulated time until every alive participant holds the same
configuration and reports stability, both from a cold (all-reset) start and
from a scrambled (transient-fault) state, for increasing system sizes.
"""

from __future__ import annotations

import pytest

from repro.audit.arbitrary_state import apply_plan, generate_plan

from conftest import bench_cluster, record


def _converge_from_scratch(n: int, seed: int) -> dict:
    cluster = bench_cluster(n, seed=seed)
    converged = cluster.run_until_converged(timeout=4_000)
    return {
        "n": n,
        "converged": converged,
        "time_to_converge": cluster.simulator.now,
        "resets": sum(node.recsa.reset_count for node in cluster.nodes.values()),
        "events": cluster.simulator.executed_events,
    }


def _converge_from_scramble(n: int, seed: int) -> dict:
    cluster = bench_cluster(n, seed=seed)
    assert cluster.run_until_converged(timeout=4_000)
    start = cluster.simulator.now
    apply_plan(cluster, generate_plan(cluster, seed=seed + 1, profile="scramble"))
    converged = cluster.run_until_converged(timeout=20_000)
    return {
        "n": n,
        "converged": converged,
        "recovery_time": cluster.simulator.now - start,
        "resets": sum(node.recsa.reset_count for node in cluster.nodes.values()),
    }


@pytest.mark.parametrize("n", [4, 8, 12])
def test_convergence_from_cold_start(benchmark, n):
    result = benchmark.pedantic(_converge_from_scratch, args=(n, 11), rounds=1, iterations=1)
    record(benchmark, result)
    assert result["converged"]


@pytest.mark.parametrize("n", [4, 8])
def test_convergence_after_transient_faults(benchmark, n):
    result = benchmark.pedantic(_converge_from_scramble, args=(n, 17), rounds=1, iterations=1)
    record(benchmark, result)
    assert result["converged"]
