"""E9: self-stabilizing scheme vs the coherent-start baseline.

Runs the same transient-fault campaign against the paper's scheme and against
the non-self-stabilizing coherent-start baseline.  The scheme re-converges;
the baseline stays split forever — the contrast the introduction draws with
prior reconfiguration services.
"""

from __future__ import annotations

import pytest

from repro.audit.arbitrary_state import apply_plan, generate_plan
from repro.baselines.coherent_start import CoherentStartNode
from repro.common.types import make_config
from repro.sim.simulator import Simulator

from conftest import bench_cluster, record


def _scheme_under_faults(n: int, seed: int) -> dict:
    cluster = bench_cluster(n, seed=seed)
    assert cluster.run_until_converged(timeout=4_000)
    apply_plan(cluster, generate_plan(cluster, seed=seed + 1, profile="scramble"))
    recovered = cluster.run_until_converged(timeout=10_000)
    return {
        "system": "self-stabilizing",
        "n": n,
        "recovered": recovered,
        "agreement": cluster.agreed_configuration() is not None,
    }


def _baseline_under_faults(n: int, seed: int) -> dict:
    sim = Simulator(seed=seed)
    nodes = {}
    for pid in range(n):
        node = CoherentStartNode(pid, peers=range(n), initial_config=range(n))
        sim.add_process(node)
        nodes[pid] = node
    sim.run(until=30.0)
    # The same class of transient fault: conflicting configurations under the
    # same sequence number.
    nodes[0].config = make_config(range(n // 2))
    nodes[0].sequence = 5
    nodes[1].config = make_config(range(n // 2, n))
    nodes[1].sequence = 5
    sim.run(until=1_000.0)
    configs = {node.config for node in nodes.values()}
    return {
        "system": "coherent-start baseline",
        "n": n,
        "recovered": len(configs) == 1,
        "distinct_configs_after_fault": len(configs),
    }


def test_scheme_recovers_from_transient_faults(benchmark):
    result = benchmark.pedantic(_scheme_under_faults, args=(5, 79), rounds=1, iterations=1)
    record(benchmark, result)
    assert result["recovered"]


def test_baseline_never_recovers(benchmark):
    result = benchmark.pedantic(_baseline_under_faults, args=(6, 83), rounds=1, iterations=1)
    record(benchmark, result)
    assert not result["recovered"]
