"""E3 (Lemma 3.18): spurious recMA triggerings are bounded by O(N^2 * cap).

Corrupt every node's noMaj/needReconf flags and stuff stale flag packets into
the channels; count how many reconfigurations get triggered before the system
settles, and compare against the analytical bound.
"""

from __future__ import annotations

import pytest

from repro.audit.arbitrary_state import apply_plan
from repro.core.recma import RecMAMessage
from repro.sim.faults import CorruptionAtom

from conftest import bench_cluster, record


def _spurious_triggerings(n: int, capacity: int, seed: int) -> dict:
    cluster = bench_cluster(n, seed=seed, capacity=capacity)
    assert cluster.run_until_converged(timeout=4_000)
    universe = list(range(n))
    # Every noMaj/needReconf flag at every node set ...
    flags = [
        CorruptionAtom(kind="entry", pid=pid, path=("recma", flag), key=other, value=True)
        for pid in universe
        for other in universe
        for flag in ("no_maj", "need_reconf")
    ]
    apply_plan(cluster, flags)
    # ... and *capacity* stale all-True flag packets toward every node, the
    # senders taken in turn (the channels bound what is accepted).
    stale = []
    for target in universe:
        senders = [pid for pid in universe if pid != target]
        for index in range(capacity):
            sender = senders[index % len(senders)]
            message = RecMAMessage(sender=sender, no_maj=True, need_reconf=True)
            stale.append(CorruptionAtom(kind="channel", pid=sender, key=target, value=message))
    stuffed = apply_plan(cluster, stale)["applied"]
    cluster.run(until=cluster.simulator.now + 400)
    triggers = sum(node.recma.trigger_count for node in cluster.nodes.values())
    settled = cluster.run_until_converged(timeout=6_000)
    return {
        "n": n,
        "capacity": capacity,
        "stale_packets_injected": stuffed,
        "spurious_triggerings": triggers,
        "bound_n2_cap": n * n * capacity,
        "within_bound": triggers <= n * n * capacity,
        "settled": settled,
    }


@pytest.mark.parametrize("n,capacity", [(4, 4), (6, 8)])
def test_spurious_triggerings_bounded(benchmark, n, capacity):
    result = benchmark.pedantic(
        _spurious_triggerings, args=(n, capacity, 31), rounds=1, iterations=1
    )
    record(benchmark, result)
    assert result["within_bound"] and result["settled"]
