"""Shared helpers for the pytest-benchmark micro-benches (``bench_hotpath.py``).

The benches use ``benchmark.pedantic`` with a handful of rounds because each
"iteration" is a whole loop over the code under test; the counts it produced
are attached to ``benchmark.extra_info`` so they appear in the report.  The
paper's claims (E1-E12) are tier-1 tests, not benchmarks: ``docs/claims.md``.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.node.config import fast_sim
from repro.sim.cluster import Cluster, build_cluster


def bench_cluster(n: int, seed: int = 1) -> Cluster:
    """A cluster sized for benchmarking (``fast_sim``: low-latency, lossless)."""
    return build_cluster(n=n, seed=seed, config=fast_sim())


def record(benchmark, metrics: Dict[str, Any]) -> None:
    """Attach experiment metrics to the benchmark report."""
    for key, value in metrics.items():
        benchmark.extra_info[key] = value
