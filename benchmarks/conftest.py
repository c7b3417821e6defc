"""Shared helpers for the pytest-benchmark micro-benches (``bench_hotpath.py``).

The benches use ``benchmark.pedantic`` with a handful of rounds because each
"iteration" is a whole loop over the code under test; the counts it produced
are attached to ``benchmark.extra_info`` so they appear in the report.  The
paper's claims (E1-E12) are tier-1 tests, not benchmarks: ``docs/claims.md``.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.sim.cluster import Cluster, build_cluster
from repro.sim.network import ChannelConfig


def bench_cluster(n: int, seed: int = 1, capacity: int = 8, **kwargs: Any) -> Cluster:
    """A cluster sized for benchmarking (low-latency, lossless channels)."""
    kwargs.setdefault(
        "channel_config",
        ChannelConfig(capacity=capacity, loss_probability=0.0, min_delay=0.2, max_delay=0.6),
    )
    return build_cluster(n=n, seed=seed, **kwargs)


def record(benchmark, metrics: Dict[str, Any]) -> None:
    """Attach experiment metrics to the benchmark report."""
    for key, value in metrics.items():
        benchmark.extra_info[key] = value
