"""Where one ``sim_scale`` repetition spends its CPU, by function.

A statistical profiler on SIGPROF (stdlib only): every ``INTERVAL_S`` of
process CPU time (the kernel rounds it up to its tick) the handler walks
the interrupted stack and counts each function once as *inclusive* and the
innermost one as *self*; the ``TOP`` functions of each ranking print.  Unlike
cProfile it adds no per-call cost, so work that moves into or out of C
(a set compare, a dict lookup) shows as a share of time, not as a count of
Python calls.  The run is the ``sim_scale`` shape: an n-node ``fast_sim``
bootstrap with ``fd_gap_slack = 2n``, then an 8 su converged window.

The sampler cannot see the cyclic garbage collector: its time is charged to
whichever frame was allocating.  So one more row, timed with
``gc.callbacks``, names the collector: the seconds spent inside collections
during the run, the collections per generation and the objects they freed.

    PYTHONPATH=src python benchmarks/sample_hotpath.py --n 128 --seed 89
"""

from __future__ import annotations

import argparse
import collections
import gc
import os
import signal
import time

from repro.node.config import fast_sim
from repro.sim.cluster import build_cluster

WINDOW_SU = 8.0
INTERVAL_S = 0.001
TOP = 25


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=128)
    parser.add_argument("--seed", type=int, default=89)
    args = parser.parse_args()

    inclusive: collections.Counter = collections.Counter()
    own: collections.Counter = collections.Counter()
    samples = [0]

    def sample(_signum, frame) -> None:
        samples[0] += 1
        seen = set()
        own[_name(frame)] += 1
        while frame is not None:
            name = _name(frame)
            if name not in seen:
                seen.add(name)
                inclusive[name] += 1
            frame = frame.f_back

    per_generation = [0, 0, 0]
    collector = {"seconds": 0.0, "collected": 0, "started": 0.0}

    def time_collection(phase: str, info: dict) -> None:
        if phase == "start":
            collector["started"] = time.perf_counter()
            return
        collector["seconds"] += time.perf_counter() - collector["started"]
        collector["collected"] += info["collected"]
        per_generation[info["generation"]] += 1

    cluster = build_cluster(n=args.n, seed=args.seed, config=fast_sim(fd_gap_slack=2 * args.n))
    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    gc.callbacks.append(time_collection)
    cpu = time.process_time()
    try:
        converged = cluster.run_until_converged()
        cluster.run(until=cluster.simulator.now + WINDOW_SU)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        gc.callbacks.remove(time_collection)
    cpu = time.process_time() - cpu
    stats = cluster.statistics()
    total = max(1, samples[0])
    print(f"n={args.n} seed={args.seed} converged={converged} events={stats['executed_events']} "
          f"cpu_s={cpu:.2f} samples={samples[0]}")
    print(f"collector: {collector['seconds']:.3f} s in collections "
          f"(gen 0/1/2: {'/'.join(map(str, per_generation))}), "
          f"{collector['collected']} objects collected")
    for title, ranking in (("by inclusive share", inclusive), ("by self share", own)):
        print(f"\n{title}\n{'inclusive':>9} {'self':>6}  function")
        for name, _ in ranking.most_common(TOP):
            print(f"{100 * inclusive[name] / total:8.1f}% {100 * own[name] / total:5.1f}%  {name}")


def _name(frame) -> str:
    code = frame.f_code
    return f"{os.path.basename(code.co_filename)}:{getattr(code, 'co_qualname', code.co_name)}"


if __name__ == "__main__":
    main()
