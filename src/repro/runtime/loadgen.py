"""Closed-loop load generator for the live runtime cluster.

``python -m repro.runtime.loadgen`` boots an n-node asyncio cluster on
localhost, waits for self-organized convergence, then drives it with K
concurrent closed-loop client sessions — each session issues one operation,
awaits its completion, and immediately issues the next.  Two workload
modes, matching the paper's two application layers:

``counters``
    Each operation is a two-phase quorum counter increment
    (:meth:`repro.counters.service.CounterService.increment`, Algorithms
    4.4/4.5); completion is the service's callback firing after the write
    quorum acknowledges.
``smr``
    Each operation is a state-machine command submitted to the virtually
    synchronous SMR layer (:meth:`repro.vs.virtual_synchrony
    .VirtualSynchronyService.submit`, Algorithm 4.7); completion is the
    submitting replica *applying* the command — i.e. full total-order
    delivery, observed through ``delivery_callback``.

Failure accounting distinguishes *kinds* (PR 9): ``abort_reconfig`` means
the paper's immediate ``⊥`` return — the service refused to even start the
op because a reconfiguration was in progress; ``abort_quorum`` means the op
started and a member's aborted reply killed it mid-flight; ``timeout`` is
the client's patience expiring.  Aborts are retried with bounded jittered
backoff (a real client re-issues after the reconfiguration window passes),
so only retry-exhausted aborts count as failures.

Latency is recorded in a **mergeable log-bucketed histogram**
(:class:`LatencyHistogram`), which is what makes the multi-process driver
possible: ``--workers K`` forks K shared-nothing worker processes, each
hosting its own full n-node cluster plus client cohort inside its own
asyncio event loop (clients call node services in-process, so scaling past
one event loop means scaling whole cells).  Worker reports — histograms,
op/failure counts, wire statistics — merge exactly; per-worker accounting
is preserved under ``per_worker``.

Results are written as JSON (default ``BENCH_dev_loadgen.json`` — see
``benchmarks/README.md`` for the artifact convention), keyed per mode, with
the cluster and wire statistics embedded.  ``--sweep-clients`` adds a
clients-axis scaling curve; ``--baseline`` soft-gates counters throughput
against a checked-in reference (same pattern as the audit gate).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import multiprocessing
import random
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional

from repro.runtime.cluster import RuntimeCluster
from repro.runtime.transport import DEFAULT_TICK_SECONDS

#: Bounded retry budget per operation: enough to ride out one
#: reconfiguration window (a handful of protocol rounds) without letting a
#: dead cluster spin forever.
MAX_OP_RETRIES = 8

#: Throughput floor for the ``--baseline`` soft gate: fail when counters
#: ops/s drops below this fraction of the checked-in reference (same >25%
#: regression threshold as the audit stabilization gate).
BASELINE_FLOOR = 0.75


def percentile(samples: List[float], fraction: float) -> Optional[float]:
    """The *fraction* quantile of *samples* (nearest-rank; None when empty)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1000.0, 3)


class LatencyHistogram:
    """A mergeable log-bucketed latency histogram.

    Buckets are geometric: sample ``s`` lands in bucket
    ``floor(log(s / BASE) / log(RATIO))``, so quantiles carry a bounded
    ~``RATIO - 1`` relative error while two histograms recorded in
    different processes merge by summing bucket counts — the property the
    multi-process driver needs (exact sample lists don't merge into exact
    quantiles without shipping every sample).  The maximum is tracked
    exactly.
    """

    BASE = 1e-4  # 0.1 ms resolution floor
    RATIO = 1.07
    _LOG_RATIO = math.log(RATIO)

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        if seconds <= self.BASE:
            index = 0
        else:
            index = int(math.log(seconds / self.BASE) / self._LOG_RATIO) + 1
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        if seconds > self.max_s:
            self.max_s = seconds

    def merge(self, other: "LatencyHistogram") -> None:
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        if other.max_s > self.max_s:
            self.max_s = other.max_s

    def quantile(self, fraction: float) -> Optional[float]:
        if not self.count:
            return None
        rank = min(self.count - 1, max(0, int(fraction * self.count)))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen > rank:
                if index == 0:
                    return self.BASE
                # Geometric bucket midpoint.
                return self.BASE * self.RATIO ** (index - 0.5)
        return self.max_s  # pragma: no cover - rank always found above

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "p50_ms": _ms(self.quantile(0.50)),
            "p95_ms": _ms(self.quantile(0.95)),
            "p99_ms": _ms(self.quantile(0.99)),
            "max_ms": _ms(self.max_s) if self.count else None,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base_s": self.BASE,
            "ratio": self.RATIO,
            "count": self.count,
            "max_s": self.max_s,
            "buckets": {str(k): v for k, v in self.buckets.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LatencyHistogram":
        hist = cls()
        hist.count = int(data["count"])
        hist.max_s = float(data["max_s"])
        hist.buckets = {int(k): int(v) for k, v in data["buckets"].items()}
        return hist


# ---------------------------------------------------------------------------
# Client sessions
# ---------------------------------------------------------------------------
async def _counter_session(
    cluster: RuntimeCluster,
    client_id: int,
    stop_at: float,
    op_timeout_s: float,
    hist: LatencyHistogram,
    failures: Counter,
    retries: Counter,
    rng: random.Random,
) -> None:
    """One closed-loop client driving counter increments (with retry)."""
    loop = asyncio.get_running_loop()
    pids = sorted(cluster.nodes)
    target = pids[client_id % len(pids)]

    def live_target(current: int) -> int:
        node = cluster.nodes.get(current)
        if node is not None and not node.crashed:
            return current
        # The kill probe took our target down: fail over to another node,
        # like a real client re-resolving its endpoint.
        return next((p for p in pids if not cluster.nodes[p].crashed), current)

    while loop.time() < stop_at:
        target = live_target(target)
        node = cluster.nodes.get(target)
        if node is None or node.crashed:
            await asyncio.sleep(0.01)
            continue
        t0 = loop.time()
        attempt = 0
        while True:
            service = cluster.nodes[target].service("counters")
            future: asyncio.Future = loop.create_future()

            def complete(outcome: Any, future: asyncio.Future = future) -> None:
                if not future.done():
                    future.set_result(outcome)

            op_id = service.increment(complete)
            try:
                outcome = await asyncio.wait_for(future, timeout=op_timeout_s)
            except asyncio.TimeoutError:
                failures["timeout"] += 1
                break
            if outcome.success:
                hist.record(loop.time() - t0)
                if attempt:
                    retries["ops_recovered"] += 1
                break
            # The service distinguishes the two abort shapes for us:
            # increment() returning None is the paper's immediate ⊥ (a
            # reconfiguration is in progress, nothing was sent); a started
            # op that still aborted lost its quorum mid-flight.
            kind = "abort_reconfig" if op_id is None else "abort_quorum"
            if attempt >= MAX_OP_RETRIES or loop.time() >= stop_at:
                failures[kind] += 1
                break
            attempt += 1
            retries["attempts"] += 1
            # Jittered linear backoff in ticks: reconfiguration windows are
            # a few protocol rounds, and de-synchronizing the retrying
            # cohort avoids an abort stampede the instant the window ends.
            await asyncio.sleep(
                cluster.tick_seconds * attempt * (0.5 + rng.random())
            )
            target = live_target(target)


async def _smr_session(
    cluster: RuntimeCluster,
    client_id: int,
    stop_at: float,
    op_timeout_s: float,
    hist: LatencyHistogram,
    failures: Counter,
    applied_futures: Dict[Any, asyncio.Future],
) -> None:
    """One closed-loop client driving totally-ordered SMR commands."""
    loop = asyncio.get_running_loop()
    pids = sorted(cluster.nodes)
    target = pids[client_id % len(pids)]
    seq = 0
    while loop.time() < stop_at:
        node = cluster.nodes.get(target)
        if node is None or node.crashed:
            target = next(
                (p for p in pids if not cluster.nodes[p].crashed), target
            )
            await asyncio.sleep(0.01)
            continue
        service = node.service("vs")
        command = ("loadgen", client_id, seq)
        seq += 1
        future = loop.create_future()
        applied_futures[command] = future
        t0 = loop.time()
        service.submit(command)
        try:
            await asyncio.wait_for(future, timeout=op_timeout_s)
            hist.record(loop.time() - t0)
        except asyncio.TimeoutError:
            failures["timeout"] += 1
        finally:
            applied_futures.pop(command, None)


def _install_smr_taps(
    cluster: RuntimeCluster, applied_futures: Dict[Any, asyncio.Future]
) -> None:
    """Resolve a command's future when any replica applies it.

    Total order means first application == delivery; resolving on the first
    replica to apply (rather than specifically the submitter) measures
    commit latency without assuming which replica reports first.
    """

    def tap(rnd: Any, view: Any, commands: List[Any]) -> None:
        for command in commands:
            future = applied_futures.get(command)
            if future is not None and not future.done():
                future.set_result(True)

    for node in cluster.nodes.values():
        node.service("vs").delivery_callback = tap


# ---------------------------------------------------------------------------
# The kill/recover probe
# ---------------------------------------------------------------------------
async def _kill_probe(
    cluster: RuntimeCluster, victim: int, timeout_s: float
) -> Dict[str, Any]:
    """Stop-fail *victim*, time suspicion + rejoin, report both."""
    loop = asyncio.get_running_loop()
    report: Dict[str, Any] = {"victim": victim}

    t0 = loop.time()
    cluster.kill(victim)
    deadline = t0 + timeout_s
    suspected_s = None
    while loop.time() < deadline:
        survivors = [n for n in cluster.alive_nodes() if n.pid != victim]
        if survivors and all(
            victim not in node.trusted() for node in survivors
        ):
            suspected_s = loop.time() - t0
            break
        await asyncio.sleep(0.05)
    report["suspected_by_all_s"] = (
        round(suspected_s, 3) if suspected_s is not None else None
    )

    t0 = loop.time()
    await cluster.restart(victim)
    rejoined_s = None
    deadline = t0 + timeout_s
    while loop.time() < deadline:
        node = cluster.nodes[victim]
        if node.scheme.is_participant() and cluster.is_converged():
            rejoined_s = loop.time() - t0
            break
        await asyncio.sleep(0.05)
    report["rejoined_s"] = round(rejoined_s, 3) if rejoined_s is not None else None
    return report


# ---------------------------------------------------------------------------
# One loadgen run (one process, one cluster)
# ---------------------------------------------------------------------------
async def run_loadgen(
    n: int = 8,
    clients: int = 16,
    duration_s: float = 5.0,
    mode: str = "counters",
    seed: int = 7,
    tick_seconds: float = DEFAULT_TICK_SECONDS,
    kill_probe: bool = False,
    bootstrap_timeout_s: float = 60.0,
    op_timeout_s: float = 10.0,
) -> Dict[str, Any]:
    """Boot a cluster, drive it with *clients* sessions, return the report."""
    if mode not in ("counters", "smr"):
        raise ValueError(f"unknown loadgen mode {mode!r}")
    stack = "counters" if mode == "counters" else "vs_smr"
    loop = asyncio.get_running_loop()
    wall_start = time.perf_counter()
    async with RuntimeCluster(
        n=n, seed=seed, stack=stack, tick_seconds=tick_seconds
    ) as cluster:
        t0 = loop.time()
        if not await cluster.wait_converged(timeout_s=bootstrap_timeout_s):
            return {
                "mode": mode,
                "n": n,
                "error": f"cluster failed to converge within {bootstrap_timeout_s}s",
                "statistics": cluster.statistics(),
            }
        bootstrap_s = loop.time() - t0

        hist = LatencyHistogram()
        failures: Counter = Counter()
        retries: Counter = Counter()
        stop_at = loop.time() + duration_s
        if mode == "counters":
            sessions = [
                _counter_session(
                    cluster, c, stop_at, op_timeout_s, hist, failures,
                    retries, random.Random((seed << 16) ^ c),
                )
                for c in range(clients)
            ]
        else:
            applied_futures: Dict[Any, asyncio.Future] = {}
            _install_smr_taps(cluster, applied_futures)
            sessions = [
                _smr_session(
                    cluster, c, stop_at, op_timeout_s, hist, failures,
                    applied_futures,
                )
                for c in range(clients)
            ]

        probe_task = None
        if kill_probe:
            # Fire mid-run against the highest pid: never the coordinator
            # (coordinator selection favors the minimum trusted id), so load
            # keeps flowing while the membership machinery works.
            async def delayed_probe() -> Dict[str, Any]:
                await asyncio.sleep(duration_s / 2)
                return await _kill_probe(
                    cluster, victim=n - 1, timeout_s=bootstrap_timeout_s
                )

            probe_task = asyncio.ensure_future(delayed_probe())

        await asyncio.gather(*sessions)
        probe_report = await probe_task if probe_task is not None else None

        completed = hist.count
        report = {
            "mode": mode,
            "n": n,
            "clients": clients,
            "seed": seed,
            "tick_seconds": cluster.tick_seconds,
            "duration_s": duration_s,
            "wall_s": round(time.perf_counter() - wall_start, 3),
            "bootstrap_s": round(bootstrap_s, 3),
            "ops_completed": completed,
            "ops_failed": sum(failures.values()),
            "failures": dict(sorted(failures.items())),
            "failure_kinds": sorted(failures),
            "retries": dict(sorted(retries.items())),
            "throughput_ops_s": round(completed / duration_s, 1),
            "latency": hist.summary(),
            "latency_histogram": hist.to_dict(),
            "kill_probe": probe_report,
            "statistics": cluster.statistics(),
        }
        return report


# ---------------------------------------------------------------------------
# Multi-process drivers: K shared-nothing worker cells
# ---------------------------------------------------------------------------
def _worker_main(conn: Any, kwargs: Dict[str, Any]) -> None:
    """Worker-process entry: run one loadgen cell, ship the report back."""
    try:
        report = asyncio.run(run_loadgen(**kwargs))
    except Exception as exc:  # noqa: BLE001 - report, don't hang the parent
        report = {
            "mode": kwargs.get("mode"),
            "error": f"worker crashed: {type(exc).__name__}: {exc}",
        }
    try:
        conn.send(report)
    finally:
        conn.close()


def _merge_worker_reports(
    reports: List[Dict[str, Any]], duration_s: float
) -> Dict[str, Any]:
    """Merge K worker-cell reports into one `meta.sweep`-style report."""
    errors = [r["error"] for r in reports if "error" in r]
    if errors:
        return {"error": "; ".join(errors), "per_worker": reports}
    hist = LatencyHistogram()
    failures: Counter = Counter()
    retries: Counter = Counter()
    wire: Counter = Counter()
    per_worker = []
    for index, report in enumerate(reports):
        hist.merge(LatencyHistogram.from_dict(report["latency_histogram"]))
        failures.update(report["failures"])
        retries.update(report["retries"])
        for key in (
            "sent_datagrams", "delivered_datagrams", "dropped_datagrams",
            "quarantined_datagrams", "delivery_errors",
            "sent_frames", "delivered_frames", "dropped_frames",
        ):
            wire[key] += report["statistics"].get(key, 0)
        per_worker.append({
            "worker": index,
            "clients": report["clients"],
            "seed": report["seed"],
            "ops_completed": report["ops_completed"],
            "ops_failed": report["ops_failed"],
            "throughput_ops_s": report["throughput_ops_s"],
            "p50_ms": report["latency"]["p50_ms"],
            "bootstrap_s": report["bootstrap_s"],
        })
    first = reports[0]
    completed = hist.count
    return {
        "mode": first["mode"],
        "n": first["n"],
        "clients": sum(r["clients"] for r in reports),
        "workers": len(reports),
        "seed": first["seed"],
        "tick_seconds": first["tick_seconds"],
        "duration_s": duration_s,
        "ops_completed": completed,
        "ops_failed": sum(failures.values()),
        "failures": dict(sorted(failures.items())),
        "failure_kinds": sorted(failures),
        "retries": dict(sorted(retries.items())),
        "throughput_ops_s": round(completed / duration_s, 1),
        "latency": hist.summary(),
        "latency_histogram": hist.to_dict(),
        "kill_probe": first.get("kill_probe"),
        "per_worker": per_worker,
        "statistics": dict(wire),
    }


def run_loadgen_workers(
    workers: int,
    n: int = 8,
    clients: int = 16,
    duration_s: float = 5.0,
    mode: str = "counters",
    seed: int = 7,
    tick_seconds: float = DEFAULT_TICK_SECONDS,
    kill_probe: bool = False,
    bootstrap_timeout_s: float = 60.0,
    op_timeout_s: float = 10.0,
) -> Dict[str, Any]:
    """Drive *clients* total sessions split across *workers* processes.

    Each worker is a shared-nothing cell: its own forked process, its own
    asyncio loop, its own full n-node cluster, its own client cohort (the
    clients call node services in-process, so offered load scales past one
    event loop only by scaling whole cells).  Worker seeds are distinct, so
    the cells are independent trials; the kill probe (if any) runs in cell
    0 only.  Reports merge exactly via the bucketed histograms.
    """
    if workers <= 1:
        return asyncio.run(run_loadgen(
            n=n, clients=clients, duration_s=duration_s, mode=mode,
            seed=seed, tick_seconds=tick_seconds, kill_probe=kill_probe,
            bootstrap_timeout_s=bootstrap_timeout_s,
            op_timeout_s=op_timeout_s,
        ))
    context = multiprocessing.get_context("fork")
    share = [
        clients // workers + (1 if i < clients % workers else 0)
        for i in range(workers)
    ]
    procs = []
    for index, cohort in enumerate(share):
        if cohort == 0:
            continue
        recv_end, send_end = context.Pipe(duplex=False)
        kwargs = dict(
            n=n, clients=cohort, duration_s=duration_s, mode=mode,
            seed=seed + 1009 * index, tick_seconds=tick_seconds,
            kill_probe=kill_probe and index == 0,
            bootstrap_timeout_s=bootstrap_timeout_s,
            op_timeout_s=op_timeout_s,
        )
        proc = context.Process(target=_worker_main, args=(send_end, kwargs))
        proc.start()
        send_end.close()
        procs.append((proc, recv_end))
    reports = []
    for proc, recv_end in procs:
        try:
            reports.append(recv_end.recv())
        except EOFError:
            reports.append({"error": f"worker pid {proc.pid} died silently"})
        recv_end.close()
        proc.join()
    return _merge_worker_reports(reports, duration_s)


# ---------------------------------------------------------------------------
# Suite: modes + optional clients-axis sweep + baseline gate
# ---------------------------------------------------------------------------
def _auto_workers(clients: int) -> int:
    """Default worker count for a sweep point: one cell per 32 clients."""
    return min(8, max(1, clients // 32))


def run_suite(args: argparse.Namespace) -> Dict[str, Any]:
    """Run every requested mode (fresh cluster per mode), then the sweep."""
    modes = ["counters", "smr"] if args.mode == "both" else [args.mode]
    results: Dict[str, Any] = {
        "bench": "loadgen",
        "tag": args.tag,
        "modes": {},
    }
    for mode in modes:
        results["modes"][mode] = run_loadgen_workers(
            workers=args.workers,
            n=args.n,
            clients=args.clients,
            duration_s=args.duration,
            mode=mode,
            seed=args.seed,
            tick_seconds=args.tick,
            kill_probe=args.kill_probe,
        )
    if args.sweep_clients:
        points = []
        for clients in args.sweep_clients:
            workers = _auto_workers(clients)
            print(
                f"[loadgen] sweep point: clients={clients} workers={workers}",
                flush=True,
            )
            points.append(run_loadgen_workers(
                workers=workers,
                n=args.n,
                clients=clients,
                duration_s=args.duration,
                mode="counters",
                seed=args.seed,
                tick_seconds=args.tick,
                kill_probe=False,
            ))
        results["sweep"] = {
            "meta": {
                "axis": "clients",
                "mode": "counters",
                "workers_rule": "min(8, max(1, clients // 32))",
            },
            "points": points,
        }
    return results


def _check_baseline(results: Dict[str, Any], baseline_path: str) -> int:
    """Soft throughput gate: counters ops/s must stay within BASELINE_FLOOR."""
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    reference = baseline.get("counters_ops_s")
    if reference is None:
        reference = (
            baseline.get("modes", {}).get("counters", {})
            .get("throughput_ops_s")
        )
    if not reference:
        print(f"[loadgen] baseline {baseline_path} has no counters ops/s")
        return 2
    current = results["modes"].get("counters", {}).get("throughput_ops_s")
    if current is None:
        print("[loadgen] gate needs a counters-mode run")
        return 2
    floor = reference * BASELINE_FLOOR
    if current < floor:
        print(
            f"[loadgen] GATE FAILED: counters {current} ops/s is below "
            f"{floor:.1f} ({BASELINE_FLOOR:.0%} of baseline {reference})"
        )
        return 1
    print(
        f"[loadgen] gate ok: counters {current} ops/s >= {floor:.1f} "
        f"({BASELINE_FLOOR:.0%} of baseline {reference})"
    )
    return 0


def _parse_sweep(text: str) -> List[int]:
    return [int(item) for item in text.split(",") if item.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.loadgen",
        description="Closed-loop load generator for the live asyncio cluster.",
    )
    parser.add_argument("--n", type=int, default=8, help="cluster size")
    parser.add_argument("--clients", type=int, default=16,
                        help="concurrent closed-loop client sessions (total)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; each hosts its own cluster "
                             "cell and a share of the clients")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="measured load window per mode (seconds)")
    parser.add_argument("--mode", choices=["counters", "smr", "both"],
                        default="both")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tick", type=float, default=DEFAULT_TICK_SECONDS,
                        help="wall seconds per simulated-time unit")
    parser.add_argument("--kill-probe", action="store_true",
                        help="stop-fail one node mid-run and time recovery")
    parser.add_argument("--sweep-clients", type=_parse_sweep, default=None,
                        metavar="N,N,...",
                        help="clients-axis scaling sweep (counters mode), "
                             "e.g. 16,32,64,128,256")
    parser.add_argument("--baseline", default=None,
                        help="soft throughput gate against a checked-in "
                             "reference (benchmarks/loadgen_baseline.json)")
    parser.add_argument("--output", default="BENCH_dev_loadgen.json")
    parser.add_argument("--tag", default="dev")
    args = parser.parse_args(argv)

    results = run_suite(args)
    results["argv"] = list(argv) if argv is not None else sys.argv[1:]
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")

    failed = False
    for mode, report in results["modes"].items():
        if "error" in report:
            print(f"[loadgen] {mode}: FAILED — {report['error']}")
            failed = True
            continue
        lat = report["latency"]
        workers = report.get("workers", 1)
        print(
            f"[loadgen] {mode}: n={report['n']} clients={report['clients']} "
            f"workers={workers} "
            f"{report['throughput_ops_s']} ops/s  "
            f"p50={lat['p50_ms']}ms p95={lat['p95_ms']}ms p99={lat['p99_ms']}ms "
            f"({report['ops_completed']} ok / {report['ops_failed']} failed "
            f"{report['failures']})"
        )
        probe = report.get("kill_probe")
        if probe:
            print(
                f"[loadgen]   kill probe: pid {probe['victim']} suspected in "
                f"{probe['suspected_by_all_s']}s, rejoined in "
                f"{probe['rejoined_s']}s"
            )
    for point in results.get("sweep", {}).get("points", []):
        if "error" in point:
            print(f"[loadgen] sweep: FAILED — {point['error']}")
            failed = True
            continue
        print(
            f"[loadgen] sweep clients={point['clients']} "
            f"workers={point.get('workers', 1)}: "
            f"{point['throughput_ops_s']} ops/s "
            f"p50={point['latency']['p50_ms']}ms "
            f"({point['ops_completed']} ok / {point['ops_failed']} failed)"
        )
    print(f"[loadgen] wrote {args.output}")
    if failed:
        return 1
    if args.baseline:
        return _check_baseline(results, args.baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
