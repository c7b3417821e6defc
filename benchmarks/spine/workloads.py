"""The five workloads, each one pass in one process.

``python workloads.py --workload NAME --seed N --seconds S --trace 0|1``
runs one pass and prints one JSON object as its last line; ``run.py`` is the
front end that starts this file as a child (fresh ``ru_maxrss``, hard
timeout).  An untraced pass (``--trace 0``) yields the end-to-end metrics;
a traced pass (same parameters, same seed) installs :mod:`spans` first and
yields the per-layer metrics.

``--seed`` feeds only the generators and the cluster/simulator seeds.
``--seconds`` sizes the measured part: ``live_counters`` and ``live_churn``
run one window that long; ``live_smr`` and ``sim_scale`` repeat a fixed
piece of work (so their counts repeat exactly) as many times as fit in it
on the reference box and report the best repetition; ``audit_recovery``
sweeps as many simulator seeds as fit in it.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import asyncio
import gc
import json
import os
import resource
import statistics
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

import repo
from hostclock import HostClock
from spans import Tracer, install
from stats import percentile, slice_rate, stall_windows, trimmed_mean

#: Wall seconds per simulated unit on the live workloads: fixed, never "auto".
TICK_SECONDS = 0.05
LIVE_NODES = 8
LIVE_CLIENTS = 8
SETTLE_S = 1.0
#: Closed loops: the tail taken per 1-s slice (one bad second moves an overall
#: p99 by a third and the median slice not at all).
SLICE_TAIL = 0.90
#: live_counters: every client sends one increment per period (80/s offered,
#: a processor share of ~0.6), and the last seconds of the window saturate
#: the loop instead, for the reading people quote.
PACED_PERIOD_S = 0.1
SATURATED_LEG_S = 4.0
#: The slice whose rate a saturated leg reports (see ``stats.slice_rate``).
SLICE_RATE_QUANTILE = 0.90

#: live_smr: commands per leg, and the wall seconds a leg is counted as
#: (boot + settle + ~4 s of commands + drain).  A command costs more the more
#: history the replicas hold, so a leg is a fixed number of commands on a
#: fresh cluster and not a fixed time.
SMR_LEG_COMMANDS = 400
SMR_LEG_NOMINAL_S = 5.0

#: live_churn: open-loop offered rate, per-request patience, latency limit,
#: quiet time between cycles, cap on each wait.  The rate is an eighth of the
#: closed-loop capacity on purpose: see README, "leads" (at 60/s about one
#: run in six melts down into failure-detector flapping on the reference box).
CHURN_RATE = 30.0
CHURN_OP_TIMEOUT_S = 10.0
#: Two ticks: a plain quorum round trip fits, a reconfiguration stall does not.
CHURN_LATENCY_LIMIT_S = 0.1
CHURN_QUIET_S = 1.0
#: The share of cycles left out at each end of the stalls before their mean
#: is taken.  Where in the tick the kill lands spreads a cycle's stall evenly
#: over ~0.42-0.69 s: over ten runs of 12 cycles the median cycle spread 0.10
#: and this mean 0.06.
CHURN_TRIM = 1 / 6
CHURN_PHASE_CAP_S = 10.0
CHURN_VICTIM = LIVE_NODES - 1

SIM_NODES = 128
#: sim_scale phase B, in simulated units, and the wall seconds one
#: repetition (bootstrap + window) is counted as.
SIM_WINDOW_SU = 8.0
SIM_REP_NOMINAL_S = 10.0

AUDIT_NODES = 8
AUDIT_CORRUPTION_SEEDS = 4
#: audit_recovery: the wall seconds one simulator seed (32 cells) is counted as.
AUDIT_SEED_NOMINAL_S = 5.0

#: Every wrong answer is counted; this many are spelled out.
MAX_PROBLEMS_SHOWN = 20

#: The pass's measure of its own processor's speed; ``main`` starts it.
CLOCK = HostClock()


class Pass:
    """Collects one pass's metrics, problems and operation counts."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.info: Dict[str, Any] = {}

    def put(self, name: str, value: float, n: int = 1, percentile: Optional[float] = None) -> None:
        entry: Dict[str, Any] = {"value": value, "n": n}
        if percentile is not None:
            entry["percentile"] = percentile
        self.metrics[name] = entry

    def wrong(self, problems: List[str]) -> None:
        """Wrong answers are failed operations."""
        self.problems.extend(problems)
        self.failed += len(problems)


def _repetitions(seconds: float, nominal_s: float) -> int:
    """How many repetitions of a fixed piece of work ``--seconds`` buys."""
    return max(1, int(seconds // nominal_s))


def _end_to_end(run: Pass, setup_s: float, work_per_s: float, work_n: int) -> None:
    """Put the gated end-to-end metrics of an untraced pass."""
    run.put("setup_s", setup_s)
    run.put("work_per_s", work_per_s, n=work_n)
    run.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def _put_host_speed(run: Pass, intervals: List[Tuple[float, float]]) -> float:
    """Report (in both passes) and return the host's speed over the measured
    *intervals*, every round of reference work weighing the same."""
    total, rounds = 0.0, 0
    for start, end in intervals:
        speed, _, n = CLOCK.read(start, end)
        total += speed * n
        rounds += n
    speed = total / rounds if rounds else 1.0
    run.put("host.speed", speed, n=rounds)
    return speed


def _put_latency(run: Pass, latencies_s: List[float]) -> None:
    """Exact percentiles over every recorded sample.  ``latency_p99_ms`` is
    the p99 from 1000 samples up and the p95 below that (its ``percentile``
    says which): a p99 of 300 samples has three samples beyond it."""
    n = len(latencies_s)
    tail = 0.99 if n >= 1000 else 0.95
    run.put("latency_p50_ms", percentile(latencies_s, 0.5) * 1e3, n=n, percentile=0.5)
    run.put("latency_p99_ms", percentile(latencies_s, tail) * 1e3, n=n, percentile=tail)


def _slice_tails(ops: List[Any], start: float) -> List[float]:
    """Per 1-s slice (by completion) of a window, its ``SLICE_TAIL`` latency quantile."""
    buckets: Dict[int, List[float]] = {}
    for op in ops:
        buckets.setdefault(int(op.done - start), []).append(op.done - op.submit)
    return [percentile(bucket, SLICE_TAIL) for bucket in buckets.values()]


# ---------------------------------------------------------------------------
# Trace accounting shared by the workloads
# ---------------------------------------------------------------------------
#: Span name -> the per-layer metric its self time lands in.
BUSY_METRIC = {
    "codec.encode": "codec.encode_busy_s",
    "codec.decode": "codec.decode_busy_s",
    "transport.send": "transport.send_busy_s",
    "transport.recv": "transport.recv_busy_s",
    "counters.increment": "counters.increment_busy_s",
    "counters.on_timer": "counters.on_timer_busy_s",
    "counters.on_message": "counters.on_message_busy_s",
    "vs.on_timer": "vs.on_timer_busy_s",
    "vs.on_message": "vs.on_message_busy_s",
    "recsa.step": "recsa.step_busy_s",
    "recsa.on_message": "recsa.on_message_busy_s",
    "recma": "recma.busy_s",
    "joining": "joining.busy_s",
    "heartbeat.on_timer": "heartbeat.on_timer_busy_s",
    "heartbeat.on_packet": "heartbeat.on_packet_busy_s",
    "fd": "fd.busy_s",
    "node.on_timer": "node.dispatch_busy_s",
    "node.on_receive": "node.dispatch_busy_s",
    "sim.step": "sim.step_self_s",
    "sim.run": "sim.step_self_s",
    "sim.net_send": "sim.step_self_s",
    "cluster.converged_check": "cluster.converged_check_busy_s",
    "snapshot.capture": "snapshot.capture_busy_s",
    "snapshot.restore": "snapshot.restore_busy_s",
    "scenarios.prepare": "scenarios.prepare_busy_s",
    "scenarios.drive": "scenarios.drive_busy_s",
    "scenarios.finalize": "scenarios.finalize_busy_s",
    "audit.apply_plan": "audit.apply_plan_busy_s",
    "audit.certify": "audit.harness_busy_s",
    "loop.callback": "loop.other_busy_s",
}
#: Every other span's self time is protocol-handler work under a simulator event.
_SIM_INFRA = {
    "sim.step", "sim.run", "sim.net_send", "cluster.converged_check",
    "snapshot.capture", "snapshot.restore", "scenarios.prepare",
    "scenarios.drive", "scenarios.finalize", "audit.apply_plan",
    "audit.certify", "loop.callback",
}


Table = Dict[str, Dict[str, float]]


def _layer_times(
    run: Pass, tracer: Tracer, ranges: List[Tuple[int, int]], busy_s: float, speed: float
) -> Table:
    """Put every ``*_busy_s`` metric from the span *ranges* (one per measured
    region), in reference seconds at the regions' host *speed*; return the
    per-name aggregate, which stays in seconds.  *busy_s* is the regions'
    measured busy time, against which coverage and tracing overhead are stated."""
    table: Table = {}
    for first, last in ranges:
        for name, row in tracer.aggregate(first, last).items():
            total = table.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                total[key] += value
    sums: Dict[str, float] = {}
    for name, row in table.items():
        metric = BUSY_METRIC[name]
        sums[metric] = sums.get(metric, 0.0) + row["self_s"]
    for metric, value in sums.items():
        run.put(metric, value * speed)
    spans = sum(last - first for first, last in ranges)
    attributed = sum(row["self_s"] for row in table.values())
    run.put("trace.spans", spans)
    run.put("trace.coverage_share", attributed / busy_s if busy_s > 0 else 0.0)
    run.put(
        "trace.overhead_share",
        spans * tracer.per_span_cost() / busy_s if busy_s > 0 else 0.0,
    )
    return table


def _count(table: Table, name: str) -> int:
    return int(table.get(name, {}).get("count", 0))


def _handler_busy_s(table: Table) -> float:
    """Protocol-handler self time under simulator events."""
    return sum(row["self_s"] for name, row in table.items() if name not in _SIM_INFRA)


# ---------------------------------------------------------------------------
# Live workloads
# ---------------------------------------------------------------------------
async def _boot(n: int, seed: int, stack: str) -> Tuple[Any, float]:
    """Start a live cluster and wait until it converged; ``(cluster, seconds)``."""
    from repro.runtime.cluster import RuntimeCluster

    t0 = time.perf_counter()
    cluster = RuntimeCluster(n=n, seed=seed, stack=stack, tick_seconds=TICK_SECONDS)
    await cluster.start()
    if not await cluster.wait_converged(timeout_s=60.0, poll_s=0.01):
        await cluster.shutdown()
        raise RuntimeError(f"live n={n} {stack} cluster did not converge in 60 s")
    return cluster, time.perf_counter() - t0


class _NodeCounters:
    """Sums the nodes' public counters, restarted nodes' predecessors included."""

    FIELDS = {
        "recsa.broadcasts_sent": lambda node: node.recsa.broadcasts_sent,
        "recsa.broadcasts_skipped": lambda node: node.recsa.broadcasts_skipped,
        "recsa.resets": lambda node: node.recsa.reset_count,
        "recma.triggers": lambda node: node.recma.trigger_count,
        "joining.requests": lambda node: node.joining.join_requests_sent,
        "fd.heartbeats": lambda node: node.failure_detector.heartbeats_received,
        "vs.rounds_completed": lambda node: _service_field(node, "vs", "rounds_completed"),
        "vs.views_installed": lambda node: _service_field(node, "vs", "views_installed"),
    }

    def __init__(self, cluster: Any) -> None:
        self.cluster = cluster
        self.retired: List[Any] = []

    def read(self) -> Dict[str, int]:
        nodes = list(self.cluster.nodes.values()) + self.retired
        return {name: sum(get(node) for node in nodes) for name, get in self.FIELDS.items()}


def _service_field(node: Any, service: str, field: str) -> int:
    instance = node.service_map.get(service)
    return 0 if instance is None else getattr(instance, field)


WIRE_FIELDS = (
    "sent_frames", "sent_datagrams", "dropped_frames", "quarantined_datagrams",
)


class _Meter:
    """What the measured windows of a live pass add up to: counter deltas,
    span ranges, encoded bytes, CPU and wall time.

    :meth:`open` takes a window's opening readings on a cluster and
    :meth:`close` adds the window's deltas to the sums; ``reference_cpu_s``
    is the CPU time in reference seconds (see :mod:`hostclock`).
    """

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.ranges: List[Tuple[int, int]] = []
        self.intervals: List[Tuple[float, float]] = []
        self.encoded_bytes = 0
        self.cpu_s = self.wall_s = self.reference_cpu_s = 0.0
        self.wire = dict.fromkeys(WIRE_FIELDS, 0)
        self.counters = dict.fromkeys(_NodeCounters.FIELDS, 0)

    def _readings(self) -> Tuple[Dict[str, int], Dict[str, int], int, int, float, float]:
        wire = self.cluster.transport.statistics()
        tracer = self.tracer
        return (
            {name: wire[name] for name in WIRE_FIELDS},
            self.nodes.read(),
            len(tracer) if tracer else 0,
            tracer.encoded_bytes if tracer else 0,
            time.process_time(),
            time.perf_counter(),
        )

    def open(self, cluster: Any) -> None:
        self.cluster = cluster
        self.nodes = _NodeCounters(cluster)
        self.opening = self._readings()

    def close(self) -> None:
        wire0, counters0, first, bytes0, cpu0, wall0 = self.opening
        wire, counters, last, bytes1, cpu1, wall1 = self._readings()
        for name, value in wire.items():
            self.wire[name] += value - wire0[name]
        for name, value in counters.items():
            self.counters[name] += value - counters0[name]
        self.ranges.append((first, last))
        self.encoded_bytes += bytes1 - bytes0
        self.intervals.append((wall0, wall1))
        self.cpu_s += cpu1 - cpu0
        self.wall_s += wall1 - wall0
        self.reference_cpu_s += CLOCK.reference_seconds(wall0, wall1, cpu1 - cpu0)


def _live_layers(run: Pass, meter: _Meter, report: Any, speed: float) -> None:
    """The per-layer metrics of a live pass from its windows' spans and counter deltas."""
    table = _layer_times(run, meter.tracer, meter.ranges, meter.cpu_s, speed)
    wire = meter.wire
    ops = max(1, len(report.ops))
    run.put("codec.frames", _count(table, "codec.encode") + _count(table, "codec.decode"))
    run.put("codec.bytes_per_op", meter.encoded_bytes / ops)
    run.put("transport.frames_per_op", wire["sent_frames"] / ops)
    run.put("transport.datagrams_per_op", wire["sent_datagrams"] / ops)
    run.put(
        "transport.frames_per_datagram",
        wire["sent_frames"] / wire["sent_datagrams"] if wire["sent_datagrams"] else 0.0,
    )
    run.put("transport.dropped_frames", wire["dropped_frames"])
    run.put("transport.quarantined_datagrams", wire["quarantined_datagrams"])
    run.put("counters.msgs_per_op", _count(table, "counters.on_message") / ops)
    run.put("counters.aborts_reconfig", report.aborts_reconfig)
    run.put("counters.aborts_quorum", report.aborts_quorum)
    tries = len(report.ops) + report.aborts_reconfig + report.aborts_quorum + report.timeouts
    run.put("counters.useful_share", len(report.ops) / tries if tries else 0.0)
    for name, value in meter.counters.items():
        run.put(name, value)
    rounds = meter.counters["vs.rounds_completed"]
    run.put("vs.commands_per_round", len(report.ops) / rounds if rounds else 0.0)
    run.put("loadgen.cpu_share", meter.cpu_s / meter.wall_s)
    run.put("loadgen.ops_per_s_mean", len(report.ops) / meter.wall_s, n=len(report.ops))


async def _counters(run: Pass, seed: int, seconds: float, tracer: Optional[Tracer]) -> None:
    """``live_counters``: 8 clients, one per node, each sending one increment
    per ``PACED_PERIOD_S``; then the same clients with no think time for the
    last ``SATURATED_LEG_S``.

    The gated rate is taken from the paced window: checked completions per
    reference second of processor time.  The offered load is the same
    whatever the host's speed, so the processor time is proportional to
    what an operation (and the background protocol work beside it) costs;
    a saturated loop's completions are not, because the background work
    takes a fixed share per wall second off the top.
    """
    import check
    import loadgen

    cluster, boot_s = await _boot(LIVE_NODES, seed, "counters")
    setup_s = run.info["import_s"] + boot_s
    meter = _Meter(tracer)
    try:
        await asyncio.sleep(SETTLE_S)
        meter.open(cluster)
        paced_s = max(1.0, seconds - SATURATED_LEG_S)
        report, start = await loadgen.paced_loop_counters(
            cluster, LIVE_CLIENTS, PACED_PERIOD_S, paced_s, seed
        )
        meter.close()
        saturated, saturated_start = await loadgen.closed_loop_counters(
            cluster, LIVE_CLIENTS, SATURATED_LEG_S, seed
        )
        run.wrong(check.check_counters(report.ops + saturated.ops))
    finally:
        await cluster.shutdown()

    run.attempted = report.attempted + saturated.attempted
    run.failed += report.failed + saturated.failed
    if not report.ops:
        run.wrong(["no operation completed"])
        return
    rate = len(report.ops) / meter.reference_cpu_s
    speed = _put_host_speed(run, meter.intervals)
    _put_latency(run, report.latencies())
    run.put("latency_slice_p90_ms", statistics.median(_slice_tails(report.ops, start)) * 1e3,
            n=int(paced_s), percentile=SLICE_TAIL)
    run.put(
        "loadgen.saturated_ops_per_s",
        slice_rate([op.done for op in saturated.ops], saturated_start,
                   int(SATURATED_LEG_S), SLICE_RATE_QUANTILE),
        n=int(SATURATED_LEG_S), percentile=SLICE_RATE_QUANTILE,
    )
    if tracer is None:
        _end_to_end(run, setup_s, rate, len(report.ops))
        return
    _live_layers(run, meter, report, speed)
    run.put("trace.work_per_s", rate, n=len(report.ops))
    run.put("loadgen.single_node_ops_per_s", await _single_node_leg(seed), n=3)


async def _smr(run: Pass, seed: int, seconds: float, tracer: Optional[Tracer]) -> None:
    """``live_smr``: 8 closed-loop clients, one per node, in legs of
    ``SMR_LEG_COMMANDS`` commands, each on a fresh cluster of the same seed;
    the best leg's rate is reported."""
    import check
    import loadgen

    meter = _Meter(tracer)
    total = loadgen.LoadReport()
    rates: List[float] = []
    tails: List[float] = []
    setup_s = 0.0
    for leg in range(_repetitions(seconds, SMR_LEG_NOMINAL_S)):
        cluster, boot_s = await _boot(LIVE_NODES, seed, "vs_smr")
        if leg == 0:
            setup_s = run.info["import_s"] + boot_s
        try:
            await asyncio.sleep(SETTLE_S)
            meter.open(cluster)
            report, start = await loadgen.closed_loop_smr(cluster, LIVE_CLIENTS, SMR_LEG_COMMANDS)
            meter.close()
            acknowledged = [op.value for op in report.ops]
            histories = await _drain_smr(cluster, acknowledged)
            run.wrong(check.check_smr(acknowledged, histories))
        finally:
            await cluster.shutdown()
        if report.ops:
            rates.append(len(report.ops) / (max(op.done for op in report.ops) - start))
        tails.extend(_slice_tails(report.ops, start))
        total.add(report)

    run.attempted = total.attempted
    run.failed += total.failed
    if not rates:
        run.wrong(["no command completed"])
        return
    run.info["leg_rates"] = rates
    speed = _put_host_speed(run, meter.intervals)
    _put_latency(run, total.latencies())
    run.put("latency_slice_p90_ms", statistics.median(tails) * 1e3, n=len(tails),
            percentile=SLICE_TAIL)
    if tracer is None:
        _end_to_end(run, setup_s, max(rates), len(rates))
        return
    _live_layers(run, meter, total, speed)
    run.put("trace.work_per_s", max(rates), n=len(rates))


async def _drain_smr(cluster: Any, acknowledged: List[Any]) -> Dict[int, List[Any]]:
    """Wait (at most 2 s) until every live replica delivered every
    acknowledged command; return the replicas' delivered commands."""
    loop = asyncio.get_running_loop()
    wanted = set(acknowledged)
    deadline = loop.time() + 2.0
    while True:
        histories = {
            node.pid: node.service("vs").delivered_commands()
            for node in cluster.alive_nodes()
        }
        if all(wanted <= set(history) for history in histories.values()):
            return histories
        if loop.time() >= deadline:
            return histories
        await asyncio.sleep(0.05)


async def _single_node_leg(seed: int, seconds: float = 3.0) -> float:
    """Generator + service ceiling: the same closed loop against n=1, no peers."""
    import loadgen

    cluster, _ = await _boot(1, seed, "counters")
    try:
        report, start = await loadgen.closed_loop_counters(cluster, LIVE_CLIENTS, seconds, seed)
    finally:
        await cluster.shutdown()
    return slice_rate([op.done for op in report.ops], start, int(seconds), SLICE_RATE_QUANTILE)


async def _churn(run: Pass, seed: int, seconds: float, tracer: Optional[Tracer]) -> None:
    """``live_churn``: open-loop increments through kill / suspect / restart /
    rejoin cycles of one node."""
    import check
    import loadgen

    loop = asyncio.get_running_loop()
    cluster, boot_s = await _boot(LIVE_NODES, seed, "counters")
    setup_s = run.info["import_s"] + boot_s
    kills: List[float] = []
    suspect_s: List[float] = []
    rejoin_s: List[float] = []
    try:
        await asyncio.sleep(SETTLE_S)
        meter = _Meter(tracer)
        meter.open(cluster)

        # The victim hosts no client: a request in flight inside a node that
        # is killed is lost with its host, which is the client's failover
        # problem and not the protocol's.
        hosts = [pid for pid in sorted(cluster.nodes) if pid != CHURN_VICTIM]
        stop = asyncio.Event()
        generator = asyncio.ensure_future(
            loadgen.open_loop_counters(cluster, hosts, CHURN_RATE, stop, seed, CHURN_OP_TIMEOUT_S)
        )
        end = loop.time() + seconds
        while True:
            await asyncio.sleep(CHURN_QUIET_S)
            if loop.time() + CHURN_QUIET_S >= end:
                break
            kills.append(loop.time())
            cluster.kill(CHURN_VICTIM)
            survivors = [n for n in cluster.alive_nodes() if n.pid != CHURN_VICTIM]
            suspected = await _poll(
                lambda: all(CHURN_VICTIM not in node.trusted() for node in survivors)
            )
            # Restart as soon as the victim is suspected; see README, "leads".
            meter.nodes.retired.append(cluster.nodes[CHURN_VICTIM])
            restarted = loop.time()
            await cluster.restart(CHURN_VICTIM)
            rejoined = await _poll(
                lambda: cluster.nodes[CHURN_VICTIM].scheme.is_participant()
                and cluster.is_converged()
            )
            run.attempted += 1
            if suspected and rejoined:
                suspect_s.append(restarted - kills[-1])
                rejoin_s.append(loop.time() - restarted)
            else:
                run.wrong([
                    f"cycle {len(kills)}: suspected={suspected} rejoined={rejoined} "
                    f"within {CHURN_PHASE_CAP_S} s"
                ])
        stop.set()
        report = await generator
        meter.close()
        run.wrong(check.check_counters(report.ops))
    finally:
        await cluster.shutdown()

    run.attempted += report.attempted
    run.failed += report.failed
    run.info["cycles"] = len(kills)
    # An open loop completes what it is offered, so completions per second
    # say nothing.  What a membership change costs its users is the time
    # service is degraded around it, and that is what the gated rate is made
    # of: cycles absorbed per second of degraded service.  A request that
    # failed was degraded for all of its patience.
    requests = [(op.submit, op.done) for op in report.ops]
    requests += [(due, due + CHURN_OP_TIMEOUT_S) for due in report.failed_due]
    stalls = stall_windows(requests, kills, CHURN_LATENCY_LIMIT_S)
    if stalls:
        stall_s = trimmed_mean(stalls, CHURN_TRIM)
        run.put("loadgen.stall_s", stall_s, n=len(stalls))
    else:
        run.wrong([f"no kill/rejoin cycle fits in {seconds} s"])
        stall_s = float("inf")
    in_time = sum(1 for due, done in requests if done - due <= CHURN_LATENCY_LIMIT_S)
    run.put("loadgen.in_time_share", in_time / max(1, len(requests)), n=len(requests))
    run.put("loadgen.late_p99_ms", percentile(report.lateness, 0.99) * 1e3,
            n=len(report.lateness), percentile=0.99)
    if rejoin_s:
        run.put("joining.rejoin_s_p50", statistics.median(rejoin_s), n=len(rejoin_s), percentile=0.5)
        run.put("fd.suspect_s_p50", statistics.median(suspect_s), n=len(suspect_s), percentile=0.5)
    _put_latency(run, report.latencies())
    speed = _put_host_speed(run, meter.intervals)
    if tracer is None:
        _end_to_end(run, setup_s, 1.0 / stall_s, len(stalls))
        return
    _live_layers(run, meter, report, speed)
    run.put("trace.work_per_s", 1.0 / stall_s, n=len(stalls))


async def _poll(condition: Callable[[], bool]) -> bool:
    """Poll *condition* every 10 ms for at most ``CHURN_PHASE_CAP_S``."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + CHURN_PHASE_CAP_S
    while not condition():
        if loop.time() >= deadline:
            return False
        await asyncio.sleep(0.01)
    return True


def live(run: Pass, seed: int, seconds: float, tracer: Optional[Tracer]) -> None:
    body = {"live_counters": _counters, "live_smr": _smr, "live_churn": _churn}[run.workload]
    asyncio.run(body(run, seed, seconds, tracer))


# ---------------------------------------------------------------------------
# Simulator workloads
# ---------------------------------------------------------------------------
def sim_scale(run: Pass, seed: int, seconds: float, tracer: Optional[Tracer]) -> None:
    """Canary, then repetitions of: an n=128 bootstrap (phase A) and a
    converged window of ``SIM_WINDOW_SU`` (phase B).  Same seed, same work;
    the repetition that took the fewest reference seconds is reported."""
    import check
    from repro.scenarios import ScenarioSpec, run_scenario
    from repro.sim.cluster import build_cluster
    from repro.sim.config import fast_sim

    t0 = time.perf_counter()
    canary = run_scenario(
        ScenarioSpec(name="bootstrap_n16", n=16, config="fast_sim", bootstrap_timeout=6_000.0),
        seed=89,
    )["statistics"]
    run.wrong(check.check_canary(canary["executed_events"], canary["delivered_messages"]))
    run.attempted = 1

    setup_s = 0.0
    ranges: List[Tuple[int, int]] = []
    intervals: List[Tuple[float, float]] = []
    walls: List[Tuple[float, float]] = []  # per repetition: phases A and B, reference seconds
    exact: List[Dict[str, Any]] = []
    for _ in range(_repetitions(seconds, SIM_REP_NOMINAL_S)):
        cluster = build_cluster(n=SIM_NODES, seed=seed, config=fast_sim(fd_gap_slack=2 * SIM_NODES))
        if not walls:
            setup_s = run.info["import_s"] + time.perf_counter() - t0
        first = len(tracer) if tracer else 0
        t0 = time.perf_counter()
        converged = cluster.run_until_converged()
        t1 = time.perf_counter()
        bootstrap_su = cluster.simulator.now
        cluster.run(until=bootstrap_su + SIM_WINDOW_SU)
        t2 = time.perf_counter()
        ranges.append((first, len(tracer) if tracer else 0))
        intervals.append((t0, t2))
        walls.append((
            CLOCK.reference_seconds(t0, t1, t1 - t0), CLOCK.reference_seconds(t1, t2, t2 - t1),
        ))

        run.attempted += 1
        run.wrong(check.check_sim(
            converged and cluster.is_converged(), cluster.agreed_configuration(), SIM_NODES
        ))
        stats = cluster.statistics()
        exact.append({
            "sim.bootstrap_su": bootstrap_su,
            "sim.events": stats["executed_events"],
            "sim.delivered_messages": stats["delivered_messages"],
            "sim.net_sent": stats["net_sent"],
            **_NodeCounters(cluster).read(),
        })
        run.wrong(check.check_repeat("sim_scale", exact[0], exact[-1]))
        channel = cluster.config.channel
        run.info["channel_delay_su"] = [channel.min_delay, channel.max_delay]
        del cluster  # one n=128 cluster in memory at a time
        gc.collect()

    wall_a, wall_b = min(walls, key=sum)
    su = exact[0]["sim.bootstrap_su"] + SIM_WINDOW_SU
    rate = su / (wall_a + wall_b)
    run.info["walls"] = walls
    for name, value in exact[0].items():
        run.put(name, value)
    run.put("sim.events_per_s", exact[0]["sim.events"] / (wall_a + wall_b))
    run.put("sim.bootstrap_wall_s", wall_a)
    run.put("sim.window_su_per_s", SIM_WINDOW_SU / wall_b)
    speed = _put_host_speed(run, intervals)
    if tracer is None:
        _end_to_end(run, setup_s, rate, len(walls))
        return
    busy_s = sum(end - start for start, end in intervals)
    table = _layer_times(run, tracer, ranges, busy_s, speed)
    run.put("sim.handler_busy_s", _handler_busy_s(table) * speed)
    run.put("trace.work_per_s", rate, n=len(walls))


def audit_recovery(run: Pass, seed: int, seconds: float, tracer: Optional[Tracer]) -> None:
    """Re-convergence from arbitrary state: every scheduler x 4 corruptions x k
    simulator seeds in one ``certify`` call."""
    import check
    from repro.audit import harness

    certify = harness.certify
    if tracer is not None:
        certify = tracer.wrap("audit.certify", certify)
    t0 = time.perf_counter()
    cases = harness.build_cases(corruption_seeds=range(AUDIT_CORRUPTION_SEEDS), n=AUDIT_NODES)
    setup_s = run.info["import_s"] + time.perf_counter() - t0
    seeds = [seed + k for k in range(_repetitions(seconds, AUDIT_SEED_NOMINAL_S))]

    first = len(tracer) if tracer else 0
    t0 = time.perf_counter()
    report = certify(
        cases, seeds=seeds, workers=1, shrink_failures=False, reuse_prefix=True, store=None,
    )
    t1 = time.perf_counter()
    last = len(tracer) if tracer else 0

    verdicts = report["verdicts"]
    run.attempted = len(verdicts)
    for verdict in verdicts:
        run.wrong(check.check_audit_cell(verdict))
    stabilization = [
        v["convergence"]["stabilization_time"] for v in verdicts
        if v.get("convergence") and v["convergence"]["stabilization_time"] is not None
    ]
    if len(stabilization) != len(verdicts):
        run.wrong([f"{len(verdicts) - len(stabilization)} cells report no stabilization time"])
    rate = len(verdicts) / CLOCK.reference_seconds(t0, t1, t1 - t0)
    run.info.update(cells=len(verdicts), seeds=seeds, config=cases[0].config)
    run.put("audit.warm_runs", report["meta"]["prefix_reuse"]["warm_runs"])
    run.put("audit.corruption_atoms", sum(
        entry.get("atoms_selected", 0)
        for v in verdicts for entry in (v.get("corruption") or [])
    ))
    if stabilization:
        run.put("audit.stabilization_su_p50", statistics.median(stabilization),
                n=len(stabilization), percentile=0.5)
        run.put("audit.stabilization_su_max", max(stabilization), n=len(stabilization),
                percentile=1.0)
    speed = _put_host_speed(run, [(t0, t1)])
    if tracer is None:
        _end_to_end(run, setup_s, rate, len(verdicts))
        return
    table = _layer_times(run, tracer, [(first, last)], t1 - t0, speed)
    run.put("trace.work_per_s", rate, n=len(verdicts))
    run.put("sim.handler_busy_s", _handler_busy_s(table) * speed)
    run.put("sim.events", _count(table, "sim.step"))
    run.put("snapshot.captures", _count(table, "snapshot.capture"))
    run.put("snapshot.restores", _count(table, "snapshot.restore"))


WORKLOADS: Dict[str, Callable[[Pass, int, float, Optional[Tracer]], None]] = {
    "live_counters": live,
    "live_smr": live,
    "live_churn": live,
    "sim_scale": sim_scale,
    "audit_recovery": audit_recovery,
}


def _pin_to_last_cpu() -> Optional[int]:
    """Every pass is one thread; keep it on one CPU, the last one allowed.

    Interrupts and the I/O of whatever started the benchmark land on the
    first CPU: on the reference box a pass left there is preempted ~25
    times a second, on the last CPU twice.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    repo.add_src_to_path()
    import repro.audit.harness  # noqa: F401 - the program, every layer
    import repro.runtime.cluster  # noqa: F401

    run = Pass(args.workload)
    run.info["cpu"] = _pin_to_last_cpu()
    CLOCK.start()
    run.info["import_s"] = time.perf_counter() - _PROCESS_START
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    started = time.perf_counter()
    try:
        WORKLOADS[args.workload](run, args.seed, args.seconds, tracer)
    finally:
        CLOCK.stop()  # before the interpreter puts SIGALRM's default action back
    run.info["pass_wall_s"] = time.perf_counter() - started
    shown = run.problems[:MAX_PROBLEMS_SHOWN]
    if len(run.problems) > len(shown):
        shown.append(f"... and {len(run.problems) - len(shown)} more")
    print(json.dumps({
        "workload": run.workload,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "correct": not run.problems,
        "attempted": run.attempted,
        # One operation can be wrong in two ways; it still failed once.
        "failed": min(run.failed, run.attempted),
        "problems": shown,
        "metrics": run.metrics,
        "info": run.info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
