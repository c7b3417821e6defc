"""The benchmark's own load generator: one process, one event loop.

Clients call the node services in-process (like ``repro.runtime.loadgen``)
but keep what that generator throws away: every answer, with its submit and
completion instants, so :mod:`check` can verify the history afterwards.
Latencies are exact samples, not histogram buckets.

Closed loop: a client sends its next request only after the previous one
completed — callers that each wait for a reply, at once (which saturates
the system) or paced by a think time (which does not).  Open loop: requests are due
on a fixed schedule whatever the system does, and each is timed from when it
was *due*, so a stall is charged to every request it delayed.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from check import OpRecord

#: The retry pause grows with the attempt, as in ``repro.runtime.loadgen``,
#: up to this one.  That generator gives up after 8 retries; this one retries
#: until the request's patience runs out, so a reconfiguration that a slow
#: host stretches past 8 retries costs latency, not a failed operation.
BACKOFF_ATTEMPTS = 8


@dataclass
class LoadReport:
    """What one generator leg produced."""

    ops: List[OpRecord] = field(default_factory=list)
    timeouts: int = 0
    aborts_reconfig: int = 0  # the paper's immediate ⊥, retried
    aborts_quorum: int = 0  # lost its quorum mid-flight, retried
    lateness: List[float] = field(default_factory=list)  # open loop: start - due
    failed_due: List[float] = field(default_factory=list)  # open loop: due times of failures

    @property
    def failed(self) -> int:
        return self.timeouts

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.failed

    def latencies(self) -> List[float]:
        return [op.done - op.submit for op in self.ops]

    def add(self, leg: "LoadReport") -> None:
        """Fold another leg of the same pass into this report."""
        for name, value in vars(leg).items():
            setattr(self, name, getattr(self, name) + value)


async def _increment(
    cluster: Any,
    pid: int,
    deadline: float,
    rng: random.Random,
    report: LoadReport,
) -> Optional[Tuple[float, Any]]:
    """One increment through node *pid*, retried with a jittered pause until
    *deadline*; ``(done, value)``, or None when the deadline passed first."""
    loop = asyncio.get_running_loop()
    attempt = 0
    while True:
        attempt += 1
        future: asyncio.Future = loop.create_future()

        def complete(outcome: Any, future: asyncio.Future = future) -> None:
            if not future.done():
                future.set_result(outcome)

        op_id = cluster.nodes[pid].service("counters").increment(complete)
        try:
            outcome = await asyncio.wait_for(future, timeout=max(0.0, deadline - loop.time()))
        except asyncio.TimeoutError:
            report.timeouts += 1
            return None
        if outcome.success:
            return loop.time(), outcome.counter
        if op_id is None:
            report.aborts_reconfig += 1
        else:
            report.aborts_quorum += 1
        # Reconfiguration windows last a few protocol rounds; the jitter
        # keeps the retrying cohort from stampeding when the window ends.
        pause = cluster.tick_seconds * min(attempt, BACKOFF_ATTEMPTS) * (0.5 + rng.random())
        if loop.time() + pause >= deadline:
            report.timeouts += 1
            return None
        await asyncio.sleep(pause)


async def closed_loop_counters(
    cluster: Any, clients: int, seconds: float, seed: int, op_timeout_s: float = 10.0
) -> Tuple[LoadReport, float]:
    """*clients* sessions, client ``c`` pinned to node ``c % n``; returns the
    report and the loop time the window opened."""
    loop = asyncio.get_running_loop()
    report = LoadReport()
    pids = sorted(cluster.nodes)
    start = loop.time()
    stop_at = start + seconds

    async def session(client: int) -> None:
        rng = random.Random((seed << 16) ^ client)
        pid = pids[client % len(pids)]
        while loop.time() < stop_at:
            submit = loop.time()
            answer = await _increment(cluster, pid, submit + op_timeout_s, rng, report)
            if answer is not None:
                report.ops.append(OpRecord(client, submit, answer[0], answer[1]))

    await asyncio.gather(*(session(c) for c in range(clients)))
    return report, start


async def paced_loop_counters(
    cluster: Any, clients: int, period_s: float, seconds: float, seed: int,
    op_timeout_s: float = 10.0,
) -> Tuple[LoadReport, float]:
    """*clients* sessions, each sending one increment per *period_s* and the
    next only after the previous one completed: callers with think time.

    Client ``c`` is pinned to node ``c % n`` and its periods start
    ``c / clients`` of a period after the window opens, so the offered load
    is even: ``clients / period_s`` a second whatever the host's speed, as
    long as an increment takes less than a period.  One that takes longer
    costs its client the periods it overran, so the load backs off instead
    of queueing.
    """
    loop = asyncio.get_running_loop()
    report = LoadReport()
    pids = sorted(cluster.nodes)
    start = loop.time()
    stop_at = start + seconds

    async def session(client: int) -> None:
        rng = random.Random((seed << 16) ^ client)
        pid = pids[client % len(pids)]
        due = start + period_s * client / clients
        while due < stop_at:
            await asyncio.sleep(max(0.0, due - loop.time()))
            submit = loop.time()
            answer = await _increment(cluster, pid, submit + op_timeout_s, rng, report)
            if answer is not None:
                report.ops.append(OpRecord(client, submit, answer[0], answer[1]))
            due += period_s * (1 + int((loop.time() - due) / period_s))

    await asyncio.gather(*(session(c) for c in range(clients)))
    return report, start


async def closed_loop_smr(
    cluster: Any, clients: int, commands: int, op_timeout_s: float = 10.0
) -> Tuple[LoadReport, float]:
    """*clients* sessions submitting *commands* ``("spine", client, seq)``
    commands between them: a fixed amount of work, because what a command
    costs grows with the history the replicas already hold.

    Completion is the first replica applying the command (total order makes
    first application the delivery), observed through ``delivery_callback``.
    """
    loop = asyncio.get_running_loop()
    report = LoadReport()
    pids = sorted(cluster.nodes)
    waiting: Dict[Any, asyncio.Future] = {}
    submitted = 0

    def tap(rnd: Any, view: Any, delivered: List[Any]) -> None:
        for command in delivered:
            future = waiting.get(command)
            if future is not None and not future.done():
                future.set_result(True)

    for node in cluster.nodes.values():
        node.service("vs").delivery_callback = tap
    start = loop.time()

    async def session(client: int) -> None:
        nonlocal submitted
        service = cluster.nodes[pids[client % len(pids)]].service("vs")
        seq = 0
        while submitted < commands:
            submitted += 1
            command = ("spine", client, seq)
            seq += 1
            future = waiting[command] = loop.create_future()
            submit = loop.time()
            service.submit(command)
            try:
                await asyncio.wait_for(future, timeout=op_timeout_s)
                report.ops.append(OpRecord(client, submit, loop.time(), command))
            except asyncio.TimeoutError:
                report.timeouts += 1
            finally:
                del waiting[command]

    await asyncio.gather(*(session(c) for c in range(clients)))
    return report, start


async def open_loop_counters(
    cluster: Any,
    hosts: List[int],
    rate: float,
    stop: asyncio.Event,
    seed: int,
    op_timeout_s: float,
) -> LoadReport:
    """Increments due every ``1/rate`` seconds until *stop* is set.

    Request ``k`` goes through ``hosts[k % len(hosts)]`` and is timed from
    its due instant.
    """
    loop = asyncio.get_running_loop()
    report = LoadReport()
    start = loop.time()
    tasks: List[asyncio.Task] = []

    async def one(k: int, due: float) -> None:
        rng = random.Random((seed << 20) ^ k)
        report.lateness.append(loop.time() - due)
        answer = await _increment(cluster, hosts[k % len(hosts)], due + op_timeout_s, rng, report)
        if answer is None:
            report.failed_due.append(due)
        else:
            report.ops.append(OpRecord(k, due, answer[0], answer[1]))

    k = 0
    while not stop.is_set():
        due = start + k / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(k, due)))
        k += 1
    await asyncio.gather(*tasks)
    return report
