"""Micro-benchmarks of the simulation hot path (event queue, gossip rounds).

These do not reproduce a claim of the paper (those are tier-1 tests, see
``docs/claims.md``); they time the inner loops every simulated run goes
through — event scheduling/dispatch, the recSA broadcast round, a counter
member's steady-state iteration (label-layer gossip and the receipts it
triggers), a heartbeat followed by the failure detector's ``trusted()``, and
the convergence predicate on a converged cluster — in isolation, which the
spine's per-layer spans cannot: it sees them only inside whole workloads.  Run with ``make bench-micro``.
"""

from __future__ import annotations

import pytest

from conftest import bench_cluster, record

from repro.core.recsa import DEFAULT_GOSSIP_REFRESH_INTERVAL, RecSA
from repro.counters.service import CounterService
from repro.failure_detector.ntheta import NThetaFailureDetector
from repro.sim.events import EventQueue


def _event_throughput(n_events: int) -> dict:
    """Schedule and drain *n_events* through the tuple heap."""
    queue = EventQueue()
    sink = []
    append = sink.append
    for i in range(n_events):
        queue.schedule(float(i % 97), append, args=(i,))
    drained = 0
    while (entry := queue.pop_entry()) is not None:
        event = entry[3]
        event.callback(*event.args)
        drained += 1
    return {"events": n_events, "drained": drained}


def _broadcast_round_cost(n: int, rounds: int) -> dict:
    """Cost of *rounds* recSA do-forever iterations over a synchronous mesh.

    Messages are exchanged through plain python lists (no simulator), so the
    number measures the protocol layer itself: message construction, change
    detection and receipt bookkeeping.
    """
    from repro.common.types import BOTTOM

    pids = list(range(n))
    inboxes: dict = {pid: [] for pid in pids}
    instances = {}
    for pid in pids:
        def _send(dest, message, _pid=pid):
            inboxes[dest].append((_pid, message))

        instances[pid] = RecSA(
            pid=pid,
            fd_provider=lambda _pids=frozenset(pids): _pids,
            send=_send,
            initial_config=BOTTOM,
        )
    messages = 0
    for _ in range(rounds):
        for pid in pids:
            instances[pid].step()
        for pid in pids:
            queue = inboxes[pid]
            inboxes[pid] = []
            messages += len(queue)
            for sender, message in queue:
                instances[pid].on_message(sender, message)
    sent = sum(inst.broadcasts_sent for inst in instances.values())
    skipped = sum(inst.broadcasts_skipped for inst in instances.values())
    return {
        "n": n,
        "rounds": rounds,
        "messages_exchanged": messages,
        "broadcasts_sent": sent,
        "broadcasts_skipped": skipped,
    }


class _StableScheme:
    """What a counter service reads of the scheme: one stable configuration."""

    def __init__(self, members) -> None:
        self.members = frozenset(members)
        self.recsa = self
        self.gossip_refresh_interval = DEFAULT_GOSSIP_REFRESH_INTERVAL

    def no_reco(self) -> bool:
        return True

    def configuration(self):
        return self.members


def _counter_members(n: int):
    """*n* counter-service members over plain-list inboxes, run until they
    hold one label (the steady state the timed rounds start from)."""
    inboxes: dict = {pid: [] for pid in range(n)}
    scheme = _StableScheme(range(n))
    members = {}
    for pid in range(n):
        def _send(dest, message, _pid=pid):
            inboxes[dest].append((_pid, message))

        members[pid] = CounterService(pid, scheme, _send)
    _counter_rounds(members, inboxes, 3 * DEFAULT_GOSSIP_REFRESH_INTERVAL)
    assert len({svc.store.local_max_label() for svc in members.values()}) == 1
    return (members, inboxes), {}


def _counter_rounds(members: dict, inboxes: dict, rounds: int) -> dict:
    """*rounds* do-forever iterations of every counter member: its gossip
    send, then the receipts that gossip triggers at the other members."""
    messages = 0
    for _ in range(rounds):
        for svc in members.values():
            svc.on_timer()
        for pid, svc in members.items():
            queue = inboxes[pid]
            inboxes[pid] = []
            messages += len(queue)
            for sender, message in queue:
                svc.on_message(sender, message)
    return {"n": len(members), "rounds": rounds, "messages_exchanged": messages}


def _detector(n: int):
    """An (N, Theta) detector that has heard every one of n - 1 peers."""
    fd = NThetaFailureDetector(pid=0, upper_bound_n=n)
    for _ in range(3):
        for peer in range(1, n):
            fd.heartbeat(peer)
    fd.trusted()
    return (fd, n), {}


def _heartbeat_then_trusted(fd: NThetaFailureDetector, n: int, beats: int = 20_000) -> dict:
    """*beats* round-robin heartbeats, each followed by ``trusted()`` — what
    every received frame costs a node whose convergence is then checked."""
    total = 0
    for index in range(beats):
        fd.heartbeat(1 + index % (n - 1))
        total += len(fd.trusted())
    return {"n": n, "beats": beats, "trusted_mean": total / beats}


def _converged_cluster(n: int):
    cluster = bench_cluster(n, seed=7)
    assert cluster.run_until_converged(timeout=800)
    return (cluster,), {}


def _convergence_checks(cluster, checks: int = 20_000) -> dict:
    """*checks* calls of ``is_converged()`` on a converged cluster: what a
    per-event tracker pays after an event that moved nothing."""
    is_converged = cluster.is_converged
    converged = 0
    for _ in range(checks):
        converged += is_converged()
    return {"n": len(cluster.nodes), "checks": checks, "converged": converged}


def _delivery_path_cost(n: int, until: float) -> dict:
    """End-to-end simulator cost: a full cluster run for *until* sim-time."""
    cluster = bench_cluster(n, seed=7)
    cluster.run(until=until)
    stats = cluster.statistics()
    return {
        "n": n,
        "executed_events": stats["executed_events"],
        "delivered_messages": stats["delivered_messages"],
    }


@pytest.mark.parametrize("n_events", [100_000])
def test_event_queue_throughput(benchmark, n_events):
    result = benchmark.pedantic(_event_throughput, args=(n_events,), rounds=3, iterations=1)
    record(benchmark, result)
    assert result["drained"] == n_events


@pytest.mark.parametrize("n", [16, 64])
def test_recsa_broadcast_round(benchmark, n):
    result = benchmark.pedantic(_broadcast_round_cost, args=(n, 50), rounds=3, iterations=1)
    record(benchmark, result)
    assert result["broadcasts_sent"] > 0
    # Change detection must actually suppress steady-state traffic.
    assert result["broadcasts_skipped"] > result["broadcasts_sent"]


@pytest.mark.parametrize("n", [8, 16])
def test_counters_member_round(benchmark, n):
    rounds = 50
    result = benchmark.pedantic(
        lambda members, inboxes: _counter_rounds(members, inboxes, rounds),
        setup=lambda: _counter_members(n),
        rounds=3,
        iterations=1,
    )
    record(benchmark, result)
    # Idle members tell each peer their pair once per refresh interval.
    per_member_round = result["messages_exchanged"] / (n * rounds)
    assert per_member_round <= (n - 1) / DEFAULT_GOSSIP_REFRESH_INTERVAL + 0.1


@pytest.mark.parametrize("n", [8, 128])
def test_detector_heartbeat_then_trusted(benchmark, n):
    result = benchmark.pedantic(
        _heartbeat_then_trusted, setup=lambda: _detector(n), rounds=3, iterations=1
    )
    record(benchmark, result)
    # Round-robin peers never open a gap: everyone stays trusted.
    assert result["trusted_mean"] == n


def test_convergence_check_of_a_converged_cluster(benchmark):
    result = benchmark.pedantic(
        _convergence_checks, setup=lambda: _converged_cluster(8), rounds=3, iterations=1
    )
    record(benchmark, result)
    assert result["converged"] == result["checks"]


@pytest.mark.parametrize("n", [8, 32])
def test_simulator_delivery_path(benchmark, n):
    result = benchmark.pedantic(_delivery_path_cost, args=(n, 50.0), rounds=1, iterations=1)
    record(benchmark, result)
    assert result["executed_events"] > 0
