"""Live-runtime integration tests: the full stack over UDP/localhost.

These exercise :class:`repro.runtime.cluster.RuntimeCluster` end to end —
bootstrap from ``BOTTOM`` to an agreed configuration, stop-fail eviction,
joiner re-admission — plus a miniature closed-loop load-generator run and
the hostile-datagram quarantine path.  Everything runs at ``tick_seconds``
well below the default so the whole module stays a few wall seconds.

Wall-clock budgets are deliberately generous (CI machines stall); the
expected timings are an order of magnitude smaller.
"""

from __future__ import annotations

import asyncio
import json
import socket
import statistics
import struct

import pytest

from repro.common.codec import encode
from repro.core.joining import JoinRequest
from repro.runtime.cluster import RuntimeCluster
from repro.runtime.loadgen import percentile, run_loadgen
from repro.runtime.transport import _HEADER

#: Fast pacing for tests: 10 ms of wall clock per sim-time unit.
TICK = 0.01
#: Outer wall-clock budget per wait; actual convergence is well under 1 s.
BUDGET_S = 30.0


def test_bootstrap_kill_restart_cycle():
    """n=8: converge from scratch, evict a killed node, re-admit it."""

    async def scenario() -> None:
        async with RuntimeCluster(
            n=8, seed=7, stack="counters", tick_seconds=TICK
        ) as cluster:
            assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)
            assert cluster.agreed_configuration() == frozenset(range(8))

            victim = 7
            cluster.kill(victim)
            assert cluster.nodes[victim].crashed

            def evicted() -> bool:
                return all(
                    victim not in node.trusted()
                    for pid, node in cluster.nodes.items()
                    if pid != victim
                )

            loop = asyncio.get_running_loop()
            deadline = loop.time() + BUDGET_S
            while not evicted():
                assert loop.time() < deadline, "survivors never evicted the victim"
                await asyncio.sleep(0.01)

            node = await cluster.restart(victim)
            assert not node.scheme.is_participant()  # fresh joiner
            deadline = loop.time() + BUDGET_S
            while not (
                node.scheme.is_participant() and cluster.is_converged()
            ):
                assert loop.time() < deadline, "restarted node never rejoined"
                await asyncio.sleep(0.01)

            stats = cluster.statistics()
            assert stats["delivery_errors"] == 0
            assert stats["sent_datagrams"] > 0

    asyncio.run(scenario())


def test_mini_loadgen_counters():
    """A small closed-loop run completes increments and reports latency."""

    async def scenario() -> dict:
        return await run_loadgen(
            n=4,
            clients=4,
            duration_s=1.5,
            mode="counters",
            seed=7,
            tick_seconds=TICK,
            bootstrap_timeout_s=BUDGET_S,
            op_timeout_s=10.0,
        )

    report = asyncio.run(scenario())
    assert "error" not in report
    assert report["ops_completed"] > 0
    assert report["ops_failed"] == 0
    latency = report["latency"]
    assert latency["p50_ms"] > 0
    assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
    assert report["statistics"]["delivery_errors"] == 0


def test_smr_closed_loop_costs_the_same_at_any_history_length():
    """3 000 commands through an n=8 vs_smr cluster at the default tick.

    The parent shipped the whole replica every round: bytes per command grew
    with the history until the coordinator's record crossed the datagram
    ceiling at about 1 850 commands and SMR stopped for good.  A round now
    ships its batch: the last 500-command windows cost what the first did.

    The byte count is everything on the wire, so a third of it is the
    time-driven gossip of the layers below, and one 500-command window
    (a quarter of a second) moves by 20-40 % with the host's speed at that
    moment.  The median of three windows moves by under 10 % (48 runs:
    0.96-1.12), which is what is compared.
    """
    total, clients, window = 3000, 8, 500

    async def scenario() -> None:
        async with RuntimeCluster(n=8, seed=7, stack="vs_smr") as cluster:
            assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)
            loop = asyncio.get_running_loop()
            transport = cluster.transport
            services = {pid: cluster.service(pid, "vs") for pid in cluster.nodes}
            deadline = loop.time() + BUDGET_S
            while not any(vs.is_coordinator() and vs.view for vs in services.values()):
                assert loop.time() < deadline, "no view was installed"
                await asyncio.sleep(0.01)

            waiting: dict = {}
            sent_at = [transport.sent_bytes]  # bytes on the wire at every 500th completion
            completed = submitted = timeouts = 0

            def tap(rnd, view, commands) -> None:
                for command in commands:
                    future = waiting.get(command)
                    if future is not None and not future.done():
                        future.set_result(True)

            for vs in services.values():
                vs.delivery_callback = tap

            async def client(index: int) -> None:
                nonlocal completed, submitted, timeouts
                seq = 0
                while submitted < total:
                    submitted += 1
                    command = ("closed-loop", index, seq)
                    seq += 1
                    future = waiting[command] = loop.create_future()
                    services[index % len(services)].submit(command)
                    try:
                        await asyncio.wait_for(future, timeout=10.0)
                    except asyncio.TimeoutError:
                        timeouts += 1
                        continue
                    completed += 1
                    if completed % window == 0:
                        sent_at.append(transport.sent_bytes)

            await asyncio.gather(*(client(index) for index in range(clients)))
            assert timeouts == 0
            assert completed == total
            stats = cluster.statistics()
            assert stats["oversize_frames"] == 0
            assert stats["delivery_errors"] == 0
            per_command = [(b - a) / window for a, b in zip(sent_at, sent_at[1:])]
            first = statistics.median(per_command[:3])
            last = statistics.median(per_command[3:])
            assert abs(last - first) <= 0.2 * first, per_command

    asyncio.run(scenario())


def test_oversize_frames_are_counted_apart_and_warned_once(caplog):
    """A frame above the datagram ceiling is not a lost packet: it would be
    lost again on every retransmission, so it has its own counter and a
    (rate-limited) warning that names the payload type."""
    from repro.core.joining import JoinResponse
    from repro.runtime.transport import MAX_DATAGRAM_BYTES

    async def scenario() -> None:
        async with RuntimeCluster(
            n=2, seed=7, stack="counters", tick_seconds=TICK
        ) as cluster:
            transport = cluster.transport
            huge = JoinResponse(sender=0, granted=True, state="x" * MAX_DATAGRAM_BYTES)
            dropped = transport.dropped_frames
            with caplog.at_level("WARNING", logger="repro.runtime.transport"):
                transport.send(0, 1, huge)
                transport.send(0, 1, huge)
            assert transport.statistics()["oversize_frames"] == 2
            assert transport.dropped_frames == dropped + 2
            warnings = [r for r in caplog.records if "oversize" in r.getMessage()]
            assert len(warnings) == 1
            assert "JoinResponse" in warnings[0].getMessage()

    asyncio.run(scenario())


def test_receive_buffer_is_one_udp_datagram_and_the_largest_frame_arrives():
    """Every endpoint reads with 64 KiB, not asyncio's 256 KiB (whose
    per-datagram allocation made a pass's cost depend on the heap layout,
    PERFORMANCE.md PR 22), and a frame just under the send ceiling still
    arrives whole."""
    from repro.core.joining import JoinResponse
    from repro.runtime.transport import MAX_DATAGRAM_BYTES

    async def scenario() -> None:
        async with RuntimeCluster(n=2, seed=7, stack="bare", tick_seconds=10.0) as cluster:
            transport = cluster.transport
            sizes = {ep.udp.max_size for ep in transport._endpoints.values()}
            assert sizes == {64 * 1024}
            got = []
            cluster.nodes[1].on_receive = lambda sender, payload: got.append(payload)
            big = JoinResponse(sender=0, granted=True, state="x" * (MAX_DATAGRAM_BYTES - 200))
            transport.send(0, 1, big)
            await asyncio.sleep(0.05)
            assert big in got and transport.quarantined_datagrams == 0

    asyncio.run(scenario())


def test_send_encodes_a_broadcast_message_once_per_loop_turn(monkeypatch):
    """``send`` of one immutable message to many peers frames it once (VS and
    recMA broadcast that way); the memo does not outlive the loop turn and
    never covers a mutable payload."""
    import repro.runtime.transport as rt

    calls = []
    real_frame = rt.frame
    monkeypatch.setattr(rt, "frame", lambda payload: calls.append(payload) or real_frame(payload))

    async def scenario() -> None:

        async with RuntimeCluster(n=4, seed=7, stack="bare", tick_seconds=10.0) as cluster:
            transport = cluster.transport
            await asyncio.sleep(0.05)  # the start-up burst is flushed
            message = JoinRequest(sender=0)
            calls.clear()
            for peer in (1, 2, 3):
                transport.send(0, peer, message)
            assert calls == [message]
            mutable = ["payload"]
            transport.send(0, 1, mutable)
            transport.send(0, 2, mutable)
            assert calls == [message, mutable, mutable]
            await asyncio.sleep(0.05)  # flushed: a new turn encodes again
            assert not transport._frame_memo
            transport.send(0, 1, message)
            assert calls == [message, mutable, mutable, message]

    asyncio.run(scenario())


def test_tick_seconds_auto_rejected_at_construction():
    """``tick_seconds`` is a positive number fixed at construction; the
    retired ``"auto"`` mode fails there, not inside ``start()``."""
    for bad in ("auto", 0.0, -0.05):
        with pytest.raises(ValueError, match="tick_seconds"):
            RuntimeCluster(n=3, seed=7, stack="counters", tick_seconds=bad)


def test_hostile_datagrams_are_quarantined_not_fatal():
    """Garbage sprayed at a node's port is counted and dropped, and the
    node keeps working (same stance as the Byzantine datalink validation)."""

    async def scenario() -> None:
        async with RuntimeCluster(
            n=3, seed=7, stack="counters", tick_seconds=TICK
        ) as cluster:
            assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)
            transport = cluster.transport
            target = transport._addrs[0]
            hostile = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            loop = asyncio.get_running_loop()
            try:
                # A well-formed frame in the retired tagged-JSON format: sent
                # alone first, so the count below is this datagram's.
                body = json.dumps(encode(JoinRequest(sender=1))).encode("utf-8")
                hostile.sendto(
                    _HEADER.pack(1) + struct.pack(">I", len(body) + 1) + b"J" + body,
                    target,
                )
                deadline = loop.time() + 5.0
                while transport.quarantined_datagrams < 1:
                    assert loop.time() < deadline
                    await asyncio.sleep(0.01)
                hostile.sendto(b"", target)  # empty
                hostile.sendto(b"\x01", target)  # shorter than header
                hostile.sendto(_HEADER.pack(99) + b"junk", target)  # bad frame
                hostile.sendto(  # oversized length prefix
                    _HEADER.pack(1) + struct.pack(">I", 1 << 30) + b"x", target
                )
                hostile.sendto(  # valid frame, unknown wire type
                    _HEADER.pack(1)
                    + struct.pack(">I", 30)
                    + b'{"%": "dc", "t": "Nope", "f": {}}'[:30],
                    target,
                )
            finally:
                hostile.close()
            # Let the loop drain the socket, then check the node survived.
            deadline = loop.time() + 5.0
            while transport.quarantined_datagrams < 1 + 4:
                assert loop.time() < deadline
                await asyncio.sleep(0.01)
            assert transport.delivery_errors == 0
            assert not cluster.nodes[0].crashed
            await asyncio.sleep(0.1)
            assert cluster.is_converged()

    asyncio.run(scenario())


def test_percentile_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 0.50) == 51
    assert percentile(values, 0.95) == 96
    assert percentile(values, 0.99) == 100
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([], 0.50) is None
