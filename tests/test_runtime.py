"""Live-runtime integration tests: the full stack over UDP/localhost.

These exercise :class:`repro.runtime.cluster.RuntimeCluster` end to end —
bootstrap from ``BOTTOM`` to an agreed configuration, stop-fail eviction,
joiner re-admission — plus closed-loop clients that check what they got back
(counter values, Thm 4.6; SMR delivery across a live view change) and the
hostile-datagram quarantine path.  These are also the examples of driving a
live cluster: a service is called in-process through
``cluster.nodes[pid].service(name)``.  Everything but the SMR tests runs at
``tick_seconds`` well below the default so the whole module stays a few wall
seconds.

Wall-clock budgets are deliberately generous (CI machines stall); the
expected timings are an order of magnitude smaller.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import statistics
import struct

import pytest

from repro.audit.arbitrary_state import generate_plan
from repro.audit.schedulers import _VictimLinkPolicy
from repro.common.codec import frame
from repro.core.joining import JoinRequest
from repro.counters.counter import counter_less_than
from repro.node.config import PRESETS, ChannelConfig, preset
from repro.node.faults import apply_plan
from repro.node.node import agreed_configuration
from repro.node.process import Process
from repro.runtime.cluster import RuntimeCluster
from repro.runtime.transport import _HEADER, AsyncioTransport
from repro.sim.cluster import build_cluster
from repro.vs.virtual_synchrony import VSState

#: Fast pacing for tests: 10 ms of wall clock per sim-time unit.
TICK = 0.01
#: Outer wall-clock budget per wait; actual convergence is well under 1 s.
BUDGET_S = 30.0


@contextlib.asynccontextmanager
async def _running(cluster: RuntimeCluster):
    """Start *cluster*; shut it down on the way out."""
    await cluster.start()
    try:
        yield cluster
    finally:
        await cluster.shutdown()


async def _wait_until(predicate, what: str) -> None:
    """Poll *predicate* every 10 ms; fail with *what* after ``BUDGET_S``."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + BUDGET_S
    while not predicate():
        assert loop.time() < deadline, what
        await asyncio.sleep(0.01)


async def _kill_and_wait_for_eviction(cluster: RuntimeCluster, victim: int) -> None:
    """Stop-fail *victim*; return once no survivor's detector trusts it."""
    cluster.kill(victim)
    assert cluster.nodes[victim].crashed
    await _wait_until(
        lambda: all(
            victim not in node.trusted()
            for pid, node in cluster.nodes.items()
            if pid != victim
        ),
        "survivors never evicted the victim",
    )


async def _smr_clients(cluster: RuntimeCluster):
    """Wait for convergence and an installed view, tap every replica's
    deliveries; returns ``submit(pid, command)``, a future that resolves when
    the first replica delivers *command*."""
    assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)
    loop = asyncio.get_running_loop()
    services = {pid: cluster.nodes[pid].service("vs") for pid in cluster.nodes}
    await _wait_until(
        lambda: any(vs.is_coordinator() and vs.view for vs in services.values()),
        "no view was installed",
    )
    waiting: dict = {}

    def tap(rnd, view, commands) -> None:
        for command in commands:
            future = waiting.get(command)
            if future is not None and not future.done():
                future.set_result(True)

    for vs in services.values():
        vs.delivery_callback = tap

    def submit(pid: int, command) -> asyncio.Future:
        future = waiting[command] = loop.create_future()
        services[pid].submit(command)
        return future

    return submit


async def _deliver_closed_loop(submit, total: int, on_completed=None) -> None:
    """Eight closed-loop clients (client i at node i) get *total* commands
    delivered, each within 10 s; *on_completed(count)* after every one."""
    completed = submitted = 0

    async def client(index: int) -> None:
        nonlocal completed, submitted
        seq = 0
        while submitted < total:
            submitted += 1
            future = submit(index, ("closed-loop", index, seq))
            seq += 1
            await asyncio.wait_for(future, timeout=10.0)
            completed += 1
            if on_completed is not None:
                on_completed(completed)

    await asyncio.gather(*(client(index) for index in range(8)))
    assert completed == total


def test_bootstrap_kill_restart_cycle():
    """n=8: converge from scratch, evict a killed node, re-admit it."""

    async def scenario() -> None:
        async with _running(RuntimeCluster(
            n=8, seed=7, stack="counters", tick_seconds=TICK
        )) as cluster:
            assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)
            assert agreed_configuration(cluster.nodes.values()) == frozenset(range(8))

            victim = 7
            await _kill_and_wait_for_eviction(cluster, victim)

            node = await cluster.restart(victim)
            assert not node.scheme.is_participant()  # fresh joiner
            await _wait_until(
                lambda: node.scheme.is_participant() and cluster.is_converged(),
                "restarted node never rejoined",
            )

            stats = cluster.transport.statistics()
            assert stats["delivery_errors"] == 0
            assert stats["sent_datagrams"] > 0

    asyncio.run(scenario())


def test_paper_faithful_links_finish_cleaning_live():
    """n=4 ``paper_faithful``: every link runs the snap-stabilizing cleaning
    handshake over UDP and becomes established (≈ 0.2 s measured; the
    cluster converges before that, since cleaning packets are heartbeats
    too), with no packet quarantined and no delivery error."""

    async def scenario() -> None:
        async with _running(RuntimeCluster(
            n=4, seed=7, config="paper_faithful", stack="bare", tick_seconds=TICK
        )) as cluster:
            assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)
            links = [
                link for node in cluster.nodes.values() for link in node.heartbeat.links.values()
            ]
            assert len(links) == 12
            await _wait_until(
                lambda: all(link.is_established() for link in links),
                "a link never finished cleaning",
            )
            assert sum(node.heartbeat.quarantined for node in cluster.nodes.values()) == 0
            assert cluster.transport.statistics()["delivery_errors"] == 0

    asyncio.run(scenario())


def test_restart_of_a_live_pid_is_refused_and_changes_nothing():
    """``restart`` of a pid that was never killed raises before it replaces
    the node: the cluster keeps describing the nodes that are running."""

    async def scenario() -> None:
        async with _running(RuntimeCluster(
            n=3, seed=7, stack="counters", tick_seconds=TICK
        )) as cluster:
            assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)
            node = cluster.nodes[2]
            with pytest.raises(RuntimeError, match="live endpoint"):
                await cluster.restart(2)
            assert cluster.nodes[2] is node
            assert cluster.is_converged()
            assert len(cluster.alive_nodes()) == 3

    asyncio.run(scenario())


def test_a_cluster_starts_once():
    """The constructor boots the nodes, so a second ``start``, after a
    shutdown too, is refused instead of hosting nodes that already ran."""

    async def scenario() -> None:
        cluster = RuntimeCluster(n=2, seed=7, stack="bare", tick_seconds=TICK)
        async with _running(cluster):
            with pytest.raises(RuntimeError, match="already started"):
                await cluster.start()
        with pytest.raises(RuntimeError, match="already started"):
            await cluster.start()

    asyncio.run(scenario())


def test_closed_loop_counter_clients_get_distinct_increasing_values():
    """Thm 4.6 on the live backend: n=4, four concurrent closed-loop clients
    for 1.5 s — every increment succeeds, no two clients are handed the same
    counter, and each client's counters strictly increase under ``≺ct``.

    The theorem starts from an agreed maximal label (Thm 4.4), which recSA
    convergence does not imply: a client let loose a few milliseconds earlier
    is handed a counter under one label and then a smaller one under another
    (8 runs of 24 with both cores taken).  So the clients wait for the label.
    """

    async def scenario() -> None:
        async with _running(RuntimeCluster(
            n=4, seed=7, stack="counters", tick_seconds=TICK
        )) as cluster:
            assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)

            def max_label_agreed() -> bool:
                pairs = [
                    cluster.nodes[pid].service("counters").local_max_counter()
                    for pid in cluster.nodes
                ]
                return None not in pairs and len({pair.mct.label for pair in pairs}) == 1

            await _wait_until(max_label_agreed, "no maximal label was agreed")
            loop = asyncio.get_running_loop()
            stop_at = loop.time() + 1.5
            outcomes: dict = {pid: [] for pid in cluster.nodes}

            async def client(pid: int) -> None:
                counters = cluster.nodes[pid].service("counters")
                while loop.time() < stop_at:
                    done = loop.create_future()
                    counters.increment(done.set_result)
                    outcomes[pid].append(await asyncio.wait_for(done, timeout=10.0))

            await asyncio.gather(*(client(pid) for pid in cluster.nodes))
            assert all(outcomes.values())
            assert all(o.success for mine in outcomes.values() for o in mine)
            values = [o.counter for mine in outcomes.values() for o in mine]
            assert len(set(values)) == len(values)
            for mine in outcomes.values():
                assert all(
                    counter_less_than(a.counter, b.counter) for a, b in zip(mine, mine[1:])
                )
            assert cluster.transport.statistics()["delivery_errors"] == 0

    asyncio.run(scenario())


def test_smr_closed_loop_costs_the_same_at_any_history_length():
    """3 000 commands through an n=8 vs_smr cluster at the default tick.

    Shipping the whole replica every round made the VS record grow with the
    history until the coordinator's record crossed the datagram ceiling at
    about 1 850 commands and SMR stopped for good.  A round now ships its
    batch: a record sent in the last 500-command windows is the size of one
    sent in the first.

    What is compared is the mean size of the accepted ``VSState`` frames in
    each window (steady at 1.00-1.01 of the first windows), not bytes on the
    wire per command: the latter counts the time-driven gossip of every
    layer, so it follows the host's speed and moved by up to 37 % between
    windows of a passing run on a loaded host.
    """
    window = 500

    async def scenario() -> None:
        async with _running(RuntimeCluster(n=8, seed=7, stack="vs_smr")) as cluster:
            submit = await _smr_clients(cluster)
            transport = cluster.transport
            sizes: list = []  # every accepted VSState frame, in send order
            enqueue = transport._enqueue

            def counting_enqueue(source, destination, payload) -> bool:
                accepted = enqueue(source, destination, payload)
                if accepted and isinstance(payload, VSState):
                    sizes.append(len(transport._frame_once(payload)))
                return accepted

            transport._enqueue = counting_enqueue
            cuts = [0]  # len(sizes) at every 500th completion

            def on_completed(count: int) -> None:
                if count % window == 0:
                    cuts.append(len(sizes))

            await _deliver_closed_loop(submit, 3000, on_completed)
            stats = cluster.transport.statistics()
            assert stats["oversize_frames"] == 0
            assert stats["delivery_errors"] == 0
            per_frame = [statistics.mean(sizes[a:b]) for a, b in zip(cuts, cuts[1:])]
            first = statistics.median(per_frame[:3])
            last = statistics.median(per_frame[3:])
            assert abs(last - first) <= 0.2 * first, per_frame

    asyncio.run(scenario())


@pytest.mark.parametrize(
    "history",
    [
        200,
        pytest.param(
            3000,
            marks=pytest.mark.xfail(
                strict=True,
                reason="full-replica record past MAX_DATAGRAM_BYTES — ROADMAP: bounded replica state",
            ),
        ),
    ],
)
def test_smr_keeps_delivering_across_a_live_view_change(history):
    """n=8 vs_smr at the default tick: *history* commands delivered, node 7
    killed, and once the survivors have evicted it a command submitted at a
    survivor is delivered within 3 s with no oversize frame.

    The view change ships the whole replica in one frame (``docs/vs.md``,
    "What is still bounded by the datagram ceiling"): at 200 commands it
    fits, at 3 000 it is past the ceiling, is dropped on every resend and SMR
    stops for good.  Deleting the ``xfail`` is part of the acceptance of
    ROADMAP's bounded-replica-state item.
    """

    async def scenario() -> None:
        async with _running(RuntimeCluster(n=8, seed=7, stack="vs_smr")) as cluster:
            submit = await _smr_clients(cluster)
            await _deliver_closed_loop(submit, history)
            await _kill_and_wait_for_eviction(cluster, 7)
            await asyncio.wait_for(submit(0, ("after-the-kill", 0, 0)), timeout=3.0)
            assert cluster.transport.statistics()["oversize_frames"] == 0

    asyncio.run(scenario())


def test_oversize_frames_are_counted_apart_and_warned_once(caplog):
    """A frame above the datagram ceiling is not a lost packet: it would be
    lost again on every retransmission, so it has its own counter and a
    (rate-limited) warning that names the payload type."""
    from repro.core.joining import JoinResponse
    from repro.runtime.transport import MAX_DATAGRAM_BYTES

    async def scenario() -> None:
        async with _running(RuntimeCluster(
            n=2, seed=7, stack="counters", tick_seconds=TICK
        )) as cluster:
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
        async with _running(
            RuntimeCluster(n=2, seed=7, stack="bare", tick_seconds=10.0)
        ) as cluster:
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

        async with _running(
            RuntimeCluster(n=4, seed=7, stack="bare", tick_seconds=10.0)
        ) as cluster:
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


def test_all_codec_work_goes_through_the_transports_codec_names(monkeypatch):
    """A live n=4 counters exchange encodes and decodes every frame through
    the module-level names ``repro.runtime.transport.frame`` and ``.unframe``,
    the names the spine benchmark wraps as its ``codec.encode`` and
    ``codec.decode`` spans: one ``frame`` call per frame queued that the
    per-turn memo did not serve, one ``unframe`` call per frame delivered.
    A transport that routes around either name fails here."""
    import repro.runtime.transport as rt

    counts = {"frame": 0, "unframe": 0, "memo": 0}
    real_frame, real_unframe = rt.frame, rt.unframe
    real_frame_once = rt.AsyncioTransport._frame_once

    def frame(payload):
        counts["frame"] += 1
        return real_frame(payload)

    def unframe(data, offset=0):
        counts["unframe"] += 1
        return real_unframe(data, offset)

    def frame_once(transport, payload):
        counts["memo"] += id(payload) in transport._frame_memo
        return real_frame_once(transport, payload)

    monkeypatch.setattr(rt, "frame", frame)
    monkeypatch.setattr(rt, "unframe", unframe)
    monkeypatch.setattr(rt.AsyncioTransport, "_frame_once", frame_once)

    async def scenario() -> dict:
        async with _running(RuntimeCluster(
            n=4, seed=7, stack="counters", tick_seconds=TICK
        )) as cluster:
            transport = cluster.transport
            assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)
            for pid in cluster.nodes:
                done = asyncio.get_running_loop().create_future()
                cluster.nodes[pid].service("counters").increment(done.set_result)
                await asyncio.wait_for(done, timeout=10.0)
        return transport.statistics()

    stats = asyncio.run(scenario())
    assert stats["quarantined_datagrams"] == 0
    assert stats["delivered_frames"] > 0 and counts["memo"] > 0
    queued = stats["sent_frames"] + stats["dropped_frames"]
    assert counts["frame"] == queued - counts["memo"]
    assert counts["unframe"] == stats["delivered_frames"]


def test_tick_seconds_auto_rejected_at_construction():
    """``tick_seconds`` is a positive number fixed at construction; the
    retired ``"auto"`` mode fails there, not inside ``start()``."""
    for bad in ("auto", 0.0, -0.05):
        with pytest.raises(ValueError, match="tick_seconds"):
            RuntimeCluster(n=3, seed=7, stack="counters", tick_seconds=bad)


def test_a_forged_header_pid_is_quarantined_not_delivered():
    """The live channel authenticates its sender: a well-formed frame whose
    header names pid 1, sent from a socket other than pid 1's endpoint, is
    quarantined.  Delivered, it would be node 1's join request, and node 0
    would record node 1 as a non-participant."""

    async def scenario() -> None:
        async with _running(RuntimeCluster(
            n=3, seed=7, stack="bare", tick_seconds=TICK
        )) as cluster:
            assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)
            transport = cluster.transport
            node = cluster.nodes[0]
            forged = JoinRequest(sender=1)
            delivered = []
            deliver = node.deliver

            def spy(source, payload):
                if payload == forged:
                    delivered.append(source)
                deliver(source, payload)

            node.deliver = spy
            before = transport.quarantined_datagrams
            hostile = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                hostile.sendto(_HEADER.pack(1) + frame(forged), transport._addrs[0])
            finally:
                hostile.close()
            await _wait_until(
                lambda: delivered or transport.quarantined_datagrams > before,
                "the forged datagram was neither delivered nor quarantined",
            )
            assert delivered == []
            assert transport.quarantined_datagrams == before + 1

    asyncio.run(scenario())


def test_hostile_datagrams_are_quarantined_not_fatal():
    """Garbage sprayed at a node's port is counted and dropped, and the
    node keeps working (same stance as the Byzantine datalink validation)."""

    async def scenario() -> None:
        async with _running(RuntimeCluster(
            n=3, seed=7, stack="counters", tick_seconds=TICK
        )) as cluster:
            assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)
            transport = cluster.transport
            target = transport._addrs[0]
            hostile = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            loop = asyncio.get_running_loop()
            try:
                # A well-formed frame in the retired tagged-JSON format (a
                # JoinRequest from node 1): sent alone first, so the count
                # below is this datagram's.
                body = json.dumps(
                    {"%": "dc", "t": "JoinRequest", "f": {"sender": 1}}
                ).encode("utf-8")
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


def _node_shape(node) -> dict:
    """What a ``ClusterConfig`` decides about one node, read off the node."""
    return {
        "upper_bound_n": node.failure_detector.upper_bound_n,
        "gap_slack": node.failure_detector.gap_slack,
        "channel_capacity": node.heartbeat.channel_capacity,
        "require_cleaning": node.heartbeat.require_cleaning,
        "idle_resend_interval": node.heartbeat.idle_resend_interval,
        "stack": node.stack.name,
        "step_interval": node.step_interval,
    }


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_both_backends_build_the_same_node_from_one_config(name):
    """One preset, two backends: the live cluster's nodes and the simulated
    cluster's nodes are built the same, pid for pid."""
    simulated = build_cluster(n=3, config=preset(name))

    async def scenario() -> dict:
        async with _running(RuntimeCluster(n=3, config=name, tick_seconds=TICK)) as live:
            return {pid: _node_shape(node) for pid, node in live.nodes.items()}

    live = asyncio.run(scenario())
    assert live == {pid: _node_shape(node) for pid, node in simulated.nodes.items()}



# ---------------------------------------------------------------------------
# The channel adversary on the live host: the transport's link model and the
# corruption surface the simulator's cluster has too.
# ---------------------------------------------------------------------------
def test_a_live_partition_evicts_the_isolated_node_until_heal():
    """n = 5: isolating node 4 makes nodes 0–3 stop trusting it and drop it
    from their participant sets; after ``heal()`` they trust it again and
    the cluster converges with it."""

    async def scenario() -> None:
        async with _running(RuntimeCluster(
            n=5, seed=7, stack="bare", tick_seconds=TICK
        )) as cluster:
            assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)
            others = [cluster.nodes[pid] for pid in range(4)]
            name = cluster.network.isolate(4, sorted(cluster.nodes))
            await _wait_until(
                lambda: all(
                    4 not in node.trusted() and 4 not in node.recsa.participants()
                    for node in others
                ),
                "the isolated node was never evicted",
            )
            assert cluster.transport.dropped_frames > 0
            assert cluster.network.heal() == 8
            await _wait_until(
                lambda: all(
                    4 in node.trusted() and 4 in node.recsa.participants()
                    for node in others
                )
                and cluster.is_converged(),
                "the healed node never came back",
            )
            assert 4 in agreed_configuration(cluster.nodes.values())
            assert cluster.network.summary()["by_kind"] == {"heal": 1, "partition": 1}
            assert name not in cluster.network.summary()["active_partitions"]

    asyncio.run(scenario())


class _Recorder(Process):
    """Records when the first frame from each sender arrived; never steps."""

    def __init__(self, pid: int) -> None:
        super().__init__(pid, step_interval=1e6, jitter=0.0)
        self.arrived: dict = {}

    def on_receive(self, sender: int, payload) -> None:
        self.arrived.setdefault(sender, asyncio.get_running_loop().time())


def test_a_pushed_victim_rule_delays_exactly_the_victims_links():
    """A rule on the transport's link model shapes live frames: with
    ``_VictimLinkPolicy(2, slow)`` pushed, every frame to or from node 2
    waits ``slow``'s fixed 30 ticks, and every other pair stays unshaped."""
    slow = ChannelConfig(min_delay=30.0, max_delay=30.0)
    delay_s = slow.min_delay * TICK

    async def scenario() -> dict:
        transport = AsyncioTransport(seed=7, tick_seconds=TICK)
        nodes = [_Recorder(pid) for pid in range(4)]
        try:
            for node in nodes:
                await transport.start_node(node)
            transport.network.push_rule("slow_node", _VictimLinkPolicy(2, slow))
            sent_at = asyncio.get_running_loop().time()
            for node in nodes:
                node.context.send_many(
                    [(peer.pid, ("probe", node.pid)) for peer in nodes if peer is not node]
                )
            await _wait_until(
                lambda: all(len(node.arrived) == 3 for node in nodes), "a probe never arrived"
            )
        finally:
            await transport.close()
        return {
            (sender, node.pid): at - sent_at
            for node in nodes
            for sender, at in node.arrived.items()
        }

    elapsed = asyncio.run(scenario())
    shaped = {pair for pair in elapsed if 2 in pair}
    assert len(shaped) == 6 and len(elapsed) == 12
    for pair, seconds in elapsed.items():
        if pair in shaped:
            assert seconds >= delay_s, (pair, seconds)
        else:
            assert seconds < delay_s, (pair, seconds)


def test_a_scramble_plan_applied_live_converges():
    """One corruption plan, either host: a ``scramble`` plan from
    ``generate_plan`` (plus ``channel_only`` stale frames, stuffed through
    ``RuntimeCluster.stuff_channel``) lands whole on a live n = 4 cluster,
    which converges again afterwards."""

    async def scenario() -> None:
        async with _running(RuntimeCluster(
            n=4, seed=7, stack="counters", tick_seconds=TICK
        )) as cluster:
            assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)
            plan = generate_plan(cluster, seed=13, profile="scramble")
            stale = generate_plan(cluster, seed=13, profile="channel_only")
            assert plan and stale and {atom.kind for atom in stale} == {"channel"}
            assert apply_plan(cluster, plan + stale) == {
                "applied": len(plan) + len(stale), "skipped": 0,
            }
            assert not cluster.is_converged()
            assert await cluster.wait_converged(timeout_s=BUDGET_S, poll_s=0.01)
            assert cluster.transport.statistics()["delivery_errors"] == 0

    asyncio.run(scenario())
