"""Host conformance: one battery, two backends.

Every test here runs the *same scenario* against both
:class:`repro.sim.simulator.Simulator` (discrete-event simulator) and
:class:`repro.runtime.transport.AsyncioTransport` (UDP/localhost event
loop), the two hosts behind :class:`repro.node.process.ProcessContext`,
asserting the contract its docstring states and the protocol stack relies
on:

* delivery — a sent payload arrives at the destination, intact (in the
  asyncio backend that means a full codec round trip over a real socket);
* timer ordering — timers fire in delay order, the base-class periodic
  loop keeps ticking;
* cancel semantics — cancelled timers never fire; cancel is idempotent
  and tolerates already-fired handles;
* crash isolation — a crashed node takes no further steps and absorbs
  no further deliveries;
* RNG derivation — a node's local random stream is a function of
  ``(seed, pid)`` only, not of the hosting backend.

Scenarios are expressed in *simulated time units*; the asyncio driver
rescales them with a small ``tick_seconds`` so the whole battery costs a
couple of wall seconds.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Any, Callable, List, Sequence, Tuple

import pytest

from repro.audit.schedulers import _VictimLinkPolicy
from repro.common.rng import make_rng
from repro.common.types import Phase, Proposal, make_config
from repro.node.config import ChannelConfig, fast_sim
from repro.node.links import LinkModel
from repro.node.process import Process
from repro.runtime.cluster import RuntimeCluster
from repro.runtime.transport import AsyncioTransport
from repro.sim.cluster import build_cluster
from repro.sim.simulator import Simulator

SEED = 5
#: Wall seconds per sim-time unit for the asyncio driver.  10 ms keeps the
#: whole battery fast while leaving a comfortable margin between distinct
#: timer deadlines (they are >= 1 unit = 10 ms apart in every scenario).
TICK_SECONDS = 0.01

#: A schedule is a list of ``(sim_time, action)`` pairs; the driver runs the
#: system to each instant in order, applies the action, and finally runs to
#: the horizon.  Actions receive the transport so they can crash nodes etc.
Schedule = Sequence[Tuple[float, Callable[[Any], None]]]


class Probe(Process):
    """A process that records everything the transport does to it."""

    def __init__(self, pid: int) -> None:
        super().__init__(pid, step_interval=1.0, jitter=0.0)
        self.inbox: List[Tuple[int, Any]] = []
        self.fired: List[str] = []
        self.on_start_hook: Callable[["Probe"], None] = lambda probe: None

    def on_start(self) -> None:
        self.on_start_hook(self)

    def on_receive(self, sender: int, payload: Any) -> None:
        self.inbox.append((sender, payload))

    def mark(self, label: str) -> Callable[[], None]:
        return lambda: self.fired.append(label)


def _drive_sim(probes: Sequence[Probe], schedule: Schedule, horizon: float) -> Any:
    simulator = Simulator(seed=SEED)
    for probe in probes:
        simulator.add_process(probe)
    for at, action in schedule:
        simulator.run(until=at)
        action(simulator)
    simulator.run(until=horizon)
    return simulator


def _drive_asyncio(probes: Sequence[Probe], schedule: Schedule, horizon: float) -> Any:
    async def main() -> Any:
        transport = AsyncioTransport(seed=SEED, tick_seconds=TICK_SECONDS)
        try:
            for probe in probes:
                await transport.start_node(probe)
            elapsed = 0.0
            for at, action in schedule:
                await asyncio.sleep(max(0.0, at - elapsed) * TICK_SECONDS)
                elapsed = max(elapsed, at)
                action(transport)
            await asyncio.sleep(max(0.0, horizon - elapsed) * TICK_SECONDS)
            return transport
        finally:
            await transport.close()

    return asyncio.run(main())


def _drive_sim_fifo(probes: Sequence[Probe], schedule: Schedule, horizon: float) -> Any:
    """Sim driver over a variance-free channel.

    The default sim channel draws per-packet delays from ``[0.5, 1.5]`` —
    reordering is an intentional adversarial feature there, so FIFO is not
    a contract of the general sim network.  With a degenerate delay
    interval the simulator *must* deliver in send order (equal-time events
    run in insertion order), which is the sim-side counterpart of the
    asyncio backend's coalesced-datagram ordering guarantee.
    """
    simulator = Simulator(
        seed=SEED,
        # capacity above any burst size here: a full channel drops packets
        # (paper semantics), which would test capacity rather than ordering.
        channel_config=ChannelConfig(capacity=64, min_delay=1.0, max_delay=1.0),
    )
    for probe in probes:
        simulator.add_process(probe)
    for at, action in schedule:
        simulator.run(until=at)
        action(simulator)
    simulator.run(until=horizon)
    return simulator


DRIVERS = {"sim": _drive_sim, "asyncio": _drive_asyncio}
FIFO_DRIVERS = {"sim": _drive_sim_fifo, "asyncio": _drive_asyncio}


def crash(transport: Any, pid: int) -> None:
    """Backend-appropriate stop-fail of node *pid*."""
    if hasattr(transport, "crash_node"):
        transport.crash_node(pid)
    else:
        transport.crash_process(pid)


@pytest.fixture(params=sorted(DRIVERS))
def drive(request):
    return DRIVERS[request.param]


@pytest.fixture(params=sorted(FIFO_DRIVERS))
def drive_fifo(request):
    return FIFO_DRIVERS[request.param]


class TestConformance:
    def test_delivery(self, drive):
        # Sends are armed one unit after start: the transport gives no
        # delivery guarantee for packets racing node bring-up (lost packets
        # are legal; the real stack retransmits), so the conformance claim
        # is about sends once every endpoint is live.
        a, b = Probe(0), Probe(1)
        a.on_start_hook = lambda probe: probe.context.set_timer(
            1.0, lambda: probe.context.send(1, ("hello", 42)), label="send"
        )
        drive([a, b], [], horizon=20.0)
        assert (0, ("hello", 42)) in b.inbox

    def test_payload_fidelity_through_wire_types(self, drive):
        # A registered dataclass with an IntEnum inside must arrive intact —
        # on the asyncio backend this exercises the full frame/unframe path.
        sent = Proposal(Phase.SELECT, make_config([0, 1, 2]))
        a, b = Probe(0), Probe(1)
        a.on_start_hook = lambda probe: probe.context.set_timer(
            1.0, lambda: probe.context.send(1, sent), label="send"
        )
        drive([a, b], [], horizon=20.0)
        payloads = [payload for _, payload in b.inbox]
        assert sent in payloads
        received = payloads[payloads.index(sent)]
        assert received.phase is Phase.SELECT

    def test_send_many_counts_accepted_packets(self, drive):
        a, b, c = Probe(0), Probe(1), Probe(2)
        counts: List[int] = []
        a.on_start_hook = lambda probe: probe.context.set_timer(
            1.0,
            lambda: counts.append(
                probe.context.send_many([(1, "x"), (2, "y"), (1, "z")])
            ),
            label="send",
        )
        drive([a, b, c], [], horizon=20.0)
        assert counts == [3]
        assert (0, "x") in b.inbox and (0, "z") in b.inbox
        assert (0, "y") in c.inbox

    def test_timers_fire_in_delay_order(self, drive):
        probe = Probe(0)

        def arm(p: Probe) -> None:
            p.context.set_timer(6.0, p.mark("late"), label="late")
            p.context.set_timer(2.0, p.mark("early"), label="early")
            p.context.set_timer(4.0, p.mark("mid"), label="mid")

        probe.on_start_hook = arm
        drive([probe], [], horizon=20.0)
        assert probe.fired == ["early", "mid", "late"]

    def test_periodic_loop_keeps_ticking(self, drive):
        probe = Probe(0)
        drive([probe], [], horizon=10.0)
        # step_interval=1.0, jitter=0 → about one step per unit; allow slack
        # for the asyncio backend's wall-clock scheduling.
        assert probe.step_count >= 5

    def test_cancelled_timer_never_fires(self, drive):
        probe = Probe(0)

        def arm(p: Probe) -> None:
            doomed = p.context.set_timer(3.0, p.mark("doomed"), label="doomed")
            p.context.set_timer(5.0, p.mark("kept"), label="kept")
            p.context.cancel_timer(doomed)
            p.context.cancel_timer(doomed)  # idempotent

        probe.on_start_hook = arm
        drive([probe], [], horizon=20.0)
        assert probe.fired == ["kept"]

    def test_cancel_after_fire_is_harmless(self, drive):
        probe = Probe(0)
        handles: List[Any] = []

        def arm(p: Probe) -> None:
            handles.append(p.context.set_timer(2.0, p.mark("fired"), label="t"))

        probe.on_start_hook = arm
        drive(
            [probe],
            [(10.0, lambda transport: probe.context.cancel_timer(handles[0]))],
            horizon=20.0,
        )
        assert probe.fired == ["fired"]

    def test_crash_isolation(self, drive):
        a, b = Probe(0), Probe(1)
        snapshot: List[Tuple[int, int]] = []

        def record_and_poke(transport: Any) -> None:
            snapshot.append((b.step_count, len(b.inbox)))
            a.context.send(1, "after-crash")

        drive(
            [a, b],
            [(10.0, lambda transport: crash(transport, 1)), (15.0, record_and_poke)],
            horizon=30.0,
        )
        steps_at_crash, inbox_at_crash = snapshot[0]
        assert b.crashed
        # No further do-forever iterations and no further deliveries.
        assert b.step_count == steps_at_crash
        assert len(b.inbox) == inbox_at_crash
        assert (0, "after-crash") not in b.inbox

    def test_coalesced_burst_preserves_per_destination_fifo(self, drive_fifo):
        # PR 9: the asyncio backend coalesces frames queued to the same
        # destination within one event-loop turn into one datagram.  The
        # conformance contract: a burst sent in one atomic step arrives at
        # each destination complete and in send order on both backends
        # (sim runs a variance-free channel here; see ``_drive_sim_fifo``) —
        # coalescing changes datagram framing, never ordering or content.
        a, b, c = Probe(0), Probe(1), Probe(2)
        burst = [(1, ("seq", k)) for k in range(12)] + [(2, ("other", 0))]
        a.on_start_hook = lambda probe: probe.context.set_timer(
            1.0, lambda: probe.context.send_many(burst), label="burst"
        )
        drive_fifo([a, b, c], [], horizon=20.0)
        assert [p for _, p in b.inbox if p[0] == "seq"] == [
            ("seq", k) for k in range(12)
        ]
        assert (0, ("other", 0)) in c.inbox

    def test_interleaved_sends_preserve_per_destination_fifo(self, drive_fifo):
        # Same contract through the single-send path: alternating send()
        # calls to two destinations within one step coalesce per destination
        # without reordering either stream.
        a, b, c = Probe(0), Probe(1), Probe(2)

        def blast(probe: Probe) -> None:
            for k in range(8):
                probe.context.send(1, ("b", k))
                probe.context.send(2, ("c", k))

        a.on_start_hook = lambda probe: probe.context.set_timer(
            1.0, lambda: blast(probe), label="blast"
        )
        drive_fifo([a, b, c], [], horizon=20.0)
        assert [p for _, p in b.inbox] == [("b", k) for k in range(8)]
        assert [p for _, p in c.inbox] == [("c", k) for k in range(8)]

    def test_now_is_monotonic(self, drive):
        probe = Probe(0)
        stamps: List[float] = []

        def arm(p: Probe) -> None:
            for delay in (1.0, 2.0, 3.0):
                p.context.set_timer(
                    delay, lambda: stamps.append(p.context.transport.now), label="stamp"
                )

        probe.on_start_hook = arm
        drive([probe], [], horizon=10.0)
        assert len(stamps) == 3
        assert stamps == sorted(stamps)
        assert stamps[0] >= 0.0


def test_process_rng_streams_are_backend_independent():
    """``make_process_rng`` derives from ``(seed, pid)`` only."""
    simulator = Simulator(seed=SEED)
    sim_draws = {
        pid: [simulator.make_process_rng(pid).random() for _ in range(5)]
        for pid in (0, 3, 7)
    }

    async def runtime_draws() -> dict:
        transport = AsyncioTransport(seed=SEED)
        draws = {
            pid: [transport.make_process_rng(pid).random() for _ in range(5)]
            for pid in (0, 3, 7)
        }
        await transport.close()
        return draws

    assert asyncio.run(runtime_draws()) == sim_draws
    # Distinct pids draw distinct streams.
    assert sim_draws[0] != sim_draws[3]


def _link_model_answers(network: LinkModel) -> dict:
    """Push then pop a rule, partition then heal (a leaky one too), and
    record what the link model answers at each point."""
    base = network.config_for(0, 1)
    slow = replace(base, min_delay=base.min_delay * 10, max_delay=base.max_delay * 10)
    answers = {"default": (base, network.rule_for(0, 1), network.permits(0, 1))}
    network.push_rule("slow_node", _VictimLinkPolicy(2, slow))
    answers["pushed"] = [
        (network.config_for(s, d), network.rule_for(s, d)) for s, d in ((0, 2), (2, 3), (0, 1))
    ]
    assert network.pop_rule("slow_node") and not network.pop_rule("slow_node")
    answers["popped"] = (network.config_for(0, 2), network.rule_for(0, 2))
    network.partition([0, 1], [2, 3], name="split", symmetric=False)
    answers["split"] = [network.permits(s, d) for s, d in ((0, 2), (2, 0), (0, 1))]
    network.partition([0], [3], name="leaky", leak=0.5)
    answers["leaky"] = [network.permits(3, 0) for _ in range(16)]
    answers["healed"] = (network.heal("split"), network.heal(), network.permits(0, 2))
    answers["by_kind"] = network.summary()["by_kind"]
    return answers


@pytest.mark.parametrize("host", ["sim", "asyncio"])
def test_both_hosts_answer_from_one_link_model(host):
    """``Cluster.network`` and a started ``RuntimeCluster.network`` are both
    :class:`~repro.node.links.LinkModel` s over the cluster's channel config,
    and the same rule and partition transitions get the same answers (the
    leak draws included: both come from the ``"environment"`` stream)."""
    if host == "sim":
        answers = _link_model_answers(build_cluster(4, seed=SEED, config=fast_sim()).network)
    else:

        async def live() -> dict:
            cluster = RuntimeCluster(n=4, seed=SEED, stack="bare", tick_seconds=TICK_SECONDS)
            await cluster.start()
            try:
                return _link_model_answers(cluster.network)
            finally:
                await cluster.shutdown()

        answers = asyncio.run(live())
    base = fast_sim().channel
    slow = replace(base, min_delay=base.min_delay * 10, max_delay=base.max_delay * 10)
    leaks = make_rng(SEED, "environment")
    assert answers == {
        "default": (base, None, True),
        "pushed": [(slow, slow), (slow, slow), (base, None)],
        "popped": (base, None),
        "split": [False, True, True],
        "leaky": [leaks.random() < 0.5 for _ in range(16)],
        "healed": (4, 2, True),
        "by_kind": {"heal": 2, "partition": 2, "rule": 1, "rule_popped": 1},
    }
