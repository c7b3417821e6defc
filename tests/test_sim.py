"""Unit tests for the simulation substrate (events, network, simulator, faults)."""

from __future__ import annotations

import gc

import pytest

from repro.audit.arbitrary_state import generate_plan
from repro.audit.byzantine import TraitorProgram
from repro.common.errors import SimulationError
from repro.node.config import ChannelConfig
from repro.node.process import Process
from repro.node.stacks import available_stacks
from repro.sim.events import EventQueue
from repro.sim.faults import apply_plan
from repro.sim.monitors import ConvergenceTracker, InvariantMonitor
from repro.sim.network import Channel, Network, Packet
from repro.sim.simulator import PAUSED, Simulator

from tests.conftest import quick_cluster


def _drain(queue):
    """Pop every live entry; return the popped events."""
    popped = []
    while (entry := queue.pop_entry()) is not None:
        popped.append(entry[3])
    return popped


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda: fired.append("b"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(3.0, lambda: fired.append("c"))
        for event in _drain(queue):
            event.callback()
        assert fired == ["a", "b", "c"]

    def test_ties_broken_in_insertion_order(self):
        queue = EventQueue()
        fired = []
        for name in "abc":
            queue.schedule(1.0, lambda n=name: fired.append(n))
        for event in _drain(queue):
            event.callback()
        assert fired == ["a", "b", "c"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        queue.cancel(event)
        assert [e.time for e in _drain(queue)] == [2.0]

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.schedule(5.0, lambda: None)
        assert queue.peek_time() == 5.0

    def test_rejects_non_finite_time(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.schedule(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            queue.schedule(float("nan"), lambda: None)

    def test_live_count_exact_across_cancel_paths(self):
        """Regression: exactly the live events come out, whichever path
        drains a cancelled one (peek_time vs pop_entry), and a double cancel
        is harmless."""
        queue = EventQueue()
        a = queue.schedule(1.0, lambda: None)
        b = queue.schedule(2.0, lambda: None)
        c = queue.schedule(3.0, lambda: None)
        queue.cancel(a)
        # Cancelled head dropped via peek_time.
        assert queue.peek_time() == 2.0
        queue.cancel(b)
        queue.cancel(b)
        # Cancelled head dropped inside pop_entry: the live event comes out.
        assert queue.pop_entry()[3] is c
        assert queue.pop_entry() is None
        assert queue.peek_time() is None

    def test_cancel_after_pop_does_not_corrupt_count(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        later = queue.schedule(2.0, lambda: None)
        assert queue.pop_entry()[3] is event
        # Cancelling the already-popped event (a process crashing itself from
        # inside its own firing timer does this) leaves the rest live.
        queue.cancel(event)
        assert queue.peek_time() == 2.0
        assert _drain(queue) == [later]

    def test_event_args_passed_to_callback(self):
        queue = EventQueue()
        got = []
        queue.schedule(1.0, lambda a, b: got.append((a, b)), args=(1, 2))
        event = queue.pop_entry()[3]
        event.callback(*event.args)
        assert got == [(1, 2)]


class TestChannel:
    def test_capacity_drops_new_packet(self):
        chan = Channel(1, 2, ChannelConfig(capacity=2), seed=0)
        queue = EventQueue()
        packets = [Packet(1, 2, i) for i in range(3)]
        assert chan.try_accept(packets[0], 0.0, queue) == 1
        assert chan.try_accept(packets[1], 0.0, queue) == 1
        assert chan.try_accept(packets[2], 0.0, queue) == 0
        assert chan.dropped_count == 1
        assert chan.occupancy() == 2
        assert len(_drain(queue)) == 2

    def test_complete_delivery_frees_capacity(self):
        chan = Channel(1, 2, ChannelConfig(capacity=1), seed=0)
        packet = Packet(1, 2, "x")
        chan.try_accept(packet, 0.0, EventQueue())
        assert chan.complete_delivery(packet)
        assert chan.occupancy() == 0
        assert not chan.complete_delivery(packet)

    def test_total_loss_probability_rejected(self):
        with pytest.raises(SimulationError):
            ChannelConfig(loss_probability=1.0)

    def test_loss_probability_drops_some_packets(self):
        chan = Channel(1, 2, ChannelConfig(capacity=1000, loss_probability=0.5), seed=3)
        queue = EventQueue()
        deliveries = sum(
            1 for i in range(200) if chan.try_accept(Packet(1, 2, i), 0.0, queue)
        )
        assert 0 < deliveries < 200

    def test_duplication(self):
        chan = Channel(1, 2, ChannelConfig(capacity=10, duplicate_probability=1.0), seed=0)
        queue = EventQueue()
        packet = Packet(1, 2, "x")
        assert chan.try_accept(packet, 0.0, queue) == 2
        assert chan.duplicated_count == 1
        # Both copies are handle-less entries carrying the same packet.
        assert [queue.pop_entry()[2:] for _ in range(2)] == [(chan, packet)] * 2

    def test_stuff_respects_capacity(self):
        chan = Channel(1, 2, ChannelConfig(capacity=1), seed=0)
        assert chan.stuff(Packet(1, 2, "a"))
        assert not chan.stuff(Packet(1, 2, "b"))

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            ChannelConfig(capacity=0)


class _Echo(Process):
    """Test process replying 'pong' to every 'ping'."""

    def __init__(self, pid):
        super().__init__(pid, step_interval=1.0)
        self.got = []

    def on_receive(self, sender, payload):
        self.got.append((sender, payload))
        if payload == "ping":
            self.context.send(sender, "pong")


class TestSimulator:
    def test_send_and_receive(self):
        sim = Simulator(seed=1)
        a, b = _Echo(1), _Echo(2)
        sim.add_process(a)
        sim.add_process(b)
        sim.send(1, 2, "ping")
        sim.run(until=10.0)
        assert (1, "ping") in b.got
        assert (2, "pong") in a.got

    def test_duplicate_pid_rejected(self):
        sim = Simulator(seed=1)
        sim.add_process(_Echo(1))
        with pytest.raises(SimulationError):
            sim.add_process(_Echo(1))

    def test_add_node_of_a_live_pid_is_refused_and_changes_nothing(self):
        """``Cluster.add_node`` of a pid that is running raises before it
        records the new node: the cluster keeps describing the nodes that
        are running (the sim twin of ``test_runtime.py``'s restart test)."""
        cluster = quick_cluster(4, seed=3)
        assert cluster.run_until_converged(timeout=2_000.0)
        node = cluster.nodes[0]
        with pytest.raises(SimulationError, match="duplicate process id"):
            cluster.add_node(0)
        assert cluster.nodes[0] is node
        assert cluster.is_converged()
        assert [alive.pid for alive in cluster.alive_nodes()] == [0, 1, 2, 3]

    def test_crashed_process_receives_nothing(self):
        sim = Simulator(seed=1)
        a, b = _Echo(1), _Echo(2)
        sim.add_process(a)
        sim.add_process(b)
        sim.crash_process(2)
        sim.send(1, 2, "ping")
        sim.run(until=10.0)
        assert b.got == []
        assert b.crashed

    def test_periodic_timer_runs_steps(self):
        sim = Simulator(seed=1)
        proc = _Echo(1)
        sim.add_process(proc)
        sim.run(until=10.0)
        assert proc.step_count >= 5

    def test_run_until_predicate(self):
        sim = Simulator(seed=1)
        proc = _Echo(1)
        sim.add_process(proc)
        assert sim.run_until(lambda: proc.step_count >= 3, timeout=100.0)
        assert proc.step_count >= 3

    def test_run_until_timeout(self):
        sim = Simulator(seed=1)
        proc = _Echo(1)
        sim.add_process(proc)
        assert not sim.run_until(lambda: False, timeout=5.0)
        assert sim.now <= 6.5

    def test_call_later_and_cancel(self):
        sim = Simulator(seed=1)
        fired = []
        handle = sim.call_later(1.0, lambda: fired.append("x"))
        sim.cancel_timer(handle)
        sim.call_later(2.0, lambda: fired.append("y"))
        sim.run(until=5.0)
        assert fired == ["y"]

    def test_cannot_schedule_in_past(self):
        sim = Simulator(seed=1)
        sim.call_later(1.0, lambda: None)
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_statistics_keys(self):
        sim = Simulator(seed=1)
        sim.add_process(_Echo(1))
        sim.run(until=3.0)
        stats = sim.statistics()
        assert {"time", "executed_events", "processes", "net_sent"} <= set(stats)


@pytest.fixture
def collector_state():
    """Restore the cyclic collector's enabled state after the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _cyclic_garbage_of(loop) -> int:
    """Objects a full collection finds unreachable after *loop()* ran with
    the collector off, none of them left over from before it."""
    gc.disable()
    gc.collect()
    loop()
    return gc.collect()


class TestCollectorPause:
    """``Simulator.run``/``run_until`` pause the cyclic collector: the loop
    leaves no cyclic garbage, and every exit restores the caller's state."""

    @pytest.mark.parametrize("stack", available_stacks())
    def test_loop_leaves_no_cyclic_garbage(self, stack, collector_state):
        cluster = quick_cluster(6, seed=4, stack=stack)
        assert _cyclic_garbage_of(lambda: cluster.run_until_converged(timeout=2_000)) == 0
        # A traitor program (on one reliable-broadcast stack), a corruption
        # plan and a crash, each fired from inside the loop.
        sim = cluster.simulator
        now = sim.now
        if stack == "rb_bracha":
            behaviors = ("forge", "mutate", "drop", "equivocate", "inflate")
            sim.call_at(now + 1.0, TraitorProgram(cluster, 1, behaviors, seed=3).activate)
        reports = []
        sim.call_at(now + 2.0, lambda: reports.append(
            apply_plan(cluster, generate_plan(cluster, seed=7, profile="heavy"))
        ))
        sim.call_at(now + 3.0, lambda: cluster.try_crash(5))
        assert _cyclic_garbage_of(lambda: cluster.run(until=now + 40.0)) == 0
        assert reports[0]["applied"] > 0
        assert cluster.nodes[5].crashed

    EXITS = {
        "run": lambda sim: sim.run(until=5.0),
        "run_until": lambda sim: sim.run_until(lambda: sim.now >= 3.0, timeout=10.0),
        "run_until_polled": lambda sim: sim.run_until(
            lambda: False, timeout=5.0, poll_interval=1.0
        ),
        "run_paused": lambda sim: sim.run(until=5.0, stop_before=3.0),
        "run_until_paused": lambda sim: sim.run_until(lambda: False, stop_before=3.0),
    }

    @pytest.mark.parametrize("caller_enabled", [True, False])
    @pytest.mark.parametrize("exit_path", sorted(EXITS))
    def test_every_exit_restores_the_callers_state(
        self, exit_path, caller_enabled, collector_state
    ):
        sim = Simulator(seed=1)
        sim.add_process(_Echo(1))
        inside = []
        sim.call_at(1.0, lambda: inside.append(gc.isenabled()))
        gc.enable() if caller_enabled else gc.disable()
        result = self.EXITS[exit_path](sim)
        assert gc.isenabled() is caller_enabled
        assert inside == [False]
        assert (result is PAUSED) == exit_path.endswith("_paused")

    @pytest.mark.parametrize("caller_enabled", [True, False])
    @pytest.mark.parametrize("method", ["run", "run_until"])
    def test_a_raising_handler_restores_the_callers_state(
        self, method, caller_enabled, collector_state
    ):
        sim = Simulator(seed=1)

        def fail():
            raise RuntimeError("handler failed")

        sim.call_at(1.0, fail)
        gc.enable() if caller_enabled else gc.disable()
        with pytest.raises(RuntimeError, match="handler failed"):
            if method == "run":
                sim.run(until=5.0)
            else:
                sim.run_until(lambda: False, timeout=5.0)
        assert gc.isenabled() is caller_enabled


class TestNetworkFastPath:
    def test_statistics_match_per_channel_counters(self):
        """The O(1) aggregate must equal the sum over channels at all times."""
        sim = Simulator(seed=3)
        a, b, c = _Echo(1), _Echo(2), _Echo(3)
        for proc in (a, b, c):
            sim.add_process(proc)
        for i in range(20):
            sim.send(1, 2, f"m{i}")
            sim.send(2, 3, f"n{i}")
        sim.run(until=15.0)
        aggregate = sim.network.statistics()
        manual = {"sent": 0, "delivered": 0, "dropped": 0, "duplicated": 0}
        for chan in sim.network.channels():
            manual["sent"] += chan.sent_count
            manual["delivered"] += chan.delivered_count
            manual["dropped"] += chan.dropped_count
            manual["duplicated"] += chan.duplicated_count
        assert aggregate == manual

    def test_occupancy_drains_after_delivery(self):
        sim = Simulator(seed=3)
        sim.add_process(_Echo(1))
        sim.add_process(_Echo(2))
        for i in range(5):
            sim.send(1, 2, i)
        chan = sim.network.channel(1, 2)
        assert chan.occupancy() == 5
        sim.run(until=10.0)
        assert chan.occupancy() == 0 and chan.delivered_count == 5

    def test_send_many_delivers_to_every_destination(self):
        sim = Simulator(seed=4)
        procs = {pid: _Echo(pid) for pid in range(4)}
        for proc in procs.values():
            sim.add_process(proc)
        accepted = sim.send_many(0, [(pid, f"hello-{pid}") for pid in (1, 2, 3)])
        assert accepted == 3
        sim.run(until=10.0)
        for pid in (1, 2, 3):
            assert (0, f"hello-{pid}") in procs[pid].got

    def test_send_many_respects_partition(self):
        sim = Simulator(seed=4)
        a, b = _Echo(1), _Echo(2)
        sim.add_process(a)
        sim.add_process(b)
        sim.network.partition([1], [2])
        assert sim.send_many(1, [(2, "blocked")]) == 0
        sim.run(until=5.0)
        assert b.got == []
        assert sim.network.statistics()["dropped"] >= 1

    def test_send_many_respects_capacity(self):
        sim = Simulator(seed=4, channel_config=ChannelConfig(capacity=2))
        sim.add_process(_Echo(1))
        sim.add_process(_Echo(2))
        accepted = sim.send_many(1, [(2, i) for i in range(5)])
        assert accepted == 2
        chan = sim.network.channel(1, 2)
        assert chan.dropped_count == 3

    def test_duplicate_delivery_consumes_one_slot(self):
        chan = Channel(1, 2, ChannelConfig(capacity=10, duplicate_probability=1.0), seed=0)
        packet = Packet(1, 2, "x")
        assert chan.try_accept(packet, 0.0, EventQueue()) == 2
        assert chan.occupancy() == 1
        assert chan.complete_delivery(packet)
        assert not chan.complete_delivery(packet)
        assert chan.occupancy() == 0

    def test_unhashable_payload_supported(self):
        # The in-flight ledger is identity-keyed: payloads need not be
        # hashable (VS snapshots carry lists).
        chan = Channel(1, 2, ChannelConfig(capacity=4), seed=0)
        packet = Packet(1, 2, ["mutable", {"nested": True}])
        assert chan.try_accept(packet, 0.0, EventQueue())
        assert chan.complete_delivery(packet)


class TestNetworkPartition:
    def test_partition_blocks_and_heal_restores(self):
        sim = Simulator(seed=1)
        a, b = _Echo(1), _Echo(2)
        sim.add_process(a)
        sim.add_process(b)
        sim.network.partition([1], [2])
        sim.send(1, 2, "ping")
        sim.run(until=5.0)
        assert b.got == []
        sim.network.heal()
        sim.send(1, 2, "ping")
        sim.run(until=10.0)
        assert (1, "ping") in b.got


class TestFaultInjector:
    def test_stuff_channel_delivers_stale_packet(self):
        sim = Simulator(seed=1)
        a, b = _Echo(1), _Echo(2)
        sim.add_process(a)
        sim.add_process(b)
        assert sim.network.stuff_channel(1, 2, "stale")
        assert sim.network.channel(1, 2).occupancy() == 1
        sim.run(until=10.0)
        assert (1, "stale") in b.got


class TestMonitors:
    def test_invariant_monitor_records_violations(self):
        sim = Simulator(seed=1)
        proc = _Echo(1)
        sim.add_process(proc)
        monitor = InvariantMonitor(sim)
        monitor.add_invariant("few-steps", lambda: proc.step_count < 3)
        sim.run(until=10.0)
        assert not monitor.ok()
        assert [v for v in monitor.violations if v.name == "few-steps"]

    def test_invariant_monitor_strict_raises(self):
        from repro.common.errors import InvariantViolation

        sim = Simulator(seed=1)
        proc = _Echo(1)
        sim.add_process(proc)
        monitor = InvariantMonitor(sim, strict=True)
        monitor.add_invariant("never", lambda: False)
        with pytest.raises(InvariantViolation):
            sim.run(until=5.0)

    def test_convergence_tracker(self):
        sim = Simulator(seed=1)
        proc = _Echo(1)
        sim.add_process(proc)
        tracker = ConvergenceTracker(sim, lambda: proc.step_count >= 3, name="steps")
        sim.run(until=20.0)
        assert tracker.currently_true
        assert tracker.stabilization_time is not None
        assert tracker.summary()["converged"]

    def test_convergence_tracker_not_converged(self):
        sim = Simulator(seed=1)
        sim.add_process(_Echo(1))
        tracker = ConvergenceTracker(sim, lambda: False)
        sim.run(until=5.0)
        assert tracker.stabilization_time is None
