"""Tests for the virtually synchronous SMR layer and shared-memory emulation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import probes
from repro.analysis.probes import wait_for
from repro.audit.arbitrary_state import generate_plan
from repro.common.codec import encode_binary
from repro.node.config import fast_sim
from repro.node.faults import apply_plan
from repro.node.stacks import stack
from repro.sim.cluster import build_cluster
from repro.vs.smr import KeyValueStateMachine, LogStateMachine, RegisterStateMachine
from repro.vs.view import View, newer_view
from repro.vs.virtual_synchrony import RECOMPUTE_INTERVAL, VSStatus
from repro.vs.shared_memory import SharedRegister
from repro.counters.counter import Counter
from repro.labels.label import EpochLabel

from tests.conftest import quick_cluster


class TestStateMachines:
    def test_log_machine_roundtrip(self):
        machine = LogStateMachine()
        machine.apply("a")
        machine.apply("b")
        snapshot = machine.snapshot()
        other = LogStateMachine()
        other.restore(snapshot)
        assert other.log == ["a", "b"]
        other.reset()
        assert other.log == []

    def test_kv_machine_operations(self):
        machine = KeyValueStateMachine()
        machine.apply(("put", "x", 1))
        machine.apply(("put", "y", 2))
        assert machine.apply(("get", "x")) == 1
        assert machine.apply(("del", "y")) == 2
        assert machine.data == {"x": 1}
        assert machine.apply("garbage") is None

    def test_register_machine(self):
        machine = RegisterStateMachine()
        machine.apply(("write", "v1", 7, 1))
        assert machine.value == "v1"
        assert machine.last_writer == 7
        snapshot = machine.snapshot()
        machine.apply(("write", "v2", 8, 2))
        machine.restore(snapshot)
        assert machine.value == "v1"
        assert machine.write_count == 1


class TestView:
    def _counter(self, seqn, wid=1):
        return Counter(label=EpochLabel(1, 0, frozenset()), seqn=seqn, wid=wid)

    def test_view_membership_and_coordinator(self):
        view = View(view_id=self._counter(3, wid=5), members=frozenset([1, 5]))
        assert 5 in view.members
        assert len(view.members) == 2
        assert view.coordinator == 5

    def test_newer_view(self):
        old = View(view_id=self._counter(1), members=frozenset([1]))
        new = View(view_id=self._counter(2), members=frozenset([1, 2]))
        assert newer_view(old, new) == new
        assert newer_view(None, old) == old
        assert newer_view(old, None) == old


class _VSCluster:
    """Cluster of nodes running counters + virtual synchrony."""

    def __init__(self, n, seed, machine_factory=LogStateMachine):
        self.cluster = quick_cluster(
            n, seed=seed, stack=stack("vs_smr", state_machine=machine_factory)
        )
        self.vs = {pid: node.service("vs") for pid, node in self.cluster.nodes.items()}
        assert self.cluster.run_until_converged(timeout=800)

    def set_reconfigure(self, pid, value):
        """Flip the coordinator's evalConfig() through the control mailbox."""
        self.cluster.nodes[pid].control["reconfigure"] = value

    def _alive(self):
        return {
            pid: vs
            for pid, vs in self.vs.items()
            if not self.cluster.nodes[pid].crashed
        }

    def wait_for_view(self, timeout=3000):
        return self.cluster.run_until(
            lambda: any(
                vs.view is not None and vs.status is VSStatus.MULTICAST and vs.is_coordinator()
                for vs in self._alive().values()
            ),
            timeout=self.cluster.simulator.now + timeout,
        )

    def coordinator(self):
        for pid, vs in self._alive().items():
            if vs.is_coordinator() and vs.view is not None:
                return pid
        return None

    def members_in_view(self):
        coord = self.coordinator()
        if coord is None:
            return []
        return [pid for pid in self.vs if self.vs[coord].view and pid in self.vs[coord].view]


class TestVirtualSynchrony:
    def test_view_installation_and_coordinator_election(self):
        env = _VSCluster(4, seed=71)
        assert env.wait_for_view()
        coord = env.coordinator()
        assert coord is not None
        view = env.vs[coord].view
        assert coord in view.members
        assert len(view.members & env.cluster.agreed_configuration()) >= 3

    def test_total_order_delivery(self):
        """E8, Theorem 4.13: every replica applies the same command sequence."""
        env = _VSCluster(4, seed=72)
        assert env.wait_for_view()
        env.vs[0].submit("a")
        env.vs[1].submit("b")
        env.vs[2].submit("c")
        env.cluster.run_until(
            lambda: all(len(vs.machine.log) == 3 for vs in env.vs.values()),
            timeout=env.cluster.simulator.now + 300,
        )
        logs = {tuple(vs.machine.log) for vs in env.vs.values()}
        assert len(logs) == 1
        assert set(next(iter(logs))) == {"a", "b", "c"}

    def test_delivery_callback_invoked(self):
        env = _VSCluster(3, seed=73)
        assert env.wait_for_view()
        delivered = []
        coord = env.coordinator()
        env.vs[coord].delivery_callback = lambda rnd, view, batch: delivered.extend(batch)
        env.vs[coord].submit("hello")
        env.cluster.run_until(
            lambda: "hello" in delivered, timeout=env.cluster.simulator.now + 200
        )
        assert "hello" in delivered

    def test_coordinator_crash_elects_new_coordinator(self):
        """E8, Theorem 4.13 across a view change: the state survives the
        coordinator's crash and the survivors' logs stay prefix-consistent."""
        env = _VSCluster(4, seed=74)
        assert env.wait_for_view()
        old_coord = env.coordinator()
        env.vs[old_coord].submit("before-crash")
        env.cluster.run_until(
            lambda: any(
                "before-crash" in vs.machine.log for pid, vs in env.vs.items() if pid != old_coord
            ),
            timeout=env.cluster.simulator.now + 300,
        )
        env.cluster.crash(old_coord)
        assert env.cluster.run_until(
            lambda: any(
                vs.is_coordinator() and vs.view is not None and old_coord not in vs.view.members
                for pid, vs in env.vs.items()
                if pid != old_coord
            ),
            timeout=env.cluster.simulator.now + 5000,
        )
        new_coord = env.coordinator()
        assert new_coord is not None and new_coord != old_coord
        # State survived the coordinator change.
        assert "before-crash" in env.vs[new_coord].machine.log
        logs = sorted((vs.machine.log for vs in env._alive().values()), key=len)
        assert all(long[: len(short)] == short for short, long in zip(logs, logs[1:]))

    def test_coordinator_led_reconfiguration_preserves_state(self):
        env = _VSCluster(4, seed=75)
        assert env.wait_for_view()
        coord = env.coordinator()
        env.vs[coord].submit("persist-me")
        env.cluster.run_until(
            lambda: all("persist-me" in vs.machine.log for vs in env.vs.values()),
            timeout=env.cluster.simulator.now + 300,
        )
        # A membership change (a joiner) makes the participant set differ from
        # the configuration, so the coordinator has something to reconfigure to.
        joiner = env.cluster.add_joiner(9)
        assert env.cluster.run_until(
            lambda: joiner.scheme.is_participant(),
            timeout=env.cluster.simulator.now + 3000,
        )
        installs_before = sum(node.recsa.install_count for node in env.cluster.nodes.values())
        # The coordinator's evalConfig() now asks for a delicate reconfiguration.
        env.set_reconfigure(coord, True)
        assert env.cluster.run_until(
            lambda: sum(node.recsa.install_count for node in env.cluster.nodes.values())
            > installs_before,
            timeout=env.cluster.simulator.now + 5000,
        )
        env.set_reconfigure(coord, False)
        assert env.cluster.run_until_converged(timeout=3000)
        # The new configuration includes the joiner, the reconfiguration was
        # requested by the VS coordinator, and the replicated state survived.
        assert 9 in env.cluster.agreed_configuration()
        assert env.vs[coord].reconfigurations_requested >= 1
        assert env.wait_for_view(timeout=5000)
        new_coord = env.coordinator()
        assert "persist-me" in env.vs[new_coord].machine.log

    def test_reconfiguration_request_skipped_when_nothing_to_change(self):
        env = _VSCluster(3, seed=79)
        assert env.wait_for_view()
        coord = env.coordinator()
        # Participants already equal the configuration: the policy fires but
        # there is nothing to reconfigure to, and the service must resume
        # (rather than staying suspended forever).
        env.set_reconfigure(coord, True)
        env.cluster.run(until=env.cluster.simulator.now + 120)
        env.set_reconfigure(coord, False)
        env.cluster.run(until=env.cluster.simulator.now + 120)
        env.vs[coord].submit("still-alive")
        assert env.cluster.run_until(
            lambda: all("still-alive" in vs.machine.log for vs in env._alive().values()),
            timeout=env.cluster.simulator.now + 500,
        )


class TestSharedRegister:
    def test_requires_register_machine(self):
        env = _VSCluster(3, seed=76)
        with pytest.raises(TypeError):
            SharedRegister(0, env.vs[0])

    def test_write_read_roundtrip(self):
        env = _VSCluster(3, seed=77, machine_factory=RegisterStateMachine)
        assert env.wait_for_view()
        registers = {pid: SharedRegister(pid, vs) for pid, vs in env.vs.items()}
        registers[0].write("value-1")
        env.cluster.run_until(
            lambda: all(reg.read() == "value-1" for reg in registers.values()),
            timeout=env.cluster.simulator.now + 300,
        )
        value, writer, count = registers[1].read_with_metadata()
        assert value == "value-1"
        assert writer == 0
        assert count == 1

    def test_concurrent_writes_totally_ordered(self):
        """E12: the MWMR register emulation — every replica observes one
        totally ordered write history and the same final value."""
        env = _VSCluster(3, seed=78, machine_factory=RegisterStateMachine)
        assert env.wait_for_view()
        registers = {pid: SharedRegister(pid, vs) for pid, vs in env.vs.items()}
        registers[0].write("from-0")
        registers[1].write("from-1")
        env.cluster.run_until(
            lambda: all(len(reg.history()) == 2 for reg in registers.values()),
            timeout=env.cluster.simulator.now + 300,
        )
        histories = {tuple(reg.history()) for reg in registers.values()}
        assert len(histories) == 1
        final_values = {reg.read() for reg in registers.values()}
        assert len(final_values) == 1


class TestCrashWhileSuspended:
    @pytest.mark.parametrize("seed", [13, 1, 2, 3, 5])
    def test_view_changes_after_crash_during_a_recsa_reset(self, seed):
        """A member crashes and a transient fault resets recSA at the same
        instant.  The reset suspends delivery, a suspended coordinator runs
        no round, so the dead member's last report keeps satisfying the
        round barrier — only the failure detector shows it is gone.  Before
        the coordinator compared its view with the trusted set, every
        survivor stayed at MULTICAST/suspend in the old view for good."""
        cluster = build_cluster(n=5, seed=13, config=fast_sim(), stack="shared_register")
        registers = cluster.services("register")
        assert cluster.run_until_converged(timeout=2_000)
        assert wait_for(cluster, probes.view_installed(6_000)).satisfied
        registers[0].write("v1")
        registers[2].write("v2")
        assert cluster.run_until(
            lambda: all(len(reg.history()) == 2 for reg in registers.values()), timeout=800
        )

        cluster.crash(1)
        apply_plan(cluster, generate_plan(cluster, seed=seed, profile="scramble"))
        assert wait_for(cluster, probes.view_installed(100)).satisfied

        survivors = [0, 2, 3, 4]
        registers[4].write("v3")
        assert cluster.run_until(
            lambda: all(registers[pid].read() == "v3" for pid in survivors), timeout=400
        )
        assert all(registers[pid].pending_writes() == 0 for pid in survivors)


# ---------------------------------------------------------------------------
# Batch-only multicast + message-driven rounds (docs/vs.md)
# ---------------------------------------------------------------------------
def _multicasting(n, seed):
    """A converged cluster whose members all multicast in one installed view,
    and whose coordinator has heard each of them say so — until it has, it
    answers a member's last INSTALL report with the full replica."""
    env = _VSCluster(n, seed=seed)
    assert env.wait_for_view()
    coord = env.coordinator()

    def multicasting(state):
        return (
            state is not None
            and state.view == env.vs[coord].view
            and state.status is VSStatus.MULTICAST
        )

    reports = env.vs[coord].states
    assert env.cluster.run_until(
        lambda: all(multicasting(vs) for vs in env.vs.values())
        and all(multicasting(reports.get(pid)) for pid in env.vs if pid != coord),
        timeout=600,
    )
    return env, coord


def _delivered_everywhere(env, command, timeout=600):
    return env.cluster.run_until(
        lambda: all(command in vs.machine.log for vs in env.vs.values()),
        timeout=timeout,
    )


def _replicas_agree(env):
    histories = {encode_binary(list(vs.delivery_history())) for vs in env.vs.values()}
    logs = {tuple(vs.machine.log) for vs in env.vs.values()}
    return len(histories) == 1 and len(logs) == 1


def _tap_sends(env):
    """Record every VS frame the nodes send from now on: ``[(pid, frame)]``."""
    frames = []
    for pid, vs in env.vs.items():
        def send(destination, state, _pid=pid, _send=vs.send):
            frames.append((_pid, state))
            _send(destination, state)

        vs.send = send
    return frames


class TestBatchOnlyMulticast:
    def test_followers_apply_batches_themselves(self):
        env, coord = _multicasting(4, seed=72)
        fired = {pid: [] for pid in env.vs}
        for pid, vs in env.vs.items():
            vs.delivery_callback = (
                lambda rnd, view, batch, _pid=pid: fired[_pid].extend(batch)
            )
        frames = _tap_sends(env)
        commands = [(pid, k) for k in range(3) for pid in env.vs]
        for command in commands:
            env.vs[command[0]].submit(command)
        assert env.cluster.run_until(
            lambda: all(len(vs.machine.log) == len(commands) for vs in env.vs.values()),
            timeout=300,
        )
        # One order, byte for byte, on every member; each replica delivered
        # every command to its application exactly once.
        assert _replicas_agree(env)
        for pid in env.vs:
            assert sorted(fired[pid]) == sorted(commands)
        # ... and nobody was shipped the log to get there.
        assert frames
        assert all(state.state_snapshot is None for _, state in frames)

    @pytest.mark.parametrize("seed", range(40))
    def test_exactly_once_under_channel_reordering(self, seed):
        """Right after a view install the coordinator sends a still-installing
        follower the replica more than once; a copy the channel delivers
        after the follower applied round 1 must not roll that round back
        (it used to: seeds 2, 12, 21 and 28 then delivered a batch twice)."""
        env, coord = _multicasting(5, seed=seed)
        fired = {pid: [] for pid in env.vs}
        for pid, vs in env.vs.items():
            vs.delivery_callback = (
                lambda rnd, view, batch, _pid=pid: fired[_pid].extend(batch)
            )
        commands = [(pid, k) for k in range(5) for pid in env.vs]
        for command in commands:
            env.vs[command[0]].submit(command)
        assert env.cluster.run_until(
            lambda: all(len(vs.machine.log) >= len(commands) for vs in env.vs.values()),
            timeout=300,
        )
        env.cluster.run(until=env.cluster.simulator.now + 10)
        assert _replicas_agree(env)
        for pid in env.vs:
            assert sorted(fired[pid]) == sorted(commands)

    def test_overtaken_replica_is_not_adopted(self):
        """A full-state record that answers a report the follower has moved
        on from is stale, whatever it carries."""
        env, coord = _multicasting(4, seed=72)
        follower = next(pid for pid in env.vs if pid != coord)
        vs = env.vs[follower]
        before = vs._own_state().report()
        env.vs[coord].submit("first")
        assert _delivered_everywhere(env, "first")
        history = vs.delivery_history()
        stale = replace(
            env.vs[coord]._own_state(),
            rnd=before[2],
            state_snapshot=([], []),
            digest=before[3],
            answers=before,
        )
        vs.on_message(coord, stale)
        vs.on_timer()
        assert vs.delivery_history() == history and "first" in vs.machine.log

    def test_rounds_do_not_wait_for_the_timer(self):
        env, coord = _multicasting(4, seed=72)
        follower = next(pid for pid in env.vs if pid != coord)
        start = env.cluster.simulator.now
        rounds = env.vs[coord].rounds_completed
        for k in range(10):
            env.vs[follower].submit(("burst", k))
        assert _delivered_everywhere(env, ("burst", 9))
        # One command per member per round: ten rounds.  A message-driven
        # round is one round trip (two channel delays of 0.2-0.6 su, about
        # 1 su for the slowest member); paced by the 1-su timers of both
        # ends it took about 2 su (measured: 9-12 su against 20-22 su).
        assert env.vs[coord].rounds_completed - rounds >= 10
        assert env.cluster.simulator.now - start < 15

    def test_dropped_round_resyncs(self):
        env, coord = _multicasting(4, seed=72)
        follower = next(pid for pid in env.vs if pid != coord)
        cut = env.cluster.network.partition([coord], [follower], symmetric=False)
        env.vs[coord].submit("while-cut")
        assert env.cluster.run_until(
            lambda: "while-cut" in env.vs[coord].machine.log, timeout=50
        )
        assert "while-cut" not in env.vs[follower].machine.log
        env.cluster.network.heal(cut)
        assert _delivered_everywhere(env, "while-cut")
        env.vs[follower].submit("after-heal")
        assert _delivered_everywhere(env, "after-heal")
        assert _replicas_agree(env)

    def test_idle_cluster_sends_only_its_periodic_broadcast(self):
        """Storm guard: with no client commands, message-driven rounds add
        nothing to the one-record-per-peer-per-iteration exchange."""
        env, coord = _multicasting(5, seed=81)
        env.cluster.run(until=env.cluster.simulator.now + 20)
        frames = _tap_sends(env)
        nodes = env.cluster.nodes
        before = {pid: node.step_count for pid, node in nodes.items()}
        env.cluster.run(until=env.cluster.simulator.now + 50)
        iterations = sum(node.step_count - before[pid] for pid, node in nodes.items())
        assert iterations >= 5 * 40
        assert len(frames) == iterations * (len(env.vs) - 1)
        assert all(state.state_snapshot is None for _, state in frames)


class TestReplicaRepair:
    """A member whose replica or round was corrupted is detected through its
    report (or its own periodic recompute) and overwritten."""

    def _corrupted_follower(self, corrupt, seed=72):
        env, coord = _multicasting(4, seed=seed)
        env.vs[coord].submit("first")
        assert _delivered_everywhere(env, "first")
        env.cluster.run(until=env.cluster.simulator.now + 5)  # a few idle rounds
        follower = next(pid for pid in env.vs if pid != coord)
        corrupt(env.vs[follower])
        return env, coord, follower

    def _heals(self, env, submitter):
        env.vs[submitter].submit("later")
        assert _delivered_everywhere(env, "later")
        assert env.cluster.run_until(lambda: _replicas_agree(env), timeout=100)

    def test_round_ahead_of_the_coordinator(self):
        """The parent wedged here for good: the follower only ever adopted a
        *larger* round, so the coordinator's barrier never completed again."""
        env, coord, follower = self._corrupted_follower(
            lambda vs: setattr(vs, "rnd", 50_000)
        )
        self._heals(env, coord)
        assert env.vs[follower].rnd == env.vs[coord].rnd < 50_000

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda vs: setattr(vs, "rnd", 0), id="round-behind"),
            pytest.param(
                lambda vs: vs._set_history([(0, "forged"), (1, "entries")]),
                id="forged-history",
            ),
            pytest.param(
                lambda vs: setattr(vs, "_history_crc", vs._history_crc ^ 0xBEEF),
                id="corrupted-digest",
            ),
        ],
    )
    def test_disagreeing_report_is_overwritten(self, corrupt):
        env, coord, follower = self._corrupted_follower(corrupt)
        self._heals(env, follower)

    def test_corrupted_machine(self):
        def corrupt(vs):
            vs.machine.log = ["garbage"]

        env, coord, follower = self._corrupted_follower(corrupt)
        self._heals(env, follower)
        assert env.vs[follower].replica_repairs == 1

    def test_recompute_catches_history_corrupted_to_match(self):
        """The history changes but the incremental digest still reads what
        the coordinator expects: only the periodic recompute from the actual
        history can tell."""

        def corrupt(vs):
            vs._delivered_history[0] = (0, "forged")

        env, coord, follower = self._corrupted_follower(corrupt)
        assert env.vs[follower]._digest() == env.vs[coord]._digest()
        assert env.cluster.run_until(
            lambda: env.vs[follower].replica_repairs == 1, timeout=RECOMPUTE_INTERVAL * 2
        )
        self._heals(env, coord)

    def test_corrupted_coordinator_replica_wins(self):
        env, coord = _multicasting(4, seed=72)
        env.vs[coord].submit("first")
        assert _delivered_everywhere(env, "first")
        env.vs[coord]._set_history([(0, "rewritten")])
        env.vs[coord].machine.restore(["rewritten"])
        self._heals(env, coord)
        assert all(vs.machine.log == ["rewritten", "later"] for vs in env.vs.values())
