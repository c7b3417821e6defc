"""Tests for the baselines, workload generators and an end-to-end scenario."""

from __future__ import annotations

import pytest

from repro.baselines.coherent_start import CoherentStartMessage, CoherentStartNode
from repro.common.types import make_config
from repro.core.recma import RecMAMessage
from repro.node.faults import CorruptionAtom, apply_plan
from repro.scenarios import ChurnWorkload
from repro.sim.simulator import Simulator

from tests.conftest import quick_cluster, scramble


class TestCoherentStartBaseline:
    def _baseline(self, n=4, seed=5):
        sim = Simulator(seed=seed)
        nodes = {}
        for pid in range(n):
            node = CoherentStartNode(pid, peers=range(n), initial_config=range(n))
            sim.add_process(node)
            nodes[pid] = node
        return sim, nodes

    def test_normal_reconfiguration_propagates(self):
        sim, nodes = self._baseline()
        nodes[0].propose_reconfiguration([0, 1, 2])
        sim.run(until=60.0)
        assert all(node.config == make_config([0, 1, 2]) for node in nodes.values())

    def test_transient_fault_never_recovers(self):
        """E9: the non-self-stabilizing coherent-start baseline stays split
        forever under the class of fault the scheme recovers from
        (``test_recsa.py::TestRecSACluster::test_convergence_from_scrambled_state``)."""
        sim, nodes = self._baseline()
        sim.run(until=20.0)
        # Transient fault: two nodes end up with the same sequence number but
        # different configurations.
        nodes[0].config = make_config([0, 1])
        nodes[0].sequence = 7
        nodes[1].config = make_config([2, 3])
        nodes[1].sequence = 7
        sim.run(until=400.0)
        configs = {node.config for node in nodes.values()}
        assert len(configs) > 1, "baseline must remain permanently split"

    def test_corrupted_sequence_number_sticks(self):
        sim, nodes = self._baseline()
        nodes[2].sequence = 10 ** 9
        nodes[2].config = make_config([2])
        sim.run(until=100.0)
        # The corrupt high sequence number wins everywhere: the fault spreads
        # instead of being repaired.
        assert all(node.config == make_config([2]) for node in nodes.values())


#: ``ChurnWorkload(start=10, duration=80, crash_rate=0.02, join_rate=0.03,
#: first_new_pid=100)`` on a 5-node cluster, seeds 0-5, as drawn before PR 22
#: moved the generator into the workload — the "churn" RNG stream must not move.
CHURN_EVENTS = {
    0: [
        (20.791015822422565, "join", 100),
        (25.180353536325722, "join", 101),
        (31.969096499371908, "crash", 3),
        (45.13490387396571, "join", 102),
        (48.29745860521926, "join", 103),
        (56.61034717932861, "crash", 0),
        (68.37877227387581, "join", 104),
    ],
    1: [
        (49.46034858163067, "crash", 4),
        (51.64492648185116, "crash", 1),
        (77.49674831642083, "join", 100),
    ],
    2: [
        (18.85281215538558, "crash", 1),
        (20.99267083799999, "join", 100),
        (38.89974583694348, "join", 101),
        (41.94320770568333, "join", 102),
        (48.54948005278688, "join", 103),
        (56.92714220738562, "crash", 4),
    ],
    3: [
        (20.599492593887277, "join", 100),
        (34.55334040926069, "join", 101),
        (55.89989691936621, "join", 102),
    ],
    4: [
        (28.741397914072653, "join", 100),
        (38.03228418843288, "crash", 0),
        (41.029305424225896, "join", 101),
        (88.3687229160617, "crash", 1),
        (88.56171448145847, "join", 102),
    ],
    5: [
        (15.139045180046526, "join", 100),
        (49.55650749560588, "crash", 4),
        (71.09266942498594, "crash", 1),
        (75.33070904718103, "join", 101),
        (76.10963466185639, "join", 102),
    ],
}


class TestChurnTraces:
    def test_trace_is_reproducible(self):
        churn = ChurnWorkload(duration=100, crash_rate=0.05, join_rate=0.05, seed=3)
        assert churn.events(quick_cluster(5)) == churn.events(quick_cluster(5))

    def test_crash_cap_preserves_majority(self):
        churn = ChurnWorkload(duration=1000, crash_rate=1.0, seed=4)
        crashes = [event for event in churn.events(quick_cluster(5)) if event[1] == "crash"]
        assert len(crashes) <= 2

    def test_events_sorted_by_time(self):
        churn = ChurnWorkload(duration=200, crash_rate=0.05, join_rate=0.1, seed=5)
        times = [time for time, _, _ in churn.events(quick_cluster(4))]
        assert times == sorted(times)

    def test_install_on_cluster(self):
        cluster = quick_cluster(4, seed=81)
        assert cluster.run_until_converged(timeout=800)
        churn = ChurnWorkload(
            start=cluster.simulator.now, duration=100, crash_rate=0.02, join_rate=0.02, seed=6
        )
        events = churn.events(cluster)
        churn.install(cluster)
        cluster.run(until=cluster.simulator.now + 150)
        for _, kind, pid in events:
            if kind == "crash":
                assert cluster.nodes[pid].crashed
            else:
                assert pid in cluster.nodes

    @pytest.mark.parametrize("seed", sorted(CHURN_EVENTS))
    def test_event_stream_is_pinned(self, seed):
        """The workload seed defaults to the simulator's, and the draws are
        the ones the scenario library's results were pinned on."""
        churn = ChurnWorkload(
            start=10.0, duration=80.0, crash_rate=0.02, join_rate=0.03, first_new_pid=100
        )
        assert churn.events(quick_cluster(5, seed=seed)) == CHURN_EVENTS[seed]


class TestCorruptionWorkloads:
    def test_scramble_reports_fields(self):
        cluster = quick_cluster(3, seed=82)
        assert cluster.run_until_converged(timeout=800)
        atoms = scramble(cluster, seed=1, fraction=0.5)
        assert len({atom.pid for atom in atoms}) >= 1
        assert sum(atom.path[0] == "recsa" for atom in atoms) > 0

    def test_stuffing_respects_channel_capacity(self):
        cluster = quick_cluster(3, seed=83)
        assert cluster.run_until_converged(timeout=800)
        stale = [
            CorruptionAtom(
                kind="channel",
                pid=sender,
                key=0,
                value=RecMAMessage(sender=sender, no_maj=True, need_reconf=True),
            )
            for sender in (1, 2) * 250
        ]
        accepted = apply_plan(cluster, stale)["applied"]
        assert 0 < accepted <= 2 * cluster.config.channel.capacity


class TestEndToEnd:
    def test_full_stack_lifecycle(self):
        """Bootstrap → serve → churn → transient fault → recover → serve."""
        from repro.vs.virtual_synchrony import VSStatus

        cluster = quick_cluster(4, seed=84, stack="shared_register")
        vss = cluster.services("vs")
        registers = cluster.services("register")

        assert cluster.run_until_converged(timeout=800)
        assert cluster.run_until(
            lambda: any(
                vs.view is not None and vs.status is VSStatus.MULTICAST and vs.is_coordinator()
                for vs in vss.values()
            ),
            timeout=4000,
        )
        registers[0].write("epoch-1")
        assert cluster.run_until(
            lambda: all(
                registers[pid].read() == "epoch-1"
                for pid in cluster.nodes
                if not cluster.nodes[pid].crashed
            ),
            timeout=400,
        )
        # Minority crash plus a transient recSA corruption.
        cluster.crash(3)
        scramble(cluster, seed=9, fraction=0.4)
        assert cluster.run_until_converged(timeout=6000)
        # The service keeps working after recovery.
        alive = [pid for pid in cluster.nodes if not cluster.nodes[pid].crashed]
        assert cluster.run_until(
            lambda: any(
                vss[pid].view is not None
                and vss[pid].status is VSStatus.MULTICAST
                and vss[pid].is_coordinator()
                for pid in alive
            ),
            timeout=6000,
        )
        writer = alive[0]
        registers[writer].write("epoch-2")
        assert cluster.run_until(
            lambda: all(registers[pid].read() == "epoch-2" for pid in alive),
            timeout=600,
        )
