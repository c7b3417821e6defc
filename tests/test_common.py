"""Unit tests for repro.common (types, rng, errors)."""

from __future__ import annotations

import copy
import pickle
import sys

import pytest

from repro.common import errors, types
from repro.common.rng import FIRST_BLOCK, TWISTER_DRAWS, ChannelStream, derive_seed, make_rng
from repro.common.types import (
    BOTTOM,
    CANONICAL_BOUND,
    DEFAULT_PROPOSAL,
    NOT_PARTICIPANT,
    Phase,
    Proposal,
    canonical,
    is_majority,
    majority_size,
    make_config,
)


class TestSentinels:
    def test_sentinels_are_distinct(self):
        assert BOTTOM is not NOT_PARTICIPANT
        assert BOTTOM != NOT_PARTICIPANT

    def test_sentinel_repr(self):
        assert repr(BOTTOM) == "BOTTOM"
        assert repr(NOT_PARTICIPANT) == "NOT_PARTICIPANT"

    def test_sentinel_copy_preserves_identity(self):
        assert copy.copy(BOTTOM) is BOTTOM
        assert copy.deepcopy(NOT_PARTICIPANT) is NOT_PARTICIPANT

    def test_sentinel_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(BOTTOM)) is BOTTOM
        assert pickle.loads(pickle.dumps(NOT_PARTICIPANT)) is NOT_PARTICIPANT


class TestMajority:
    def test_majority_size(self):
        assert majority_size([1]) == 1
        assert majority_size([1, 2]) == 2
        assert majority_size([1, 2, 3]) == 2
        assert majority_size(range(10)) == 6

    def test_is_majority(self):
        config = make_config([1, 2, 3, 4, 5])
        assert is_majority([1, 2, 3], config)
        assert not is_majority([1, 2], config)
        assert not is_majority([6, 7, 8], config)

    def test_is_majority_ignores_outsiders(self):
        config = make_config([1, 2, 3])
        assert not is_majority([1, 8, 9], config)
        assert is_majority([1, 2, 9], config)


class TestPhase:
    def test_phase_values(self):
        assert int(Phase.IDLE) == 0
        assert int(Phase.SELECT) == 1
        assert int(Phase.REPLACE) == 2


class TestProposal:
    def test_default_proposal(self):
        assert DEFAULT_PROPOSAL.is_default
        assert DEFAULT_PROPOSAL.phase is Phase.IDLE
        assert DEFAULT_PROPOSAL.members is None

    def test_lexical_order_by_phase(self):
        a = Proposal(Phase.SELECT, make_config([1]))
        b = Proposal(Phase.REPLACE, make_config([1]))
        assert a.sort_key() < b.sort_key()
        assert b.sort_key() > a.sort_key()

    def test_lexical_order_by_members_within_phase(self):
        a = Proposal(Phase.SELECT, make_config([1, 2]))
        b = Proposal(Phase.SELECT, make_config([1, 3]))
        assert a.sort_key() < b.sort_key()

    def test_default_is_smallest(self):
        real = Proposal(Phase.SELECT, make_config([1]))
        assert DEFAULT_PROPOSAL.sort_key() < real.sort_key()

    def test_proposal_is_hashable_and_frozen(self):
        a = Proposal(Phase.SELECT, make_config([1]))
        assert hash(a) == hash(Proposal(Phase.SELECT, make_config([1])))
        with pytest.raises(Exception):
            a.phase = Phase.REPLACE  # type: ignore[misc]


class TestCanonical:
    """``canonical`` shares one object per set value and iteration order."""

    def test_equal_sets_that_iterate_differently_are_not_merged(self):
        # 1 and 9 share a slot of an 8-slot table: the one inserted first
        # takes it, so the two equal sets iterate in opposite orders.
        first = frozenset([1, 9])
        second = frozenset([9, 1])
        assert first == second and list(first) != list(second)
        types._canonical.clear()
        assert canonical(first) is first
        result = canonical(second)
        assert result is second
        assert list(result) == list(second)
        again = frozenset([1, 9])
        assert again is not first and canonical(again) is first

    def test_table_never_exceeds_its_bound(self):
        types._canonical.clear()
        for index in range(CANONICAL_BOUND + 10):
            held = canonical(frozenset({index, -index - 1}))
            assert held == frozenset({index, -index - 1})
            assert len(types._canonical) <= CANONICAL_BOUND

    def test_emptying_the_table_after_every_event_moves_nothing(self, monkeypatch):
        """A pure memo: what the table holds never shows in a trajectory."""
        from repro.audit.harness import build_cases, certify
        from tests.conftest import report_bytes
        from repro.scenarios import ScenarioSpec, run_scenario
        from repro.sim.simulator import Simulator

        cases = build_cases(corruption_seeds=[0], n=8)[:1]
        unhooked = report_bytes(certify(cases, seeds=[89], workers=1))

        step = Simulator.step
        emptied = []

        def step_then_empty(simulator):
            result = step(simulator)
            if types._canonical:
                emptied.append(len(types._canonical))
                types._canonical.clear()
            return result

        monkeypatch.setattr(Simulator, "step", step_then_empty)
        spec = ScenarioSpec(
            name="bootstrap_n16", n=16, config="fast_sim", bootstrap_timeout=6_000.0
        )
        stats = run_scenario(spec, seed=89)["statistics"]
        assert stats["executed_events"] == 1794
        assert stats["delivered_messages"] == 1726
        assert report_bytes(certify(cases, seeds=[89], workers=1)) == unhooked
        assert emptied  # the hook did run against a filled table

    def test_converged_cluster_holds_one_object_per_set(self):
        """The identity the per-peer checks rely on: a copy of a protocol set
        built without ``canonical`` would bring back the O(n) compare per
        peer, and fails here instead of in a benchmark."""
        from repro.node.config import fast_sim
        from repro.sim.cluster import build_cluster

        cluster = build_cluster(16, 89, config=fast_sim())
        assert cluster.run_until_converged(timeout=6_000.0)
        nodes = list(cluster.nodes.values())
        for read in (
            lambda node: node.recsa.config[node.pid],
            lambda node: node.recsa.participants(),
            lambda node: node.failure_detector.trusted(),
        ):
            held = {id(read(node)) for node in nodes}
            assert len(held) == 1


class TestRng:
    def test_derive_seed_is_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_make_rng_streams_are_independent(self):
        rng_a = make_rng(7, "x")
        rng_b = make_rng(7, "y")
        assert [rng_a.random() for _ in range(3)] != [rng_b.random() for _ in range(3)]

    def test_make_rng_is_reproducible(self):
        assert make_rng(7, "x").random() == make_rng(7, "x").random()


def _promotion_draw() -> int:
    """The draw that promotes a stream: blocks double from FIRST_BLOCK while
    shorter than a Twister's state."""
    drawn, size = 0, FIRST_BLOCK
    while size < TWISTER_DRAWS:
        drawn, size = drawn + size, 2 * size
    return drawn + 1


class TestChannelStream:
    COMPONENTS = [(89, "channel", 0, 1), (0, "channel", 127, 3), (7, "x"), (2**40, "channel", 5, 5)]

    @pytest.mark.parametrize("components", COMPONENTS)
    def test_draws_equal_make_rng_across_refills_and_promotion(self, components):
        stream = ChannelStream(derive_seed(*components))
        reference = make_rng(*components)
        assert _promotion_draw() < 1_000
        for index in range(1_000):
            assert stream.random() == reference.random(), index
            assert stream.drawn == index + 1
            assert stream.promoted == (index + 1 >= _promotion_draw())

    @pytest.mark.parametrize("stop", [0, 1, FIRST_BLOCK - 3, FIRST_BLOCK, 100, _promotion_draw() + 7])
    def test_pickle_round_trip_continues_identically(self, stop):
        stream = ChannelStream(derive_seed(3, "channel", 1, 2))
        reference = make_rng(3, "channel", 1, 2)
        for _ in range(stop):
            assert stream.random() == reference.random()
        restored = pickle.loads(pickle.dumps(stream, protocol=pickle.HIGHEST_PROTOCOL))
        assert (restored.drawn, restored.promoted) == (stream.drawn, stream.promoted)
        expected = [reference.random() for _ in range(400)]
        assert [restored.random() for _ in range(400)] == expected
        assert [stream.random() for _ in range(400)] == expected

    def test_a_sparse_stream_holds_a_few_hundred_bytes(self):
        full = sys.getsizeof(make_rng(1, "x")) + sys.getsizeof(make_rng(1, "x").__dict__)
        sizes = []
        stream = ChannelStream(derive_seed(1, "x"))
        for drawn in range(1, 2_000):
            stream.random()
            sizes.append(sys.getsizeof(stream))
            if drawn <= 16:
                assert sizes[-1] <= 400, drawn
        assert max(sizes) < full


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.SimulationError, errors.ReproError)
        assert issubclass(errors.InvariantViolation, errors.ReproError)

    def test_raise_and_catch_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.InvariantViolation("boom")

