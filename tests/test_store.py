"""Persistent sweep cache: fingerprints, pickle round-trips, store semantics.

The load-bearing guarantees of the PR 10 cache are pinned here:

* a :class:`~repro.sim.snapshot.SimSnapshot` serialized with ``to_bytes``
  and rebuilt with ``from_bytes`` (what the disk-backed snapshot table does)
  resumes **byte-identical** to a cold, uninterrupted run — for every stack
  profile and three seeds;
* the content-addressed fingerprint is canonical (dict ordering cannot move
  it) and rotates with the source-tree salt, so *any* change under
  ``src/repro`` structurally invalidates every cached row;
* ``certify`` with a store is incremental (hits skip dispatch, a salt
  rotation recomputes) and its deterministic report byte-compares equal
  across cold/warm/rotated/parallel invocations;
* ddmin shrinking resumes disk-warm prefixes.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import pytest

from repro.audit.harness import (
    AuditCase,
    build_cases,
    certify,
    prefix_key,
    prefix_snapshot,
    shrink_case,
)
from repro.audit.store import (
    SweepStore,
    _cached_tree_hash,
    canonical_json,
    deterministic_report,
    fingerprint_cell,
    fingerprint_prefix,
    report_bytes,
    scrub_volatile,
    source_tree_salt,
)
from repro.analysis import probes
from repro.scenarios import (
    ArbitraryStateWorkload,
    ScenarioSpec,
    drive,
    finalize,
    prepare,
    run_scenario,
)
from repro.sim.snapshot import SimSnapshot
from repro.sim.stacks import available_stacks


def _strip_wall(result):
    result = dict(scrub_volatile(result))
    if "window" in result:
        result["window"] = {
            k: v for k, v in result["window"].items() if k != "wall_seconds"
        }
    return result


def _spec(stack: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"storedet:{stack}",
        n=5,
        stack=stack,
        workloads=(ArbitraryStateWorkload(at=20.0, seed=5),),
        horizon=40.0,
        probes=(probes.converged(4_000.0),),
        track_convergence=True,
    )


# ---------------------------------------------------------------------------
# The pinned disk contract: to_bytes -> from_bytes -> resume == cold run
# ---------------------------------------------------------------------------
class TestPickleRoundTrip:
    @pytest.mark.parametrize("stack", sorted(available_stacks()))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deserialized_continuation_is_byte_identical(self, stack, seed):
        """The snapshot table's exact path: pickle, rebuild, resume —
        the continuation must match a cold run byte-for-byte."""
        spec = _spec(stack)
        cold = run_scenario(spec, seed=seed)

        run = prepare(spec, seed=seed)
        assert not drive(run, stop_before=20.0)
        blob = SimSnapshot.capture(run).to_bytes()
        assert isinstance(blob, bytes) and len(blob) > 0

        restored = SimSnapshot.from_bytes(blob).restore()
        drive(restored)
        warm = finalize(restored)

        assert _strip_wall(warm) == _strip_wall(cold)
        assert canonical_json(_strip_wall(warm)) == canonical_json(_strip_wall(cold))

    def test_round_trip_survives_a_second_generation(self):
        """bytes -> snapshot -> bytes again (a cache copied between
        machines): the continuation still matches the cold run."""
        spec = _spec("bare")
        cold = run_scenario(spec, seed=1)
        run = prepare(spec, seed=1)
        drive(run, stop_before=20.0)
        first = SimSnapshot.capture(run).to_bytes()
        second = SimSnapshot.from_bytes(first).to_bytes()
        restored = SimSnapshot.from_bytes(second).restore()
        drive(restored)
        assert _strip_wall(finalize(restored)) == _strip_wall(cold)


# ---------------------------------------------------------------------------
# Canonical fingerprints
# ---------------------------------------------------------------------------
class _Color(enum.Enum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class _Nested:
    tag: str
    options: tuple


class TestCanonicalFingerprint:
    def test_dict_ordering_cannot_move_the_fingerprint(self):
        a = {"x": 1, "y": {"b": 2, "a": [3, 4]}}
        b = {"y": {"a": [3, 4], "b": 2}, "x": 1}
        assert canonical_json(a) == canonical_json(b)

    def test_distinct_values_distinct_json(self):
        assert canonical_json({"x": 1}) != canonical_json({"x": 2})
        assert canonical_json((1, 2)) == canonical_json([1, 2])
        assert canonical_json({1, 2}) == canonical_json({2, 1})

    def test_dataclasses_and_enums_are_stable(self):
        a = _Nested(tag="t", options=(_Color.RED, _Color.BLUE))
        b = _Nested(tag="t", options=(_Color.RED, _Color.BLUE))
        assert canonical_json(a) == canonical_json(b)
        assert canonical_json(a) != canonical_json(
            _Nested(tag="t", options=(_Color.BLUE, _Color.RED))
        )

    def test_cell_fingerprint_covers_case_seed_and_salt(self):
        case = build_cases(schedulers=["uniform"], corruption_seeds=[0])[0]
        other = build_cases(schedulers=["uniform"], corruption_seeds=[1])[0]
        fp = fingerprint_cell(case, 0, "salt-a")
        assert fp == fingerprint_cell(case, 0, "salt-a")
        assert fp != fingerprint_cell(case, 1, "salt-a")
        assert fp != fingerprint_cell(other, 0, "salt-a")
        assert fp != fingerprint_cell(case, 0, "salt-b")

    def test_prefix_fingerprint_rotates_with_salt(self):
        case = build_cases(schedulers=["uniform"], corruption_seeds=[0])[0]
        key = prefix_key(case)
        assert fingerprint_prefix(key, "salt-a") != fingerprint_prefix(key, "salt-b")


class TestSourceTreeSalt:
    def test_salt_rotates_on_any_source_change(self, tmp_path):
        tree = tmp_path / "src"
        tree.mkdir()
        (tree / "a.py").write_text("A = 1\n")
        (tree / "sub").mkdir()
        (tree / "sub" / "b.py").write_text("B = 2\n")
        before = source_tree_salt(tree)
        assert before == source_tree_salt(tree)  # memoized and stable

        (tree / "sub" / "b.py").write_text("B = 3\n")
        _cached_tree_hash.cache_clear()
        after = source_tree_salt(tree)
        assert after != before

        # Adding a brand-new module rotates it too.
        (tree / "c.py").write_text("C = 1\n")
        _cached_tree_hash.cache_clear()
        assert source_tree_salt(tree) not in (before, after)

    def test_salt_ignores_non_python_files(self, tmp_path):
        tree = tmp_path / "src"
        tree.mkdir()
        (tree / "a.py").write_text("A = 1\n")
        before = source_tree_salt(tree)
        (tree / "notes.txt").write_text("irrelevant\n")
        _cached_tree_hash.cache_clear()
        assert source_tree_salt(tree) == before

    def test_repo_salt_is_nonempty_hex(self):
        salt = source_tree_salt()
        assert len(salt) == 16
        int(salt, 16)


# ---------------------------------------------------------------------------
# The store itself
# ---------------------------------------------------------------------------
class TestSweepStore:
    def test_result_round_trip_scrubs_volatile_keys(self, tmp_path):
        entry = {
            "scenario": "case-a",
            "seed": 3,
            "ok": True,
            "wall_seconds": 1.23,
            "worker_pid": 4242,
            "statistics": {"executed_events": 10, "wall_seconds": 0.5},
        }
        with SweepStore(tmp_path / "cache") as store:
            store.put_result("fp-1", "case-a", 3, entry, "salt-a")
            got = store.get_result("fp-1")
        assert got is not None
        assert "wall_seconds" not in got and "worker_pid" not in got
        assert "wall_seconds" not in got["statistics"]
        assert got["statistics"]["executed_events"] == 10
        assert got["ok"] is True

    def test_rows_persist_across_reopen(self, tmp_path):
        directory = tmp_path / "cache"
        with SweepStore(directory) as store:
            store.put_result("fp-1", "case-a", 0, {"scenario": "case-a", "seed": 0}, "s")
        with SweepStore(directory) as store:
            assert store.get_result("fp-1") is not None
            assert store.get_result("fp-missing") is None

    def test_snapshot_round_trip_through_sqlite(self, tmp_path):
        spec = _spec("bare")
        cold = run_scenario(spec, seed=0)
        run = prepare(spec, seed=0)
        drive(run, stop_before=20.0)
        snapshot = SimSnapshot.capture(run)
        with SweepStore(tmp_path / "cache") as store:
            store.put_snapshot("prefix-1", 0, snapshot, "salt-a")
            assert store.get_snapshot("prefix-1", 1) is None
            loaded = store.get_snapshot("prefix-1", 0)
        restored = loaded.restore()
        drive(restored)
        assert _strip_wall(finalize(restored)) == _strip_wall(cold)

    def test_stats_and_prune_track_stale_salts(self, tmp_path):
        with SweepStore(tmp_path / "cache") as store:
            store.put_result("fp-old", "a", 0, {"scenario": "a", "seed": 0}, "old-salt")
            store.put_result("fp-new", "a", 1, {"scenario": "a", "seed": 1}, "new-salt")
            stats = store.stats("new-salt")
            assert stats["results"] == 2
            assert stats["stale_results"] == 1
            assert sorted(stats["salts"]) == ["new-salt", "old-salt"]
            removed = store.prune("new-salt")
            assert removed["results"] == 1
            after = store.stats("new-salt")
            assert after["results"] == 1 and after["stale_results"] == 0
            assert store.get_result("fp-old") is None
            assert store.get_result("fp-new") is not None


# ---------------------------------------------------------------------------
# certify() against the store
# ---------------------------------------------------------------------------
def _cases():
    return build_cases(schedulers=["uniform"], corruption_seeds=[0, 1])


class TestCertifyWithStore:
    def test_warm_rerun_is_fully_cached_and_byte_identical(self, tmp_path):
        with SweepStore(tmp_path / "cache") as store:
            cold = certify(_cases(), seeds=[0, 1], store=store)
            warm = certify(_cases(), seeds=[0, 1], store=store)
        assert cold["meta"]["cache"]["hits"] == 0
        assert cold["meta"]["cache"]["misses"] == 4
        assert warm["meta"]["cache"]["hits"] == 4
        assert warm["meta"]["cache"]["misses"] == 0
        assert warm["meta"]["cache"]["hit_rate"] == 1.0
        assert warm["meta"]["sweep"].get("fully_cached") is True
        assert report_bytes(warm) == report_bytes(cold)

    def test_cached_report_matches_storeless_run(self, tmp_path):
        with SweepStore(tmp_path / "cache") as store:
            certify(_cases(), seeds=[0], store=store)
            warm = certify(_cases(), seeds=[0], store=store)
        plain = certify(_cases(), seeds=[0])
        assert plain["meta"]["cache"] == {"enabled": False}
        assert report_bytes(warm) == report_bytes(plain)

    def test_refresh_recomputes_but_matches(self, tmp_path, monkeypatch):
        import repro.audit.harness as harness_mod

        with SweepStore(tmp_path / "cache") as store:
            cold = certify(_cases(), seeds=[0, 1], store=store)
            # A new source salt is the store's one way to refresh a cell.
            monkeypatch.setattr(
                harness_mod, "source_tree_salt", lambda: "0123456789abcdef"
            )
            refreshed = certify(_cases(), seeds=[0, 1], store=store)
        assert refreshed["meta"]["cache"]["hits"] == 0
        assert refreshed["meta"]["cache"]["misses"] == 4
        assert report_bytes(refreshed) == report_bytes(cold)

    def test_partial_miss_dispatches_only_new_cells(self, tmp_path):
        with SweepStore(tmp_path / "cache") as store:
            certify(_cases(), seeds=[0], store=store)
            grown = certify(_cases(), seeds=[0, 1], store=store)
        cache = grown["meta"]["cache"]
        assert cache["hits"] == 2 and cache["misses"] == 2
        assert grown["meta"]["runs"] == 4
        # Every cell is present exactly once despite the mixed origin.
        cells = [(v["case"], v["seed"]) for v in grown["verdicts"]]
        assert len(cells) == len(set(cells)) == 4

    def test_disk_warm_prefix_is_resumed_for_new_cells(self, tmp_path):
        # Corruption seeds share a pre-corruption prefix; certifying c0
        # persists the prefix snapshot, so certifying c2/c3 later must
        # resume it from disk instead of re-bootstrapping.
        with SweepStore(tmp_path / "cache") as store:
            first = certify(
                build_cases(schedulers=["uniform"], corruption_seeds=[0, 1]),
                seeds=[0],
                store=store,
            )
            assert first["meta"]["cache"]["snapshots_written"] == 1
            second = certify(
                build_cases(schedulers=["uniform"], corruption_seeds=[2, 3]),
                seeds=[0],
                store=store,
            )
        cache = second["meta"]["cache"]
        assert cache["misses"] == 2
        assert cache["snapshot_hits"] == 1
        assert cache["snapshots_written"] == 0
        assert second["certified"]

    def test_salt_rotation_invalidates_every_cell(self, tmp_path, monkeypatch):
        import repro.audit.harness as harness_mod

        with SweepStore(tmp_path / "cache") as store:
            certify(_cases(), seeds=[0], store=store)
            monkeypatch.setattr(
                harness_mod, "source_tree_salt", lambda: "0123456789abcdef"
            )
            rotated = certify(_cases(), seeds=[0], store=store)
            cache = rotated["meta"]["cache"]
            assert cache["salt"] == "0123456789abcdef"
            assert cache["hits"] == 0 and cache["misses"] == 2
            # The old rows are still on disk, reported as stale.
            assert cache["stale_results"] == 2
            assert store.stats("0123456789abcdef")["stale_snapshots"] == 1

    def test_error_entries_are_never_cached(self, tmp_path):
        with SweepStore(tmp_path / "cache") as store:
            entry = {"scenario": "x", "seed": 0, "error": "worker died"}
            fingerprint = "fp-err"
            # certify() skips error write-backs; pin the store-level contract
            # the skip relies on: nothing else writes the row.
            assert store.get_result(fingerprint) is None
            store.put_result(fingerprint, "x", 0, entry, "s")  # direct write OK
            assert store.get_result(fingerprint)["error"] == "worker died"


# ---------------------------------------------------------------------------
# Deterministic report surface (satellite: sweeps byte-compare equal)
# ---------------------------------------------------------------------------
class TestDeterministicReport:
    def test_two_cold_runs_byte_compare_equal(self):
        cases = _cases()
        serial = certify(cases, seeds=[0, 1], workers=1)
        parallel = certify(cases, seeds=[0, 1], workers=2)
        assert report_bytes(serial) == report_bytes(parallel)

    def test_projection_drops_scheduling_meta_only(self):
        report = certify(_cases(), seeds=[0])
        det = deterministic_report(report)
        assert "wall_seconds" not in json.dumps(det)
        assert "worker_pid" not in json.dumps(det)
        for key in ("sweep", "workers", "cache", "prefix_reuse"):
            assert key not in det["meta"]
        assert det["certified"] == report["certified"]
        assert len(det["verdicts"]) == len(report["verdicts"])
        assert det["meta"]["runs"] == report["meta"]["runs"]


# ---------------------------------------------------------------------------
# Shrinking against the store
# ---------------------------------------------------------------------------
class TestShrinkWithStore:
    def _failing_case(self):
        return AuditCase(
            scheduler="uniform",
            corruption_seed=0,
            invariants=(probes.no_reset_invariant(),),
        )

    def test_shrink_resumes_disk_warm_prefix(self, tmp_path):
        case = self._failing_case()
        cold = shrink_case(case, seed=0)
        with SweepStore(tmp_path / "cache") as store:
            first = shrink_case(case, seed=0, store=store)
            # The first call wrote the prefix snapshot; the second resumes it.
            assert (
                store.get_snapshot(fingerprint_prefix(prefix_key(case)), 0)
                is not None
            )
            second = shrink_case(case, seed=0, store=store)
        for warm in (first, second):
            assert warm["still_fails"] == cold["still_fails"]
            assert warm["minimal_size"] == cold["minimal_size"]
            assert warm["atoms"] == cold["atoms"]
            assert warm["trials"] == cold["trials"]
