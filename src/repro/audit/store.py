"""Persistent sweep cache: content-addressed results + disk-backed snapshots.

Every audit/certification sweep used to recompute the world from scratch:
warm prefix snapshots lived only in parent memory ("cannot cross a process
boundary except by fork inheritance"), so each ``make audit-gate`` /
``audit-tiers`` / CI invocation re-bootstrapped identical ``(config, seed)``
prefixes and re-ran thousands of ``(case, seed)`` cells whose inputs had not
changed since the last run.  This module makes both survive across
invocations, processes and machines:

* The **result store** maps a deterministic *cell fingerprint* — the SHA-256
  of the canonical JSON of the fully-resolved
  :class:`~repro.audit.harness.AuditCase` (scheduler, corruption seed and
  profile, stack, config, Byzantine spec, armed invariants, every scheduler
  parameter), the simulator seed, and a **code-version salt** derived from
  hashing the ``src/repro`` source tree — to the complete deterministic run
  entry (verdict, stabilization trajectory, invariant intervals, workload
  reports).  A hit replays the stored entry instead of dispatching the run.
* The **snapshot store** maps ``(prefix fingerprint, seed)`` to the bytes of
  a pre-corruption :class:`~repro.sim.snapshot.SimSnapshot` — the very bytes
  the in-memory snapshot holds, written and read back without re-encoding —
  so the expensive bootstrap prefix of a sweep cell is paid once *ever* (per
  code version), not once per process: ``certify`` and ``shrink_case`` resume
  disk-warm prefixes byte-identically to a cold run (pinned by the
  test-suite).

Correct invalidation is the crux, and it is structural: the salt is folded
into **every** fingerprint, so any change to any ``.py`` file under
``src/repro`` rotates the salt and every lookup simply misses — stale
entries are never *consulted*, only counted (``stats()["stale_results"]``)
and reclaimable via :meth:`SweepStore.prune`.  The self-stabilization
framing of the source paper makes this caching safe to verify: any cached
trajectory can be cross-checked byte-for-byte against a cold run, which is
exactly what the warm-cache CI job and ``python -m repro.audit.store check``
do.

Layout of a cache directory (default ``.audit_cache/``, gitignored)::

    <cache-dir>/sweep_cache.sqlite      # both tables, WAL journal

The CLI::

    python -m repro.audit.store stats  [--cache-dir DIR]
    python -m repro.audit.store prune  [--cache-dir DIR]   # drop other salts
    python -m repro.audit.store check WARM.json --against COLD.json \
        [--min-hit-rate 0.9]           # the warm-cache CI assertion
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import sqlite3
import sys
import time
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

from repro.sim.snapshot import SimSnapshot

#: Default cache directory, relative to the invoking process's CWD.  The
#: repository .gitignore covers it; ``--cache-dir`` relocates it (a shared
#: cache volume in CI, a scratch disk for big tiers).
DEFAULT_CACHE_DIR = Path(".audit_cache")

_DB_NAME = "sweep_cache.sqlite"

#: Result-entry keys that are *not* part of the deterministic surface: wall
#: clock depends on machine load and worker pids on the OS.  They are
#: scrubbed before write-back and before any byte-comparison, so a cached
#: replay and a cold run of the same cell serialize identically.
VOLATILE_KEYS = frozenset({"wall_seconds", "worker_pid"})


# ---------------------------------------------------------------------------
# Canonical serialization and fingerprints
# ---------------------------------------------------------------------------
def canonical_value(obj: Any) -> Any:
    """Reduce *obj* to a JSON-stable value: the fingerprint's view of it.

    Deterministic by construction — dicts are emitted with sorted keys, sets
    as sorted lists, dataclasses as ``(qualified class name, field dict)``
    pairs, enums by name, callables by module-qualified name (the *code* a
    callable runs is covered by the source-tree salt, not by its name).
    Two structurally equal values canonicalize identically regardless of
    insertion order or identity.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips floats exactly; json.dump would too, but being
        # explicit keeps the canonical form independent of dump options.
        return float(repr(obj)) if obj == obj else "nan"
    if isinstance(obj, enum.Enum):
        return {"%enum": f"{type(obj).__module__}.{type(obj).__qualname__}", "name": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "%dc": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "fields": {
                field.name: canonical_value(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        return {
            "%dict": [
                [canonical_json(key), canonical_value(value)]
                for key, value in sorted(
                    obj.items(), key=lambda item: canonical_json(item[0])
                )
            ]
        }
    if isinstance(obj, (list, tuple)):
        return [canonical_value(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return {"%set": sorted(canonical_json(item) for item in obj)}
    if isinstance(obj, bytes):
        return {"%bytes": obj.hex()}
    if callable(obj):
        module = getattr(obj, "__module__", "?")
        name = getattr(obj, "__qualname__", getattr(obj, "__name__", repr(type(obj))))
        return {"%fn": f"{module}.{name}"}
    # Last resort: class-qualified repr.  The audit value algebra (frozen
    # dataclasses, enums, primitives, containers) never reaches this, but a
    # user-defined object with a deterministic repr still fingerprints
    # stably rather than raising.
    return {"%obj": f"{type(obj).__module__}.{type(obj).__qualname__}", "repr": repr(obj)}


def canonical_json(obj: Any) -> str:
    """The stable sorted-key JSON serialization of *obj* (satellite: the
    fingerprint helper for ``AuditCase`` / ``ScenarioSpec`` / ``ByzantineSpec``)."""
    return json.dumps(
        canonical_value(obj), sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def _hash_tree(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x01")
    return digest.hexdigest()[:16]


@lru_cache(maxsize=8)
def _cached_tree_hash(root: str) -> str:
    return _hash_tree(Path(root))


def source_tree_salt(root: Optional[Path] = None) -> str:
    """The code-version salt: a digest of every ``.py`` file under *root*
    (default: the installed ``repro`` package source tree).

    Folded into every fingerprint, so **any** source change — a protocol
    tweak, a scheduler fix, a new invariant — rotates the salt and forces
    recompute of every cell.  Coarse on purpose: proving which source lines
    a cell's trajectory depends on is exactly the problem content addressing
    exists to avoid.  Cached per process (the tree does not change under a
    running sweep).
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    return _cached_tree_hash(str(Path(root).resolve()))


def fingerprint_cell(case: Any, seed: int, salt: Optional[str] = None) -> str:
    """The result store's key for one ``(case, seed)`` sweep cell."""
    if salt is None:
        salt = source_tree_salt()
    payload = canonical_json({"case": case, "seed": seed, "salt": salt, "v": 1})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_prefix(prefix_key: str, salt: Optional[str] = None) -> str:
    """The snapshot store's prefix key: the harness's in-memory
    ``prefix_key`` digest widened with the code-version salt (an in-memory
    snapshot is valid for one process; a disk snapshot must also die with
    the code that produced it)."""
    if salt is None:
        salt = source_tree_salt()
    payload = canonical_json({"prefix": prefix_key, "salt": salt, "v": 1})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Deterministic result surfaces
# ---------------------------------------------------------------------------
def scrub_volatile(value: Any) -> Any:
    """A deep copy of *value* with every volatile key removed.

    Applied to run entries before write-back and byte-comparison: two
    executions of the same cell differ only in wall clock and worker
    identity, so what remains is the deterministic surface the cache stores.
    """
    if isinstance(value, dict):
        return {
            key: scrub_volatile(item)
            for key, item in value.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(value, list):
        return [scrub_volatile(item) for item in value]
    return value


def deterministic_report(report: Dict[str, Any]) -> Dict[str, Any]:
    """The byte-comparable projection of a ``certify`` report.

    Everything load- or machine-dependent is dropped (wall clock, worker
    accounting, prefix-reuse and cache hit counts); what remains — the
    verdicts, stabilization distribution, failure list and matrix identity —
    must serialize identically for two sweeps of the same code and inputs,
    however they were scheduled or cached.  The warm-cache CI job asserts
    exactly this equality between a cold and a fully cached run.
    """
    meta = report.get("meta", {})
    projected: Dict[str, Any] = {
        "meta": {
            "cases": meta.get("cases"),
            "seeds": meta.get("seeds"),
            "runs": meta.get("runs"),
            "corrupted_mid_bootstrap": meta.get("corrupted_mid_bootstrap"),
        },
        "certified": report.get("certified"),
        "failed": report.get("failed"),
        "verdicts": scrub_volatile(report.get("verdicts", [])),
        "stabilization": scrub_volatile(report.get("stabilization", {})),
    }
    if "reproducers" in report:
        projected["reproducers"] = scrub_volatile(report["reproducers"])
    return projected


def report_bytes(report: Dict[str, Any]) -> bytes:
    """Canonical bytes of a report's deterministic projection."""
    return json.dumps(
        deterministic_report(report), sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
class SweepStore:
    """A content-addressed, SQLite-backed sweep cache (results + snapshots).

    One store instance owns one SQLite connection; it is safe to reuse
    across many ``certify`` calls in a process.  Concurrent *processes*
    sharing a cache directory are safe too (WAL journal; every write is a
    single upsert of an idempotent value — two racers write identical rows).
    """

    def __init__(self, directory: Path | str = DEFAULT_CACHE_DIR) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / _DB_NAME
        self._db = sqlite3.connect(self.path)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(
            """
            CREATE TABLE IF NOT EXISTS results (
                fingerprint TEXT PRIMARY KEY,
                case_name   TEXT NOT NULL,
                seed        INTEGER NOT NULL,
                salt        TEXT NOT NULL,
                created     REAL NOT NULL,
                entry       TEXT NOT NULL
            );
            CREATE INDEX IF NOT EXISTS results_salt ON results (salt);
            CREATE TABLE IF NOT EXISTS snapshots (
                prefix      TEXT NOT NULL,
                seed        INTEGER NOT NULL,
                salt        TEXT NOT NULL,
                created     REAL NOT NULL,
                blob        BLOB NOT NULL,
                PRIMARY KEY (prefix, seed)
            );
            CREATE INDEX IF NOT EXISTS snapshots_salt ON snapshots (salt);
            """
        )
        self._db.commit()

    # -- results ----------------------------------------------------------
    def get_result(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        row = self._db.execute(
            "SELECT entry FROM results WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        if row is None:
            return None
        return json.loads(row[0])

    def put_result(
        self,
        fingerprint: str,
        case_name: str,
        seed: int,
        entry: Dict[str, Any],
        salt: Optional[str] = None,
    ) -> None:
        """Write one cell's deterministic entry (volatile keys scrubbed)."""
        if salt is None:
            salt = source_tree_salt()
        self._db.execute(
            "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?, ?, ?)",
            (
                fingerprint,
                case_name,
                seed,
                salt,
                time.time(),
                json.dumps(scrub_volatile(entry), sort_keys=True, default=str),
            ),
        )
        self._db.commit()

    # -- snapshots --------------------------------------------------------
    def get_snapshot(self, prefix: str, seed: int) -> Optional[SimSnapshot]:
        row = self._db.execute(
            "SELECT blob FROM snapshots WHERE prefix = ? AND seed = ?",
            (prefix, seed),
        ).fetchone()
        if row is None:
            return None
        return SimSnapshot.from_bytes(row[0])

    def put_snapshot(
        self,
        prefix: str,
        seed: int,
        snapshot: SimSnapshot,
        salt: Optional[str] = None,
    ) -> None:
        if salt is None:
            salt = source_tree_salt()
        self._db.execute(
            "INSERT OR REPLACE INTO snapshots VALUES (?, ?, ?, ?, ?)",
            (prefix, seed, salt, time.time(), snapshot.to_bytes()),
        )
        self._db.commit()

    # -- maintenance ------------------------------------------------------
    def stats(self, salt: Optional[str] = None) -> Dict[str, Any]:
        """Row counts, staleness against the current salt, on-disk size."""
        if salt is None:
            salt = source_tree_salt()
        results = self._db.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        snapshots = self._db.execute("SELECT COUNT(*) FROM snapshots").fetchone()[0]
        stale_results = self._db.execute(
            "SELECT COUNT(*) FROM results WHERE salt != ?", (salt,)
        ).fetchone()[0]
        stale_snapshots = self._db.execute(
            "SELECT COUNT(*) FROM snapshots WHERE salt != ?", (salt,)
        ).fetchone()[0]
        salts = [
            row[0]
            for row in self._db.execute(
                "SELECT DISTINCT salt FROM results UNION SELECT DISTINCT salt FROM snapshots"
            )
        ]
        return {
            "path": str(self.path),
            "salt": salt,
            "results": results,
            "snapshots": snapshots,
            "stale_results": stale_results,
            "stale_snapshots": stale_snapshots,
            "salts": sorted(salts),
            # WAL mode parks recent writes in the -wal side file until a
            # checkpoint; counting only the main file would report a busy
            # store as 4 KiB.
            "db_bytes": sum(
                side.stat().st_size
                for suffix in ("", "-wal", "-shm")
                for side in [Path(str(self.path) + suffix)]
                if side.exists()
            ),
        }

    def prune(self, keep_salt: Optional[str] = None) -> Dict[str, int]:
        """Delete every row whose salt differs from *keep_salt* (default:
        the current source tree's) — stale cells are never consulted, this
        only reclaims disk."""
        if keep_salt is None:
            keep_salt = source_tree_salt()
        dropped_results = self._db.execute(
            "DELETE FROM results WHERE salt != ?", (keep_salt,)
        ).rowcount
        dropped_snapshots = self._db.execute(
            "DELETE FROM snapshots WHERE salt != ?", (keep_salt,)
        ).rowcount
        self._db.commit()
        self._db.execute("VACUUM")
        return {"results": dropped_results, "snapshots": dropped_snapshots}

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "SweepStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepStore({str(self.path)!r})"


# ---------------------------------------------------------------------------
# CLI: stats / prune / the warm-cache CI assertion
# ---------------------------------------------------------------------------
def _cmd_stats(args: argparse.Namespace) -> int:
    with SweepStore(args.cache_dir) as store:
        print(json.dumps(store.stats(), indent=2, sort_keys=True))
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    with SweepStore(args.cache_dir) as store:
        dropped = store.prune()
        print(
            f"[store] pruned {dropped['results']} stale results, "
            f"{dropped['snapshots']} stale snapshots from {store.path}"
        )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """The warm-cache CI assertion: a cached re-run must (a) hit on at least
    ``--min-hit-rate`` of its cells and (b) produce a byte-identical
    deterministic report."""
    warm = json.loads(Path(args.report).read_text())
    cold = json.loads(Path(args.against).read_text())
    cache = (warm.get("meta") or {}).get("cache") or {}
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    total = hits + misses
    rate = (hits / total) if total else 0.0
    failures = []
    if not cache.get("enabled"):
        failures.append("warm report has no enabled cache (meta.cache missing)")
    elif rate < args.min_hit_rate:
        failures.append(
            f"cell hit rate {rate:.1%} ({hits}/{total}) below the "
            f"{args.min_hit_rate:.0%} floor"
        )
    warm_bytes, cold_bytes = report_bytes(warm), report_bytes(cold)
    if warm_bytes != cold_bytes:
        failures.append(
            f"deterministic verdicts differ between warm and cold runs "
            f"({len(warm_bytes)} vs {len(cold_bytes)} canonical bytes)"
        )
    for failure in failures:
        print(f"[store] FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"[store] ok: {hits}/{total} cells served from cache ({rate:.1%}), "
        f"deterministic verdicts byte-identical ({len(warm_bytes)} bytes)"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.audit.store", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)
    stats = sub.add_parser("stats", help="row counts, staleness, disk size")
    stats.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR))
    stats.set_defaults(func=_cmd_stats)
    prune = sub.add_parser("prune", help="drop rows from other code versions")
    prune.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR))
    prune.set_defaults(func=_cmd_prune)
    check = sub.add_parser(
        "check", help="assert a warm re-run hit the cache and matched byte-for-byte"
    )
    check.add_argument("report", help="the warm (second) sweep report JSON")
    check.add_argument("--against", required=True, help="the cold (first) report JSON")
    check.add_argument("--min-hit-rate", type=float, default=0.9)
    check.set_defaults(func=_cmd_check)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
