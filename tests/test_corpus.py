"""Replay the persistent reproducer corpus (tests/corpus/*.json).

Each corpus entry is a shrunk minimal reproducer mined by the audit engine:
a corruption-plan subset pinned to violate a named invariant under a named
environment program.  Replaying them keeps historical reproducers alive as
regression tests — if a protocol change makes one stop reproducing (or
changes whether the system recovers afterwards), the corresponding test
fails and the corpus entry must be consciously re-mined or retired.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.audit.byzantine import ByzantineSpec
from repro.audit.harness import AuditCase, run_case

from tests.conftest import invariant_by_name

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_ENTRIES = sorted(CORPUS_DIR.glob("*.json"))


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _build_case(entry: dict) -> AuditCase:
    case_data = dict(entry["case"])
    invariants = tuple(
        invariant_by_name(name) for name in case_data.pop("invariants", [])
    )
    byzantine = case_data.pop("byzantine", None)
    if byzantine is not None:
        byzantine = ByzantineSpec(
            **{**byzantine, "behaviors": tuple(byzantine["behaviors"])}
        )
    return AuditCase(invariants=invariants, byzantine=byzantine, **case_data)


def test_corpus_is_seeded():
    assert CORPUS_ENTRIES, "tests/corpus/ must contain at least one reproducer"


@pytest.mark.parametrize("path", CORPUS_ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_still_reproduces(path):
    entry = _load(path)
    case = _build_case(entry)
    include = tuple(entry["include"])
    result = run_case(case, seed=entry["seed"], include=include, record_atoms=True)

    # The pinned subset must have been applied exactly — to the traitor
    # plan for Byzantine reproducers, to the corruption plan otherwise.
    plan_kind = "byzantine" if case.byzantine is not None else "arbitrary_state"
    reports = [
        report
        for report in result.get("workload_reports", ())
        if report.get("workload") == plan_kind
    ]
    assert reports and reports[0]["atoms_selected"] == len(include)

    # The reproducer must still fail overall and violate the pinned invariants.
    assert not result["ok"], f"{path.stem}: reproducer no longer fails"
    violated = {
        interval["name"] for interval in result["invariants"]["intervals"]
    }
    for name in entry["expect"]["violates"]:
        assert name in violated, f"{path.stem}: {name} no longer violated"

    # Recovery behaviour is pinned too: a reproducer that used to converge
    # after the violation must keep converging (and vice versa).
    expected_convergence = entry["expect"].get("converges")
    if expected_convergence is not None:
        assert result["probes"]["converged"]["satisfied"] is expected_convergence


@pytest.mark.parametrize("path", CORPUS_ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_is_minimal(path):
    """Dropping any atom from a pinned reproducer makes the failure vanish.

    1-minimality is what `shrink_case` certified when the entry was mined;
    replaying it guards against plans drifting under the pinned indices
    (e.g. a generator change that renumbers atoms would surface here).
    """
    entry = _load(path)
    include = tuple(entry["include"])
    if len(include) != 1:
        pytest.skip("minimality replay only pinned for single-atom reproducers")
    case = _build_case(entry)
    result = run_case(case, seed=entry["seed"], include=())
    assert result["ok"], f"{path.stem}: failure persists without the pinned atom"
