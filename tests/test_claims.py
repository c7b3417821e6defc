"""The claims ledger (``docs/claims.md``): what no other tier-1 test asserts,
and the ledger's own consistency.

The paper's result is a list of theorems.  ``docs/claims.md`` names each one
(E1–E12) with its analytic bound, the tier-1 test that checks it and the value
measured at a named seed.  Most claims already had a test elsewhere under
``tests/`` — the ledger names it and its docstring names the theorem; this file
holds only the rest (E1, E6, E10, E11), as plain functions, so a violated
theorem fails ``make test``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.common.types import make_config
from repro.labels.label import EpochLabel, LabelPair
from repro.node.faults import CorruptionAtom, apply_plan

from tests.conftest import quick_cluster, scramble

REPO = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------- E1
@pytest.mark.parametrize("n", [4, 8, 12])
def test_recsa_converges_from_a_cold_start(n):
    """E1, Theorem 3.15 (convergence): from an all-reset start every
    processor ends up holding the same configuration and reports stability."""
    cluster = quick_cluster(n, seed=11)
    assert cluster.run_until_converged(timeout=4_000)
    assert cluster.agreed_configuration() == make_config(range(n))


@pytest.mark.parametrize("n", [4, 8])
def test_recsa_converges_after_a_scramble_plan(n):
    """E1, Theorem 3.15 (convergence): and again after a transient fault has
    rewritten the recSA + recMA variables of every node."""
    cluster = quick_cluster(n, seed=17)
    assert cluster.run_until_converged(timeout=4_000)
    assert scramble(cluster, seed=18)
    assert cluster.run_until_converged(timeout=20_000)


# --------------------------------------------------------------------- E6
@pytest.mark.parametrize("corrupt", [False, True])
def test_label_creations_within_the_bound(corrupt):
    """E6, Theorem 4.4: from an arbitrary label state at most N(N²+m) labels
    are created before one maximal label is agreed (m = cap·N², the labels
    the channels can hold); from a legal state none is."""
    n = 4
    cluster = quick_cluster(n, seed=47, stack="labels")
    services = cluster.services("labels")
    assert cluster.run_until_converged(timeout=4_000)
    cluster.run(until=cluster.simulator.now + 60)
    if corrupt:
        # A canceled garbage maximum in every member's own slot.
        plan = []
        for pid in services:
            garbage = EpochLabel(creator=pid, sting=7 + pid, antistings=frozenset({1, 2}))
            plan.append(
                CorruptionAtom(
                    kind="entry",
                    pid=pid,
                    path=("service:labels", "store", "max_pairs"),
                    key=pid,
                    value=LabelPair(ml=garbage, cl=garbage),
                )
            )
        assert apply_plan(cluster, plan) == {"applied": n, "skipped": 0}

    def one_maximal_label() -> bool:
        labels = {svc.max_label() for svc in services.values()}
        return len(labels) == 1 and None not in labels

    created_before = sum(svc.labels_created() for svc in services.values())
    assert cluster.run_until(one_maximal_label, timeout=6_000)
    creations = sum(svc.labels_created() for svc in services.values()) - created_before
    m = cluster.config.channel.capacity * n * n
    assert creations <= n * (n * n + m)
    assert (creations > 0) == corrupt


# -------------------------------------------------------------------- E10
@pytest.mark.parametrize("n,crashes", [(4, 1), (6, 2)])
def test_failure_detector_suspects_exactly_the_crashed(n, crashes):
    """E10: the (N, Θ) detectors of the survivors come to suspect every
    crashed processor and no alive one (``false_suspicions == 0``), and the
    verdict holds from then on."""
    cluster = quick_cluster(n, seed=61)
    assert cluster.run_until_converged(timeout=4_000)
    for pid in range(crashes):
        cluster.crash(pid)
    alive = cluster.alive_nodes()
    expected = frozenset(node.pid for node in alive)

    def exact() -> bool:
        return all(node.trusted() == expected for node in alive)

    assert cluster.run_until(exact, timeout=6_000)
    cluster.run(until=cluster.simulator.now + 100)
    assert exact()


# -------------------------------------------------------------------- E11
@pytest.mark.parametrize("capacity", [2, 8])
def test_bootstrap_converges_at_either_channel_capacity(capacity):
    """E11: convergence does not depend on the channel capacity *cap* (the
    size axis is E1 above plus the n=16 pin and the n=128 bootstrap in
    ``test_scale.py``)."""
    cluster = quick_cluster(6, seed=97, capacity=capacity)
    assert cluster.run_until_converged(timeout=6_000)


# ------------------------------------------------------------- the ledger
NODE_ID = re.compile(r"`(tests/[\w/]+\.py(?:::\w+)+)(?:\[[^\]`]*\])?`")


def _ledger_rows():
    lines = (REPO / "docs" / "claims.md").read_text(encoding="utf-8").splitlines()
    return [line for line in lines if re.match(r"\|\s*E\d+\s*\|", line)]


def test_ledger_has_each_claim_exactly_once():
    ids = [row.split("|")[1].strip() for row in _ledger_rows()]
    assert ids == [f"E{index}" for index in range(1, 13)]


def test_every_ledger_row_names_tests_that_exist():
    for row in _ledger_rows():
        node_ids = NODE_ID.findall(row)
        assert node_ids, f"no tier-1 node id in ledger row: {row[:40]}"
        for node_id in node_ids:
            path, *names = node_id.split("::")
            source = (REPO / path).read_text(encoding="utf-8")
            for name in names:
                assert re.search(
                    rf"^\s*(?:def|class) {name}\b", source, re.MULTILINE
                ), f"{node_id}: no def/class {name} in {path}"


def test_every_make_target_ci_runs_is_defined():
    """``make bench-pytest`` rotted unnoticed because nothing ran it; a CI
    step that names a target the Makefile lost should fail here first.  And
    ``.PHONY`` lists exactly the rules, so a deleted target leaves no entry
    behind and a new one is not shadowed by a file of its name.  Every audit
    matrix a target certifies is one the CLI knows."""
    from repro.audit.__main__ import MATRICES

    makefile = (REPO / "Makefile").read_text(encoding="utf-8")
    defined = set(re.findall(r"^([a-z0-9-]+):", makefile, re.MULTILINE))
    phony = set(re.search(r"^\.PHONY:(.*)$", makefile, re.MULTILINE).group(1).split())
    assert phony == defined, sorted(phony ^ defined)
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    used = set(re.findall(r"run: make ([a-z0-9-]+)", workflow))
    assert used and used <= defined, sorted(used - defined)
    matrices = set(re.findall(r"--matrix ([a-z0-9]+)", makefile))
    assert matrices and matrices <= set(MATRICES), sorted(matrices - set(MATRICES))


def test_every_cluster_config_field_is_read():
    """``ClusterConfig`` is the one tunable surface: a field that no module
    reads as ``config.<field>`` (outside the module defining it) is a knob
    that does nothing, and fails here instead of drifting."""
    import dataclasses

    from repro.node.config import ClusterConfig

    src = REPO / "src" / "repro"
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(src.rglob("*.py"))
        if path != src / "node" / "config.py"
    )
    unread = [
        field.name
        for field in dataclasses.fields(ClusterConfig)
        if not re.search(rf"\bconfig\.{field.name}\b", text)
    ]
    assert not unread, unread


#: The calls that build a ``ClusterConfig`` or a ``ScenarioSpec`` from keywords.
_CONFIG_BUILDERS = frozenset({
    "ClusterConfig", "fast_sim", "paper_faithful", "coherent_start", "degraded_net",
    "preset", "with_overrides", "ScenarioSpec", "replace",
})


def _product_calls():
    """Every call outside ``tests/`` by callee name: ``[(keywords, number of
    positional arguments), ...]``."""
    import ast

    calls = {}
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((REPO / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    keywords = {keyword.arg for keyword in node.keywords}
                    calls.setdefault(name, []).append((keywords, len(node.args)))
    return calls


def _node_constructors():
    """What a node and a simulated network construct: directly, or through
    the scheme, the heartbeat and the stack builders.  ``Process`` (the
    node's base) and the coherent-start baseline's ``CoherentStartNode``
    stay out: the tests' quiet probe processes set ``step_interval`` and
    ``jitter``, which no product process does."""
    from repro.core.joining import JoiningProtocol
    from repro.core.recma import RecMA
    from repro.core.recsa import RecSA
    from repro.core.scheme import ReconfigurationScheme
    from repro.counters.service import CounterService
    from repro.datalink.heartbeat import HeartbeatService
    from repro.datalink.reliable_broadcast import ReliableBroadcastService
    from repro.datalink.token_exchange import LinkEndpoint
    from repro.failure_detector.ntheta import NThetaFailureDetector
    from repro.labels.labeling import LabelingService
    from repro.sim.network import Channel
    from repro.vs.shared_memory import SharedRegister
    from repro.vs.virtual_synchrony import VirtualSynchronyService

    return (
        NThetaFailureDetector, HeartbeatService, LinkEndpoint, ReconfigurationScheme,
        RecSA, RecMA, JoiningProtocol, LabelingService, CounterService,
        VirtualSynchronyService, SharedRegister, ReliableBroadcastService, Channel,
    )


def test_every_option_has_a_product_caller():
    """A ``ClusterConfig`` or ``ScenarioSpec`` field that no product run,
    benchmark or example sets is an option only tests use: each field must
    be a keyword of some call that builds one, outside ``tests/``.

    The constructors a node and a network call keep two rules: a parameter
    with a default is set by some call outside ``tests/`` (else only tests
    use it), and not by every such call (else its default is never used)."""
    import dataclasses
    import inspect

    from repro.node.config import ClusterConfig
    from repro.scenarios.spec import ScenarioSpec

    calls = _product_calls()
    keywords = set()
    for name in _CONFIG_BUILDERS:
        for called, _ in calls.get(name, ()):
            keywords |= called
    unset = [
        f"{cls.__name__}.{field.name}"
        for cls in (ClusterConfig, ScenarioSpec)
        for field in dataclasses.fields(cls)
        if field.name not in keywords
    ]
    assert not unset, unset

    unused, overridden = [], []
    for cls in _node_constructors():
        parameters = list(inspect.signature(cls.__init__).parameters.values())[1:]
        sites = calls.get(cls.__name__, [])
        for index, parameter in enumerate(parameters):
            if parameter.default is inspect.Parameter.empty:
                continue
            setters = sum(
                parameter.name in called or positional > index for called, positional in sites
            )
            if setters == 0:
                unused.append(f"{cls.__name__}({parameter.name}=)")
            elif setters == len(sites):
                overridden.append(f"{cls.__name__}({parameter.name}=)")
    assert not unused, unused
    assert not overridden, overridden


def test_every_spine_entry_point_resolves():
    """The spine benchmark wraps each ``(owner, attribute)`` of its span
    table by name (a class attribute through ``owner.__dict__``); a method
    renamed or deleted under it should fail here, not as a ``KeyError`` in a
    traced benchmark pass.  The table is only read: nothing is wrapped."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "spine_spans", REPO / "benchmarks" / "spine" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _ in spans.entry_points()
        if (attribute not in owner.__dict__ if isinstance(owner, type) else not hasattr(owner, attribute))
    ]
    assert not missing, missing
