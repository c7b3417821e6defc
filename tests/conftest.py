"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, List, Optional

import pytest

from repro.analysis import probes
from repro.audit.arbitrary_state import PROFILES, generate_plan
from repro.common.types import BOTTOM, ProcessId, make_config
from repro.core.recsa import RecSA
from repro.node.config import fast_sim
from repro.sim.cluster import Cluster, build_cluster
from repro.sim.faults import CorruptionAtom, apply_plan


def quick_cluster(n: int, seed: int = 1, capacity: int = 8, **overrides: Any) -> Cluster:
    """A small ``fast_sim`` cluster for tests; *overrides* are
    :class:`~repro.node.config.ClusterConfig` fields, *capacity* the channels'."""
    config = fast_sim(**overrides)
    channel = replace(config.channel, capacity=capacity)
    return build_cluster(n, seed, config=config.with_overrides(channel=channel))


def no_reset_in_progress(cluster: Cluster) -> bool:
    """No alive node's own config entry is ``⊥``.

    **Deliberately too strong**: a brute-force reset legitimately drives
    every config entry through ``⊥``, so any corruption that triggers a reset
    violates this.  It exists as the demonstration target for the audit
    engine's reproducer shrinking (``tests/test_audit.py``'s shrink test) and
    the corpus entries it mined.
    """
    return all(
        node.recsa.config.get(node.pid) is not BOTTOM
        for node in cluster.alive_nodes()
    )


def no_reset_invariant() -> probes.Invariant:
    return probes.Invariant("no_reset_in_progress", no_reset_in_progress)


#: Named invariant factories — what corpus entries resolve against (an
#: :class:`~repro.analysis.probes.Invariant` itself is not JSON-serializable).
INVARIANT_FACTORIES: Dict[str, Callable[[], probes.Invariant]] = {
    "no_reset_in_progress": no_reset_invariant,
    "smr_agreement": probes.smr_agreement_invariant,
    "rb_agreement": probes.rb_agreement_invariant,
    "rb_validity": probes.rb_validity_invariant,
}


def invariant_by_name(name: str) -> probes.Invariant:
    """Build the named invariant (corpus replay)."""
    try:
        return INVARIANT_FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown invariant {name!r}; available: {sorted(INVARIANT_FACTORIES)}"
        ) from None


def scramble(
    cluster: Cluster, seed: int, fraction: float = 1.0, only: Optional[ProcessId] = None
) -> List[CorruptionAtom]:
    """Transient fault on the reconfiguration layer: apply the ``"scramble"``
    plan (recSA + recMA variables) to *fraction* of the alive nodes.

    *only* keeps just the atoms aimed at that pid — a single-node corruption
    is a filtered plan.  Returns the atoms applied.
    """
    plan = generate_plan(
        cluster, seed=seed, profile=replace(PROFILES["scramble"], node_fraction=fraction)
    )
    if only is not None:
        plan = [atom for atom in plan if atom.pid == only]
    assert apply_plan(cluster, plan)["skipped"] == 0
    return plan


class LocalBus:
    """A synchronous, in-memory message bus for unit-testing protocol objects.

    Messages sent through the bus are queued; :meth:`deliver_all` hands every
    queued message to its destination's handler.  This gives fully
    deterministic unit tests of recSA/recMA without the discrete-event
    simulator.
    """

    def __init__(self) -> None:
        self.queues: Dict[ProcessId, List] = {}
        self.handlers: Dict[ProcessId, Any] = {}
        self.dropped: int = 0

    def sender_for(self, pid: ProcessId):
        def _send(destination: ProcessId, message: Any) -> None:
            self.queues.setdefault(destination, []).append((pid, message))

        return _send

    def register(self, pid: ProcessId, handler: Any) -> None:
        self.handlers[pid] = handler

    def deliver_all(self) -> int:
        """Deliver every queued message; returns how many were delivered."""
        delivered = 0
        pending = {pid: list(messages) for pid, messages in self.queues.items()}
        self.queues = {}
        for destination, messages in pending.items():
            handler = self.handlers.get(destination)
            for sender, message in messages:
                if handler is None:
                    self.dropped += 1
                    continue
                handler(sender, message)
                delivered += 1
        return delivered


class RecSAHarness:
    """A set of RecSA instances wired over a :class:`LocalBus`.

    The failure detector is simulated by a mutable ``trusted`` mapping: tests
    control exactly which processors each instance trusts.
    """

    def __init__(self, pids: Iterable[ProcessId], initial_config: Any = BOTTOM) -> None:
        self.pids = sorted(pids)
        self.bus = LocalBus()
        self.trusted: Dict[ProcessId, frozenset] = {
            pid: frozenset(self.pids) for pid in self.pids
        }
        self.instances: Dict[ProcessId, RecSA] = {}
        for pid in self.pids:
            instance = RecSA(
                pid=pid,
                fd_provider=(lambda p=pid: self.trusted[p]),
                send=self.bus.sender_for(pid),
                initial_config=initial_config,
            )
            self.instances[pid] = instance
            self.bus.register(pid, instance.on_message)

    def __getitem__(self, pid: ProcessId) -> RecSA:
        return self.instances[pid]

    def crash(self, pid: ProcessId) -> None:
        """Remove *pid* from every failure detector and stop scheduling it."""
        self.pids = [p for p in self.pids if p != pid]
        self.instances.pop(pid, None)
        self.bus.handlers.pop(pid, None)
        for other in self.pids:
            self.trusted[other] = frozenset(self.pids)

    def round(self, count: int = 1) -> None:
        """Run *count* rounds of (step every instance, deliver every message)."""
        for _ in range(count):
            for pid in self.pids:
                self.instances[pid].step()
            self.bus.deliver_all()

    def run_until(self, predicate, max_rounds: int = 200) -> bool:
        """Run rounds until *predicate()* holds; False when it never did."""
        if predicate():
            return True
        for _ in range(max_rounds):
            self.round()
            if predicate():
                return True
        return False

    def configs(self) -> Dict[ProcessId, Any]:
        """Each instance's own configuration value."""
        return {pid: self.instances[pid].config.get(pid) for pid in self.pids}

    def converged(self) -> bool:
        """All instances hold the same real configuration and report stability."""
        values = set()
        for pid in self.pids:
            value = self.instances[pid].config.get(pid)
            if not isinstance(value, frozenset):
                return False
            values.add(value)
        if len(values) != 1:
            return False
        return all(self.instances[pid].no_reco() for pid in self.pids)


@pytest.fixture
def recsa_harness() -> RecSAHarness:
    """A three-processor RecSA harness bootstrapping via a reset."""
    return RecSAHarness(pids=[1, 2, 3])


# ---------------------------------------------------------------------------
# The deterministic report surface of ``certify``: what the audit pins compare
# ---------------------------------------------------------------------------
#: Result-entry keys that are *not* part of the deterministic surface: wall
#: clock depends on machine load and worker pids on the OS.  They are
#: scrubbed before any byte-comparison.
VOLATILE_KEYS = frozenset({"wall_seconds", "worker_pid"})


def scrub_volatile(value: Any) -> Any:
    """A deep copy of *value* with every volatile key removed.

    Two executions of the same cell differ only in wall clock and worker
    identity, so what remains is the deterministic surface.
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
    accounting, prefix-reuse counts); what remains — the verdicts,
    stabilization distribution, failure list and matrix identity — must
    serialize identically for two sweeps of the same code and inputs,
    however they were scheduled: serial or parallel, warm or cold.
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
