"""Active-adversary (Byzantine) node behaviors and their audit wiring.

The transient-fault audit certifies recovery from *arbitrary state followed
by honest execution*.  This module supplies the harder half of the threat
model: processors that keep executing **maliciously**.  A traitor is an
otherwise-normal :class:`~repro.sim.cluster.ClusterNode` whose outbound
traffic is intercepted by a :class:`TraitorProgram` — a composition of
registered :class:`ByzantineBehavior` strategies:

``forge``
    Spontaneously emit fabricated packets: schema-valid reliable-broadcast
    messages with forged origins, occasional deliberately *malformed* ones
    (exercising the RB layer's quarantine path), and stale protocol packets
    drawn from the arbitrary-state generator's type-correct wire universe.
``mutate``
    Rewrite fields of in-flight outbound messages type-correctly (sequence
    numbers — the message id — kinds, origins, payloads), reusing the same
    random-value generators as the :class:`CorruptionAtom` machinery.
``drop``
    Selective forwarding: silently discard reliable-broadcast traffic
    toward a seeded half of the peers.
``equivocate``
    Send *different* payloads for the same broadcast to different peers —
    the canonical split-brain attack reliable broadcast exists to defeat.
``inflate``
    Heartbeat/vector inflation: spam junk traffic so every receiver's
    failure detector credits the traitor with extreme freshness (aging all
    honest peers), plus out-of-range data-link sequence numbers aimed at
    the hardened heartbeat validation.

Behaviors attack the *datalink/broadcast* surface, not the recSA gossip:
a traitor's own reconfiguration stack keeps running honestly, so the
paper's convergence certification composes with the Byzantine window
(traitors are active for a bounded ``duration``; afterwards the audit
certifies that the honest protocol converged despite the attack).

Everything is snapshot-safe by construction: programs are plain objects
(no closures) scheduled through :class:`~repro.sim.events.Action`, and the
per-traitor RNG streams live on the program, so the audit harness's warm
prefix sharing deep-copies and resumes them byte-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.audit.arbitrary_state import (
    random_config_value,
    random_proposal,
    _random_stale_payload,
)
from repro.audit.schedulers import current_coordinator
from repro.common.rng import make_rng
from repro.common.types import ProcessId
from repro.datalink.reliable_broadcast import MAX_RB_SEQ, RBMessage
from repro.datalink.token_exchange import DataLinkMessage
from repro.sim.events import Action
from repro.sim.faults import FaultInjector
from repro.sim.network import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster


# ---------------------------------------------------------------------------
# Behavior registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ByzantineBehavior:
    """A named, composable adversary strategy.

    The *handler* is a stateless singleton exposing either or both hooks:

    ``outgoing(program, pairs)``
        Transform the traitor's outbound ``(destination, payload)`` list
        (drop entries, rewrite payloads, fan variants out).
    ``tick(program)``
        Emit spontaneous traffic on the traitor's periodic tick.

    All mutable per-traitor state (RNG, drop targets, counters) lives on
    the :class:`TraitorProgram`, so handlers can be shared by every traitor
    in every run.
    """

    name: str
    description: str
    handler: Any


BEHAVIORS: Dict[str, ByzantineBehavior] = {}


def register_behavior(behavior: ByzantineBehavior) -> ByzantineBehavior:
    """Add *behavior* to the registry (unique name required)."""
    if behavior.name in BEHAVIORS:
        raise ValueError(f"byzantine behavior {behavior.name!r} is already registered")
    BEHAVIORS[behavior.name] = behavior
    return behavior


def get_behavior(name: str) -> ByzantineBehavior:
    """Resolve a behavior by name."""
    try:
        return BEHAVIORS[name]
    except KeyError:
        raise KeyError(
            f"unknown byzantine behavior {name!r}; available: {available_behaviors()}"
        ) from None


def available_behaviors() -> List[str]:
    """Sorted names of every registered behavior."""
    return sorted(BEHAVIORS)


# ---------------------------------------------------------------------------
# Behavior handlers (stateless singletons)
# ---------------------------------------------------------------------------
class _ForgeHandler:
    """Fabricate packets from thin air on every traitor tick."""

    burst = 2

    def tick(self, program: "TraitorProgram") -> None:
        rng = program.rng
        for _ in range(self.burst):
            destination = rng.choice(program.peer_list)
            roll = rng.random()
            if roll < 0.45:
                payload = self._forged_rb(program)
            elif roll < 0.65:
                payload = self._malformed_rb(program)
            else:
                payload = _random_stale_payload(rng, program.pid, program.universe)
            program.emit(destination, payload)
            program.forged += 1

    @staticmethod
    def _forged_rb(program: "TraitorProgram") -> RBMessage:
        """A schema-valid RB packet with adversarial contents.

        Forged SENDs with ``origin != self`` probe the channel-authenticity
        check; forged echoes/readies probe the voting thresholds.
        """
        rng = program.rng
        return RBMessage(
            kind=rng.choice(["send", "echo", "ready", "fwd"]),
            origin=rng.choice(program.universe),
            seq=rng.randrange(0, 8),
            payload=("forged", program.pid, rng.randrange(100)),
        )

    @staticmethod
    def _malformed_rb(program: "TraitorProgram") -> RBMessage:
        """A structurally invalid RB packet (must be quarantined, not crash)."""
        rng = program.rng
        roll = rng.random()
        if roll < 0.35:
            return RBMessage(kind="echo", origin=program.pid, seq=-rng.randrange(1, 10))
        if roll < 0.65:
            return RBMessage(kind="bogus", origin=program.pid, seq=0)
        # Out-of-range id plus an unhashable payload in one packet.
        return RBMessage(
            kind="ready", origin=program.pid, seq=MAX_RB_SEQ + 1, payload=["unhashable"]
        )


class _MutateHandler:
    """Type-correct field mutation of in-flight RB / data-link messages."""

    probability = 0.35

    def outgoing(
        self, program: "TraitorProgram", pairs: List[Tuple[ProcessId, Any]]
    ) -> List[Tuple[ProcessId, Any]]:
        out: List[Tuple[ProcessId, Any]] = []
        for destination, payload in pairs:
            if (
                isinstance(payload, (RBMessage, DataLinkMessage))
                and program.rng.random() < self.probability
            ):
                payload = self._mutate(program, payload)
                program.mutated += 1
            out.append((destination, payload))
        return out

    @staticmethod
    def _mutate(program: "TraitorProgram", message: Any) -> Any:
        rng = program.rng
        if isinstance(message, RBMessage):
            roll = rng.random()
            if roll < 0.4:  # message-id mutation
                return replace(message, seq=rng.randrange(0, 64))
            if roll < 0.6:
                return replace(message, kind=rng.choice(["send", "echo", "ready", "fwd"]))
            if roll < 0.8:
                return replace(message, origin=rng.choice(program.universe))
            # Payload replacement via the arbitrary-state value generators
            # (the CorruptionAtom machinery's type-correct draws).
            if rng.random() < 0.5:
                value: Any = random_config_value(rng, program.universe)
            else:
                value = random_proposal(rng, program.universe)
            return replace(message, payload=("mutated", value))
        roll = rng.random()
        if roll < 0.5:
            return replace(
                message, seq=rng.randrange(0, 2 * program.channel_capacity + 2)
            )
        return replace(message, kind=rng.choice(["data", "ack", "clean", "clean-ack"]))


class _DropHandler:
    """Selective forwarding: drop RB traffic toward a seeded peer subset."""

    def outgoing(
        self, program: "TraitorProgram", pairs: List[Tuple[ProcessId, Any]]
    ) -> List[Tuple[ProcessId, Any]]:
        out: List[Tuple[ProcessId, Any]] = []
        for destination, payload in pairs:
            if isinstance(payload, RBMessage) and destination in program.drop_targets:
                program.dropped += 1
                continue
            out.append((destination, payload))
        return out


class _EquivocateHandler:
    """Send different payloads for the same broadcast to different peers."""

    def outgoing(
        self, program: "TraitorProgram", pairs: List[Tuple[ProcessId, Any]]
    ) -> List[Tuple[ProcessId, Any]]:
        out: List[Tuple[ProcessId, Any]] = []
        for destination, payload in pairs:
            if (
                isinstance(payload, RBMessage)
                and payload.kind in ("send", "fwd")
                and payload.origin == program.pid
            ):
                # Deterministic split: half the peers get variant 0, half
                # variant 1 — maximal disagreement without randomness, so
                # shrunk reproducers replay exactly.
                variant = ("equiv", program.pid, payload.seq, destination % 2)
                payload = replace(payload, payload=variant)
                program.equivocated += 1
            out.append((destination, payload))
        return out


class _InflateHandler:
    """Heartbeat/vector inflation: farm freshness credit with junk traffic."""

    storm = 4

    def tick(self, program: "TraitorProgram") -> None:
        for destination in program.peer_list:
            # Each junk packet triggers notify_traffic → fd.heartbeat at the
            # receiver: without the consecutive-sender clamp, one traitor's
            # storm ages every honest peer past the suspicion gap.
            for index in range(self.storm):
                program.emit(destination, ("byz-heartbeat-flood", program.pid, index))
            # Out-of-range data-link values aimed at the hardened heartbeat
            # service's bounds validation (quarantined, never ingested).
            program.emit(
                destination,
                DataLinkMessage(kind="data", link_sender=program.pid, seq=1 << 40),
            )
        program.inflated += 1


register_behavior(
    ByzantineBehavior(
        "forge",
        "fabricate RB/protocol packets (valid, malformed and stale)",
        _ForgeHandler(),
    )
)
register_behavior(
    ByzantineBehavior(
        "mutate",
        "type-correct field mutation of outbound RB/data-link messages",
        _MutateHandler(),
    )
)
register_behavior(
    ByzantineBehavior(
        "drop",
        "selective forwarding: drop RB traffic toward half the peers",
        _DropHandler(),
    )
)
register_behavior(
    ByzantineBehavior(
        "equivocate",
        "different payloads of one broadcast to different peers",
        _EquivocateHandler(),
    )
)
register_behavior(
    ByzantineBehavior(
        "inflate",
        "heartbeat/vector inflation storms + out-of-range link values",
        _InflateHandler(),
    )
)


# ---------------------------------------------------------------------------
# Traitor programs
# ---------------------------------------------------------------------------
class TraitorProgram:
    """The composition of behaviors animating one Byzantine processor.

    Installed through :meth:`FaultInjector.make_byzantine`: registers itself
    as the simulator's outbound interceptor for ``pid`` and (for behaviors
    with a ``tick`` hook) schedules a periodic spontaneous-traffic tick.
    Plain object + :class:`Action` scheduling keeps it snapshot-safe.
    """

    def __init__(
        self,
        cluster: "Cluster",
        pid: ProcessId,
        behaviors: Sequence[str],
        seed: int = 0,
        tick_interval: float = 2.0,
    ) -> None:
        self.cluster = cluster
        self.pid = pid
        self.behavior_names: Tuple[str, ...] = tuple(behaviors)
        self.behaviors: Tuple[ByzantineBehavior, ...] = tuple(
            get_behavior(name) for name in self.behavior_names
        )
        self.rng: random.Random = make_rng(seed, "byzantine", pid)
        self.tick_interval = max(0.5, float(tick_interval))
        self.universe: List[ProcessId] = sorted(cluster.nodes)
        self.peer_list: List[ProcessId] = [p for p in self.universe if p != pid]
        self.channel_capacity = cluster.config.channel.capacity
        # Seeded half of the peers targeted by selective forwarding.
        half = max(1, len(self.peer_list) // 2) if self.peer_list else 0
        self.drop_targets = frozenset(self.rng.sample(self.peer_list, half)) if half else frozenset()
        self.active = False
        self.forged = 0
        self.mutated = 0
        self.dropped = 0
        self.equivocated = 0
        self.inflated = 0

    # ------------------------------------------------------------ lifecycle
    def activate(self) -> None:
        """Start intercepting and (if any behavior ticks) emitting."""
        if self.active:
            return
        self.active = True
        simulator = self.cluster.simulator
        simulator.outbound_interceptors[self.pid] = self
        # The set of ever-Byzantine pids outlives deactivation: safety
        # invariants never trust a once-traitorous node's local state.
        self.cluster.byzantine_pids.add(self.pid)
        if any(hasattr(b.handler, "tick") for b in self.behaviors):
            simulator.call_later(
                self.tick_interval,
                Action(TraitorProgram._tick, self),
                label=f"byzantine:tick:{self.pid}",
            )

    def deactivate(self) -> None:
        """Stop intercepting; the node resumes honest execution."""
        self.active = False
        interceptors = self.cluster.simulator.outbound_interceptors
        if interceptors.get(self.pid) is self:
            del interceptors[self.pid]

    # -------------------------------------------------------- traffic hooks
    def outgoing(
        self, destination: ProcessId, payload: Any
    ) -> List[Tuple[ProcessId, Any]]:
        """Transform one outbound message through every behavior in order."""
        pairs: List[Tuple[ProcessId, Any]] = [(destination, payload)]
        for behavior in self.behaviors:
            handler = behavior.handler
            if hasattr(handler, "outgoing"):
                pairs = handler.outgoing(self, pairs)
                if not pairs:
                    break
        return pairs

    def emit(self, destination: ProcessId, payload: Any) -> None:
        """Send a fabricated packet directly (bypassing interception)."""
        node = self.cluster.nodes.get(destination)
        if node is None:
            return
        self.cluster.simulator.network.send(
            Packet(source=self.pid, destination=destination, payload=payload)
        )

    def _tick(self) -> None:
        if not self.active:
            return
        node = self.cluster.nodes.get(self.pid)
        if node is None or node.crashed:
            self.deactivate()
            return
        for behavior in self.behaviors:
            handler = behavior.handler
            if hasattr(handler, "tick"):
                handler.tick(self)
        self.cluster.simulator.call_later(
            self.tick_interval,
            Action(TraitorProgram._tick, self),
            label=f"byzantine:tick:{self.pid}",
        )


# ---------------------------------------------------------------------------
# Traitor selection policies
# ---------------------------------------------------------------------------
SELECTION_POLICIES = ("lowest", "random", "coordinator")


def select_traitors(
    cluster: "Cluster", count: int, selection: str, rng: random.Random
) -> List[ProcessId]:
    """Pick *count* traitor pids among the alive nodes.

    ``lowest``
        The lowest alive pids (deterministic baseline).
    ``random``
        A seeded sample.
    ``coordinator``
        The adaptive policy: the *current coordinator* (read at fire time,
        exactly like the ``target_coordinator`` scheduler) turns traitor;
        remaining slots fill with the lowest alive pids.
    """
    alive = sorted(
        node.pid for node in cluster.nodes.values() if node.started and not node.crashed
    )
    if not alive or count <= 0:
        return []
    count = min(count, len(alive))
    if selection == "lowest":
        return alive[:count]
    if selection == "random":
        return sorted(rng.sample(alive, count))
    if selection == "coordinator":
        chosen: List[ProcessId] = []
        coordinator = current_coordinator(cluster)
        if coordinator is not None and coordinator in alive:
            chosen.append(coordinator)
        for pid in alive:
            if len(chosen) >= count:
                break
            if pid not in chosen:
                chosen.append(pid)
        return sorted(chosen[:count])
    raise KeyError(
        f"unknown traitor selection {selection!r}; available: {SELECTION_POLICIES}"
    )


# ---------------------------------------------------------------------------
# Audit-case spec + workload
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ByzantineSpec:
    """Declarative description of an audit case's Byzantine adversary.

    Value-like and JSON-roundtrippable (the corpus stores it verbatim).
    ``delay`` offsets activation relative to the case's ``corrupt_at``;
    ``duration`` bounds the active window, after which traitors fall silent
    and the audit certifies that the honest system converged despite them.
    """

    behaviors: Tuple[str, ...]
    traitors: int = 1
    selection: str = "lowest"
    delay: float = 0.0
    duration: float = 60.0
    seed: int = 0
    tick_interval: float = 2.0


def plan_assignments(
    cluster: "Cluster", spec: ByzantineSpec
) -> List[Tuple[ProcessId, str]]:
    """The deterministic traitor plan: ordered ``(pid, behavior)`` pairs.

    The ddmin shrinker re-runs subsets of this list (via the workload's
    ``include`` indices), so a violating traitor program shrinks to the
    minimal set of per-node behaviors that still breaks the invariant.
    """
    rng = make_rng(spec.seed, "byzantine-selection")
    pids = select_traitors(cluster, spec.traitors, spec.selection, rng)
    return [(pid, behavior) for pid in pids for behavior in spec.behaviors]


@dataclass(frozen=True)
class ByzantineWorkload:
    """Install the spec's traitors at time *at* (fire-time parameterized).

    Mirrors :class:`~repro.scenarios.workloads.ArbitraryStateWorkload`:
    every plan-shaping field (``spec``, ``include``, ``record_atoms``) is
    read at *fire* time, so the audit harness's warm prefix sharing can
    patch a restored pending event and resume byte-identically.
    """

    at: float
    spec: ByzantineSpec
    include: Optional[Tuple[int, ...]] = None
    record_atoms: bool = False

    def install(self, cluster: "Cluster") -> None:
        cluster.simulator.call_at(
            self.at,
            Action(ByzantineWorkload._fire, self, cluster),
            label="workload:byzantine",
        )

    def _fire(self, cluster: "Cluster") -> None:
        spec = self.spec
        plan = plan_assignments(cluster, spec)
        if self.include is None:
            selected = plan
        else:
            selected = [plan[i] for i in self.include if 0 <= i < len(plan)]
        by_pid: Dict[ProcessId, List[str]] = {}
        for pid, behavior in selected:
            by_pid.setdefault(pid, []).append(behavior)
        injector = FaultInjector(cluster.simulator)
        installed: List[ProcessId] = []
        for pid, behaviors in sorted(by_pid.items()):
            program = TraitorProgram(
                cluster,
                pid,
                behaviors,
                seed=spec.seed,
                tick_interval=spec.tick_interval,
            )
            if injector.make_byzantine(cluster, pid, program):
                installed.append(pid)
                cluster.simulator.call_later(
                    spec.duration,
                    Action(FaultInjector.restore_honest, injector, pid),
                    label=f"byzantine:end:{pid}",
                )
        entry: Dict[str, Any] = {
            "workload": "byzantine",
            "time": self.at,
            "atoms_total": len(plan),
            "atoms_selected": len(selected),
            "traitors": installed,
            "selection": spec.selection,
            "duration": spec.duration,
        }
        if self.record_atoms:
            entry["atoms"] = [f"traitor {pid}: {behavior}" for pid, behavior in selected]
        cluster.workload_reports.append(entry)
