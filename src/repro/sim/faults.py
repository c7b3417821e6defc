"""Transient-fault injection.

The paper models transient faults as an *arbitrary starting state*: any
processor variable and any channel content may be corrupted (bounded by the
channel capacity).  The :class:`FaultInjector` reproduces this by:

* overwriting protocol-state fields of live processes with adversarially
  chosen (but type-correct) values,
* stuffing channels with stale packets,
* turning live processes Byzantine for a window.

What to corrupt is decided elsewhere: :mod:`repro.audit.arbitrary_state`
generates seeded plans of :class:`CorruptionAtom` values and the injector
only applies (and records) them.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.types import ProcessId
from repro.sim.simulator import Simulator


@dataclass
class FaultRecord:
    """One injected fault, for post-mortem analysis of a run."""

    time: float
    kind: str
    target: Any
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CorruptionAtom:
    """One independently applicable unit of the paper's transient-fault model.

    The arbitrary-state generator (:mod:`repro.audit.arbitrary_state`)
    produces *plans* — ordered lists of atoms — instead of mutating state
    directly, so that a violating run can be **shrunk** to a minimal
    reproducer by re-running subsets of the plan.  An atom is plain data
    (target pid, an attribute path, a key, a value), which keeps reproducers
    printable and plans comparable across runs.

    Kinds
    -----
    ``attr``
        ``setattr`` on the object reached by walking *path* from the node;
        *key* is the name of an attribute that object already has (the atom
        is skipped otherwise).
    ``entry``
        Overwrite one entry of the mapping reached by *path*; *key* is the
        mapping key.
    ``channel``
        Stuff a stale packet into the channel ``pid → key`` (*value* is the
        payload); bounded by the channel capacity like every injection.

    A *path* component of the form ``"service:<name>"`` descends into the
    node's ``service_map`` (and the atom is skipped when the node does not
    run that service); every other component is a plain attribute lookup.
    """

    kind: str
    pid: ProcessId
    path: Tuple[str, ...] = ()
    key: Any = None
    value: Any = None

    def describe(self) -> str:
        """Compact human-readable form (used in shrunk reproducers)."""
        if self.kind == "channel":
            return f"channel {self.pid}->{self.key}: stuff {self.value!r}"
        location = ".".join(self.path)
        if self.kind == "entry":
            return f"node {self.pid}: {location}[{self.key!r}] = {self.value!r}"
        return f"node {self.pid}: {location}.{self.key} = {self.value!r}"


def _resolve_path(node: Any, path: Tuple[str, ...]) -> Any:
    """Walk *path* from *node*; ``None`` when any component is missing."""
    target = node
    for component in path:
        if component.startswith("service:"):
            target = node.service_map.get(component[len("service:"):])
        else:
            target = getattr(target, component, None)
        if target is None:
            return None
    return target


class FaultInjector:
    """Injects state corruption, stale packets and treason into a simulation."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self.records: List[FaultRecord] = []

    # -------------------------------------------------------- state corruption
    def apply_atom(self, cluster: Any, atom: CorruptionAtom) -> bool:
        """Apply one :class:`CorruptionAtom` against *cluster*.

        Returns ``True`` when the corruption landed (the node exists and is
        alive, the path resolves to an existing field, the channel had room).
        Every applied atom is recorded like any other injection, so
        post-mortem analysis sees crashes, corruption and treason uniformly.
        """
        if atom.kind == "channel":
            return self.stuff_channel(atom.pid, atom.key, atom.value)
        node = cluster.nodes.get(atom.pid)
        if node is None or node.crashed or not node.started:
            return False
        target = _resolve_path(node, atom.path)
        if target is None:
            return False
        if atom.kind == "attr":
            # A transient fault rewrites variables the protocol has; an atom
            # naming a field that no longer exists must show up as skipped,
            # not become a junk attribute nothing reads.
            if not hasattr(target, atom.key):
                return False
            setattr(target, atom.key, atom.value)
            self._record(
                "corrupt", f"{type(target).__name__}.{atom.key}", {"value": repr(atom.value)}
            )
        elif atom.kind == "entry":
            # MutableMapping (not just dict): the failure detector's
            # ``counts`` is an offset-encoded mapping view, and its entries
            # remain a legitimate corruption surface.
            if not isinstance(target, (dict, MutableMapping)):
                return False
            target[atom.key] = atom.value
            self._record("corrupt-entry", atom.key, {"value": repr(atom.value)})
        else:
            raise SimulationError(f"unknown corruption-atom kind {atom.kind!r}")
        # State was mutated behind the node's back: the incremental
        # convergence ledger must re-examine this node at the next check.
        cluster.invalidate_convergence(atom.pid)
        return True

    def apply_plan(
        self, cluster: Any, atoms: Iterable[CorruptionAtom]
    ) -> Dict[str, int]:
        """Apply every atom in order; report how many landed vs were skipped."""
        applied = skipped = 0
        for atom in atoms:
            if self.apply_atom(cluster, atom):
                applied += 1
            else:
                skipped += 1
        return {"applied": applied, "skipped": skipped}

    # ------------------------------------------------------------ byzantine
    def make_byzantine(self, cluster: Any, pid: ProcessId, program: Any) -> bool:
        """Turn node *pid* into an active adversary running *program*.

        *program* is a :class:`~repro.audit.byzantine.TraitorProgram` (duck-
        typed here to keep the fault layer free of audit imports): activation
        registers it as the simulator's outbound interceptor for *pid* and
        starts its spontaneous-traffic tick.  Recorded like every other
        injection, so post-mortems see crashes, corruption and treason
        uniformly.  Returns ``False`` for dead/unknown nodes.
        """
        node = cluster.nodes.get(pid)
        if node is None or node.crashed or not node.started:
            return False
        program.activate()
        self._record(
            "byzantine", pid, {"behaviors": list(program.behavior_names)}
        )
        return True

    def restore_honest(self, pid: ProcessId) -> None:
        """End *pid*'s Byzantine window: stop intercepting its traffic.

        The node resumes honest execution of whatever state it holds; it
        stays marked in ``cluster.byzantine_pids`` because its local state
        carries no guarantees.
        """
        interceptors = getattr(self.simulator, "outbound_interceptors", {})
        program = interceptors.get(pid)
        if program is not None:
            program.deactivate()
            self._record("byzantine-end", pid)

    # ------------------------------------------------------------- channels
    def stuff_channel(self, source: ProcessId, destination: ProcessId, payload: Any) -> bool:
        """Inject a stale packet into the channel source→destination."""
        accepted = self.simulator.network.stuff_channel(source, destination, payload)
        self._record("stuff-channel", (source, destination), {"accepted": accepted})
        return accepted

    # ------------------------------------------------------------- internals
    def _record(self, kind: str, target: Any, details: Optional[Dict[str, Any]] = None) -> None:
        self.records.append(
            FaultRecord(time=self.simulator.now, kind=kind, target=target, details=details or {})
        )
