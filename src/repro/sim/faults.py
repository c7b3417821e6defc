"""Transient-fault application.

The paper models transient faults as an *arbitrary starting state*: any
processor variable and any channel content may be corrupted (bounded by the
channel capacity).  A :class:`CorruptionAtom` is one such corruption —
a type-correct value written into a protocol-state field of a live process,
or a stale packet stuffed into a channel — and :func:`apply_plan` applies an
ordered list of them.

What to corrupt is decided elsewhere: :mod:`repro.audit.arbitrary_state`
generates seeded plans of atoms, and this module only applies them.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Tuple

from repro.common.errors import SimulationError
from repro.common.types import ProcessId


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


def apply_atom(cluster: Any, atom: CorruptionAtom) -> bool:
    """Apply one :class:`CorruptionAtom` against *cluster*.

    Returns ``True`` when the corruption landed (the node exists and is
    alive, the path resolves to an existing field, the channel had room).
    """
    if atom.kind == "channel":
        return cluster.simulator.network.stuff_channel(atom.pid, atom.key, atom.value)
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
    elif atom.kind == "entry":
        # MutableMapping (not just dict): the failure detector's
        # ``counts`` is an offset-encoded mapping view, and its entries
        # remain a legitimate corruption surface.
        if not isinstance(target, (dict, MutableMapping)):
            return False
        target[atom.key] = atom.value
    else:
        raise SimulationError(f"unknown corruption-atom kind {atom.kind!r}")
    # State was mutated behind the node's back: the incremental
    # convergence ledger must re-examine this node at the next check.
    cluster.invalidate_convergence(atom.pid)
    return True


def apply_plan(cluster: Any, atoms: Iterable[CorruptionAtom]) -> Dict[str, int]:
    """Apply every atom in order; report how many landed vs were skipped."""
    applied = skipped = 0
    for atom in atoms:
        if apply_atom(cluster, atom):
            applied += 1
        else:
            skipped += 1
    return {"applied": applied, "skipped": skipped}
