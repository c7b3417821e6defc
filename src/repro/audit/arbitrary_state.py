"""The arbitrary-state generator: the paper's full transient-fault model.

The paper defines a transient fault as an **arbitrary starting state**: every
processor variable and every channel may hold any type-correct value (channel
content bounded by the capacity ``cap``).  This module is the repo's one
fault vocabulary — every test, example, bench and scenario that corrupts
state or channels does it through a plan generated here — and it covers the
whole protocol state space:

* every replicated recSA array (``config``, ``prp``, ``fd``, ``part``,
  ``echo``, ``all``/``allSeen``) of every selected node,
* the recMA flag arrays and ``prev_config``,
* the failure detector's heartbeat-count vector (including its cache),
* the application services of the node's stack profile (labels, counters,
  virtual synchrony),
* channel stuffing with stale protocol packets of every wire type
  (recSA gossip, recMA flags, data-link tokens), up to channel capacity.

The generator emits a **plan** — an ordered list of
:class:`~repro.sim.faults.CorruptionAtom` values — instead of mutating state
directly.  A plan is a pure function of ``(cluster state, seed, profile)``,
so the audit harness can re-run subsets of it to shrink a violating run to a
minimal reproducer, and two runs of the same scenario seed produce the exact
same corruption.

One deliberate deviation from "fully arbitrary": the generator never flips
*every* node's own ``config`` entry to ``]`` (non-participant) at once.  The
joining mechanism (Algorithm 3.3) requires at least one configuration member
to answer ``Join`` requests — a system of joiners only is outside the paper's
model — so the lowest-pid selected node acts as an anchor whose own entry is
drawn from the participant-typed values (``⊥`` or a set).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, TYPE_CHECKING

from repro.common.rng import make_rng
from repro.common.types import (
    BOTTOM,
    NOT_PARTICIPANT,
    Phase,
    ProcessId,
    Proposal,
    make_config,
)
from repro.core.recma import RecMAMessage
from repro.core.recsa import EchoTriple, RecSAMessage
from repro.datalink.token_exchange import DataLinkMessage
from repro.sim.faults import CorruptionAtom
from repro.vs.virtual_synchrony import VSStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.node.node import ClusterNode
    from repro.sim.cluster import Cluster


@dataclass(frozen=True)
class CorruptionProfile:
    """Intensity knobs of the arbitrary-state generator.

    Attributes
    ----------
    node_fraction:
        Fraction of alive nodes whose state is corrupted (at least one).
    field_probability:
        Per-field probability that a given protocol-state entry is rewritten.
    channel_fraction:
        Fraction of directed channel pairs that receive stale packets.
    channel_fill:
        Fraction of each stuffed channel's capacity filled with stale
        packets (the paper's adversary is bounded by ``cap`` per channel).
    corrupt_services:
        Also corrupt stack-profile services (labels/counters/VS state).
    corrupt_failure_detector:
        Also corrupt the heartbeat-count vector and its trusted-set cache.
    """

    node_fraction: float = 1.0
    field_probability: float = 0.5
    channel_fraction: float = 0.3
    channel_fill: float = 0.5
    corrupt_services: bool = True
    corrupt_failure_detector: bool = True


DEFAULT_PROFILE = CorruptionProfile()

#: Named corruption intensities — the axis the audit harness sweeps when it
#: measures worst-case stabilization-time *distributions* against corruption
#: intensity (ROADMAP: "CorruptionProfile grid").  Kept coarse on purpose:
#: the grid multiplies with schedulers, stacks and seeds.
PROFILES: Dict[str, CorruptionProfile] = {
    "light": CorruptionProfile(
        node_fraction=0.4, field_probability=0.25, channel_fraction=0.1, channel_fill=0.25
    ),
    "default": DEFAULT_PROFILE,
    "heavy": CorruptionProfile(
        node_fraction=1.0, field_probability=0.9, channel_fraction=0.6, channel_fill=1.0
    ),
    # No transient corruption at all — the profile Byzantine-only audit
    # cases use, so the sole disturbance is the traitor program and any
    # violation is attributable to it alone.
    "none": CorruptionProfile(
        node_fraction=0.0,
        field_probability=0.0,
        channel_fraction=0.0,
        channel_fill=0.0,
        corrupt_services=False,
        corrupt_failure_detector=False,
    ),
    # Channel-only corruption: every node's state is left intact and only
    # in-flight packets are replaced with stale/garbled payloads — the
    # paper's bounded channel adversary (O(N^2 * cap) stale messages) in
    # isolation.  The large-n audit tier runs it alongside ``default`` to
    # separate the two recovery mechanisms: stale-packet absorption (no
    # reset needed) vs the global reset that node-state corruption
    # triggers.  Note both are only gateable at n >= 128 with the failure
    # detector's gap slack scaled to ~2n (``fd_gap_slack``); with the
    # default slack, suspicion churn makes *any* disturbance at that size
    # an endless reset storm.
    "channel_only": CorruptionProfile(
        node_fraction=0.0,
        field_probability=0.0,
        channel_fraction=0.25,
        channel_fill=0.5,
        corrupt_services=False,
        corrupt_failure_detector=False,
    ),
    # recSA + recMA variables of the selected nodes and nothing else (no
    # failure detector, no services, no channels): the reconfiguration
    # layer's own recovery in isolation, and the profile callers narrow with
    # ``dataclasses.replace(..., node_fraction=...)``.
    "scramble": CorruptionProfile(
        channel_fraction=0.0,
        channel_fill=0.0,
        corrupt_services=False,
        corrupt_failure_detector=False,
    ),
}


def get_profile(ref: Any) -> CorruptionProfile:
    """Resolve a profile by name (profiles pass through unchanged)."""
    if isinstance(ref, CorruptionProfile):
        return ref
    try:
        return PROFILES[ref]
    except KeyError:
        raise KeyError(
            f"unknown corruption profile {ref!r}; available: {sorted(PROFILES)}"
        ) from None


# ---------------------------------------------------------------------------
# Random type-correct values
# ---------------------------------------------------------------------------
def _random_members(rng: random.Random, universe: Sequence[ProcessId]) -> Any:
    size = rng.randint(1, max(1, len(universe)))
    return make_config(rng.sample(list(universe), size))


def random_config_value(
    rng: random.Random, universe: Sequence[ProcessId], allow_not_participant: bool = True
) -> Any:
    roll = rng.random()
    if roll < 0.15:
        return BOTTOM
    if roll < 0.30:
        return NOT_PARTICIPANT if allow_not_participant else BOTTOM
    if roll < 0.40:
        return frozenset()
    return _random_members(rng, universe)


def random_proposal(rng: random.Random, universe: Sequence[ProcessId]) -> Proposal:
    phase = Phase(rng.choice([0, 1, 2]))
    members = None if rng.random() < 0.3 else _random_members(rng, universe)
    return Proposal(phase=phase, members=members)


def _random_view(rng: random.Random, universe: Sequence[ProcessId]) -> Any:
    return frozenset(rng.sample(list(universe), rng.randint(1, len(universe))))


def _random_stale_payload(
    rng: random.Random, source: ProcessId, universe: Sequence[ProcessId]
) -> Any:
    """A stale protocol packet of a random wire type (type-correct fields)."""
    roll = rng.random()
    if roll < 0.4:
        echo = None
        if rng.random() < 0.5:
            echo = EchoTriple(
                part=_random_view(rng, universe),
                prp=random_proposal(rng, universe),
                all_flag=rng.random() < 0.5,
            )
        return RecSAMessage(
            sender=source,
            fd=_random_view(rng, universe),
            part=_random_view(rng, universe),
            config=random_config_value(rng, universe),
            prp=random_proposal(rng, universe),
            all_flag=rng.random() < 0.5,
            echo=echo,
        )
    if roll < 0.7:
        return RecMAMessage(
            sender=source,
            no_maj=rng.random() < 0.7,
            need_reconf=rng.random() < 0.7,
        )
    return DataLinkMessage(
        kind=rng.choice(["data", "ack", "clean", "clean-ack"]),
        link_sender=source,
        seq=rng.randint(0, 1),
    )


# ---------------------------------------------------------------------------
# Plan generation
# ---------------------------------------------------------------------------
def _recsa_atoms(
    node: "ClusterNode",
    universe: Sequence[ProcessId],
    rng: random.Random,
    probability: float,
    anchor: bool,
) -> List[CorruptionAtom]:
    pid = node.pid
    atoms: List[CorruptionAtom] = [
        # The own config entry is always rewritten (the canonical transient
        # fault); the anchor node never becomes a non-participant.
        CorruptionAtom(
            kind="entry",
            pid=pid,
            path=("recsa", "config"),
            key=pid,
            value=random_config_value(rng, universe, allow_not_participant=not anchor),
        )
    ]
    for other in universe:
        # The own entry was handled above (with the anchor guarantee); the
        # loop corrupts the replicated copies of every peer's state.
        if other != pid and rng.random() < probability:
            atoms.append(
                CorruptionAtom(
                    kind="entry",
                    pid=pid,
                    path=("recsa", "config"),
                    key=other,
                    value=random_config_value(rng, universe),
                )
            )
        if rng.random() < probability:
            atoms.append(
                CorruptionAtom(
                    kind="entry",
                    pid=pid,
                    path=("recsa", "prp"),
                    key=other,
                    value=random_proposal(rng, universe),
                )
            )
        if rng.random() < probability:
            atoms.append(
                CorruptionAtom(
                    kind="entry",
                    pid=pid,
                    path=("recsa", "all_flags"),
                    key=other,
                    value=rng.random() < 0.5,
                )
            )
        if rng.random() < probability:
            atoms.append(
                CorruptionAtom(
                    kind="entry",
                    pid=pid,
                    path=("recsa", "fd"),
                    key=other,
                    value=_random_view(rng, universe),
                )
            )
        if rng.random() < probability:
            atoms.append(
                CorruptionAtom(
                    kind="entry",
                    pid=pid,
                    path=("recsa", "part"),
                    key=other,
                    value=_random_view(rng, universe),
                )
            )
        if other != pid and rng.random() < probability:
            atoms.append(
                CorruptionAtom(
                    kind="entry",
                    pid=pid,
                    path=("recsa", "echo"),
                    key=other,
                    value=EchoTriple(
                        part=_random_view(rng, universe),
                        prp=random_proposal(rng, universe),
                        all_flag=rng.random() < 0.5,
                    ),
                )
            )
    atoms.append(
        CorruptionAtom(
            kind="attr",
            pid=pid,
            path=("recsa",),
            key="all_seen",
            value=set(rng.sample(list(universe), rng.randint(0, len(universe)))),
        )
    )
    return atoms


def _recma_atoms(
    node: "ClusterNode",
    universe: Sequence[ProcessId],
    rng: random.Random,
    probability: float,
) -> List[CorruptionAtom]:
    pid = node.pid
    atoms: List[CorruptionAtom] = []
    # ``universe`` already contains the node's own pid.
    for other in universe:
        if rng.random() < probability:
            atoms.append(
                CorruptionAtom(
                    kind="entry",
                    pid=pid,
                    path=("recma", "no_maj"),
                    key=other,
                    value=rng.random() < 0.7,
                )
            )
        if rng.random() < probability:
            atoms.append(
                CorruptionAtom(
                    kind="entry",
                    pid=pid,
                    path=("recma", "need_reconf"),
                    key=other,
                    value=rng.random() < 0.7,
                )
            )
    if rng.random() < probability:
        atoms.append(
            CorruptionAtom(
                kind="attr",
                pid=pid,
                path=("recma",),
                key="prev_config",
                value=None if rng.random() < 0.5 else _random_members(rng, universe),
            )
        )
    return atoms


def _failure_detector_atoms(
    node: "ClusterNode",
    universe: Sequence[ProcessId],
    rng: random.Random,
    probability: float,
) -> List[CorruptionAtom]:
    pid = node.pid
    atoms: List[CorruptionAtom] = []
    touched = False
    for other in universe:
        if other != pid and rng.random() < probability:
            atoms.append(
                CorruptionAtom(
                    kind="entry",
                    pid=pid,
                    path=("failure_detector", "counts"),
                    key=other,
                    value=rng.randint(0, 200),
                )
            )
            touched = True
    if touched:
        # The trusted-set cache is protocol state like any other variable; a
        # corrupted count vector must not be masked by a stale cache.
        atoms.append(
            CorruptionAtom(
                kind="attr",
                pid=pid,
                path=("failure_detector",),
                key="_trusted_cache_version",
                value=-1,
            )
        )
    return atoms


def _service_atoms(
    node: "ClusterNode",
    universe: Sequence[ProcessId],
    rng: random.Random,
    probability: float,
) -> List[CorruptionAtom]:
    pid = node.pid
    atoms: List[CorruptionAtom] = []
    for name in ("counters", "labels"):
        service = node.service_map.get(name)
        if service is None:
            continue
        # Forcing a store rebuild exercises the bounded-label recovery path.
        if rng.random() < probability:
            atoms.append(
                CorruptionAtom(
                    kind="attr",
                    pid=pid,
                    path=(f"service:{name}",),
                    key="_store_members",
                    value=None,
                )
            )
        if name != "counters":
            continue
        # Per-label sequence numbers get arbitrary (seqn, wid) values.
        for label in list(service.seqns):
            if rng.random() < probability:
                atoms.append(
                    CorruptionAtom(
                        kind="entry",
                        pid=pid,
                        path=("service:counters", "seqns"),
                        key=label,
                        value=(rng.randint(0, 2 ** 20), rng.choice(list(universe))),
                    )
                )
    vs = node.service_map.get("vs")
    if vs is not None:
        if rng.random() < probability:
            atoms.append(
                CorruptionAtom(
                    kind="attr",
                    pid=pid,
                    path=("service:vs",),
                    key="status",
                    value=rng.choice(list(VSStatus)),
                )
            )
        if rng.random() < probability:
            atoms.append(
                CorruptionAtom(
                    kind="attr",
                    pid=pid,
                    path=("service:vs",),
                    key="rnd",
                    value=rng.randint(0, 1 << 16),
                )
            )
        for flag in ("no_crd", "suspend", "reconf_ready"):
            if rng.random() < probability:
                atoms.append(
                    CorruptionAtom(
                        kind="attr",
                        pid=pid,
                        path=("service:vs",),
                        key=flag,
                        value=rng.random() < 0.5,
                    )
                )
        if rng.random() < probability:
            atoms.append(
                CorruptionAtom(
                    kind="attr",
                    pid=pid,
                    path=("service:vs",),
                    key="prop_view",
                    value=None,
                )
            )
    return atoms


def generate_plan(
    cluster: "Cluster",
    seed: int,
    profile: Any = DEFAULT_PROFILE,
) -> List[CorruptionAtom]:
    """Generate a seeded corruption plan over *cluster*'s current state.

    *profile* is a :class:`CorruptionProfile` or the name of a registered
    one.  Deterministic: the same cluster state, seed and profile produce the
    exact same atom list (nodes and channel pairs are visited in sorted order
    and every random draw comes from one derived RNG).
    """
    profile = get_profile(profile)
    rng = make_rng(seed, "arbitrary-state")
    universe = sorted(cluster.nodes)
    alive = [
        cluster.nodes[pid]
        for pid in universe
        if cluster.nodes[pid].started and not cluster.nodes[pid].crashed
    ]
    if not alive:
        return []
    if profile.node_fraction <= 0.0 and profile.channel_fraction <= 0.0:
        # The "none" profile: an empty plan, not "at least one node".
        return []
    shuffled = list(alive)
    rng.shuffle(shuffled)
    if profile.node_fraction <= 0.0:
        # Channel-only profiles corrupt no node state at all; the historical
        # "at least one node" floor applies only when nodes are in scope.
        selected = []
    else:
        selected = sorted(
            shuffled[: max(1, int(len(shuffled) * profile.node_fraction))],
            key=lambda node: node.pid,
        )
    anchor_pid = selected[0].pid if selected else None
    atoms: List[CorruptionAtom] = []
    for node in selected:
        atoms.extend(
            _recsa_atoms(
                node, universe, rng, profile.field_probability, anchor=node.pid == anchor_pid
            )
        )
        atoms.extend(_recma_atoms(node, universe, rng, profile.field_probability))
        if profile.corrupt_failure_detector:
            atoms.extend(
                _failure_detector_atoms(node, universe, rng, profile.field_probability)
            )
        if profile.corrupt_services:
            atoms.extend(_service_atoms(node, universe, rng, profile.field_probability))
    # Channel stuffing, bounded by capacity (Lemma 3.18's O(N^2 * cap)).
    fill = max(1, int(cluster.config.channel.capacity * profile.channel_fill))
    alive_pids = [node.pid for node in alive]
    for source in alive_pids:
        for destination in alive_pids:
            if source == destination:
                continue
            if rng.random() >= profile.channel_fraction:
                continue
            for _ in range(fill):
                atoms.append(
                    CorruptionAtom(
                        kind="channel",
                        pid=source,
                        key=destination,
                        value=_random_stale_payload(rng, source, universe),
                    )
                )
    return atoms


def plan_summary(atoms: Sequence[CorruptionAtom]) -> Dict[str, int]:
    """Count atoms by kind (the compact form stored in run verdicts)."""
    summary: Dict[str, int] = {}
    for atom in atoms:
        summary[atom.kind] = summary.get(atom.kind, 0) + 1
    return summary
