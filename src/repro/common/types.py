"""Core value types shared by every layer of the reproduction.

The paper (Section 2) works with a totally-ordered set of processor
identifiers ``P``, quorum configurations (sets of processors), and a handful
of sentinel values:

* ``⊥`` ("bottom") — the empty / null value a processor assigns to its
  configuration while a *reset* (brute-force stabilization) is in progress.
* ``]`` — the marker meaning "this processor is **not a participant**".

We model processor identifiers as plain integers (they only need to be
hashable and totally ordered), configurations as frozensets of identifiers,
and the sentinels as module-level singletons so that identity comparison
(``value is NOT_PARTICIPANT``) is unambiguous and cannot collide with a real
configuration value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Collection, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.common.codec import register_singleton, wire_enum, wire_type


ProcessId = int
"""A processor identifier, drawn from the totally ordered set ``P``."""

Configuration = FrozenSet[ProcessId]
"""A quorum configuration: an immutable set of processor identifiers."""


class _Sentinel:
    """A named singleton sentinel with stable repr and identity semantics."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self._name

    def __reduce__(self):
        # Preserve singleton identity across pickling and copying (snapshots
        # pickle whole process states).
        return (_lookup_sentinel, (self._name,))


def _lookup_sentinel(name: str) -> "_Sentinel":
    return {"NOT_PARTICIPANT": NOT_PARTICIPANT, "BOTTOM": BOTTOM}[name]


NOT_PARTICIPANT = register_singleton("NOT_PARTICIPANT", _Sentinel("NOT_PARTICIPANT"))
"""The paper's ``]`` marker: the processor is not (yet) a participant."""

BOTTOM = register_singleton("BOTTOM", _Sentinel("BOTTOM"))
"""The paper's ``⊥`` value: no value / configuration reset in progress."""


#: :func:`canonical` empties its table at this many entries (an n = 128
#: bootstrap and 8 su window intern about 800 sets).
CANONICAL_BOUND = 2048

_canonical: Dict[FrozenSet[ProcessId], FrozenSet[ProcessId]] = {}


def canonical(members: FrozenSet[ProcessId]) -> FrozenSet[ProcessId]:
    """One shared object per set value (and iteration order): a pure memo.

    ``frozenset.__eq__`` has no identity shortcut: sets built through here
    let per-peer checks compare ``a is b or a == b`` in O(1).  A held object
    is handed back only when it iterates in the same order as *members*
    (equal sets can iterate differently, and callers iterate these sets in
    send order), so the result differs from *members* in identity alone.
    The table is emptied at :data:`CANONICAL_BOUND` entries.
    """
    held = _canonical.get(members)
    if held is None:
        if len(_canonical) >= CANONICAL_BOUND:
            _canonical.clear()
        _canonical[members] = members
        return members
    if held is members or tuple(held) == tuple(members):
        return held
    return members


def make_config(members: Iterable[ProcessId]) -> Configuration:
    """Build a :data:`Configuration` (the :func:`canonical` object) from ids."""
    return canonical(frozenset(members))


def majority_size(config: Collection[ProcessId]) -> int:
    """The size of a majority quorum of *config*, ``floor(|config|/2) + 1``.

    The paper's quorum system (Section 2): recMA's majority test (Algorithm
    3.2, line 12) and the counters' read and write phases use this one rule.
    """
    return len(config) // 2 + 1


def is_majority(subset: Iterable[ProcessId], config: Iterable[ProcessId]) -> bool:
    """Return ``True`` when *subset* contains a majority of *config*."""
    config_set = frozenset(config)
    return len(frozenset(subset) & config_set) >= majority_size(config_set)


@wire_enum
class Phase(enum.IntEnum):
    """The three phases of the delicate configuration-replacement automaton.

    Figure 2 of the paper: phase 0 monitors for stale information, phase 1
    converges on a single proposal, phase 2 replaces the configuration with
    the selected proposal and returns to phase 0.
    """

    IDLE = 0
    SELECT = 1
    REPLACE = 2


@wire_type
@dataclass(frozen=True, order=False)
class Proposal:
    """A configuration-replacement notification ``prp = ⟨phase, set⟩``.

    ``set`` is ``None`` for "no value" (the paper's ``⊥``) and otherwise a
    :data:`Configuration`.  Proposals are ordered by :meth:`sort_key`,
    lexicographically: first by phase, then by the proposed set (sets
    ordered as sorted tuples of ids), exactly as the paper's ``maxNtf()``
    macro requires.
    """

    phase: Phase
    members: Optional[Configuration]

    def sort_key(self) -> Tuple[int, Tuple[ProcessId, ...]]:
        """Key implementing the paper's ``≤lex`` order on notifications."""
        members_key: Tuple[ProcessId, ...]
        if self.members is None:
            members_key = ()
        else:
            members_key = tuple(sorted(self.members))
        return (int(self.phase), members_key)

    @property
    def is_default(self) -> bool:
        """True for the default ("no proposal") notification ``⟨0, ⊥⟩``."""
        return self.phase is Phase.IDLE and self.members is None


DEFAULT_PROPOSAL = Proposal(phase=Phase.IDLE, members=None)
"""The paper's ``dfltNtf = ⟨0, ⊥⟩`` constant."""
