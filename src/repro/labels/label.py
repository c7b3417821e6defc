"""Epoch labels: a bounded replacement for unbounded epoch counters.

The construction follows the bounded labeling scheme the paper inherits from
its reference [11] (and ultimately from practically-self-stabilizing bounded
counters): a label is a triple

    ``⟨lCreator, sting, antistings⟩``

where ``sting`` is an integer from a bounded domain and ``antistings`` is a
bounded set of integers from the same domain.  Labels are compared with the
partial order ``≺lb``:

* labels by different creators are ordered by creator identifier (the paper:
  "any two labels are compared first as to their creator identifier");
* labels by the same creator are ordered by the sting/antistings rule —
  ``a ≺ b`` iff ``a.sting ∈ b.antistings`` and ``b.sting ∉ a.antistings`` —
  and may be **incomparable**, which is precisely what lets a creator issue a
  label greater than every label it currently knows (``nextLabel``), even
  after transient faults fabricated arbitrary labels bearing its identifier.

The domain is sized so that ``nextLabel`` always succeeds as long as the
number of known labels does not exceed ``antisting_capacity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence

from repro.common.codec import wire_type
from repro.common.types import ProcessId

#: Default number of antistings a label carries; must be at least the number
#: of labels that can simultaneously exist in the system for ``nextLabel`` to
#: dominate all of them.
DEFAULT_ANTISTING_CAPACITY = 64

#: Default sting domain size.  Must exceed the antisting capacity so a fresh
#: sting outside every known antisting set always exists.
DEFAULT_DOMAIN_SIZE = DEFAULT_ANTISTING_CAPACITY ** 2 + 1


@wire_type
@dataclass(frozen=True)
class EpochLabel:
    """A bounded epoch label ``⟨lCreator, sting, antistings⟩``."""

    creator: ProcessId
    sting: int
    antistings: FrozenSet[int]

    def sort_key(self) -> tuple:
        """Deterministic tie-break key (NOT the semantic ``≺lb`` order)."""
        return (self.creator, self.sting, tuple(sorted(self.antistings)))


@wire_type
@dataclass(frozen=True)
class LabelPair:
    """A label together with its (possible) canceling label ``⟨ml, cl⟩``.

    ``cl is None`` means the label is *legitimate* (not canceled); otherwise
    ``cl`` records a label that is not dominated by ``ml``, which is the
    evidence used to cancel ``ml``.
    """

    ml: EpochLabel
    cl: Optional[EpochLabel] = None

    @property
    def legit(self) -> bool:
        """True when the label has not been canceled."""
        return self.cl is None

    def cancel(self, evidence: EpochLabel) -> "LabelPair":
        """Return a canceled copy of this pair, keeping existing evidence."""
        if self.cl is not None:
            return self
        return LabelPair(ml=self.ml, cl=evidence)


def label_less_than(a: EpochLabel, b: EpochLabel) -> bool:
    """The ``≺lb`` partial order.

    Different creators: ordered by creator identifier.  Same creator: the
    sting/antistings rule; returns False for incomparable pairs (neither
    ``a ≺ b`` nor ``b ≺ a``).
    """
    if a == b:
        return False
    if a.creator != b.creator:
        return a.creator < b.creator
    return a.sting in b.antistings and b.sting not in a.antistings


def max_label(labels: Iterable[EpochLabel]) -> Optional[EpochLabel]:
    """A maximal element of *labels* under ``≺lb`` (None for an empty input).

    With a partial order there may be several maximal elements; the one with
    the greatest deterministic sort key among them is returned so that every
    processor holding the same set picks the same label.
    """
    # Equal labels are interchangeable, and in steady state every member
    # reports the same one: keep the first of each before the O(k^2) scan.
    candidates: List[EpochLabel] = list(dict.fromkeys(labels))
    if not candidates:
        return None
    if len(candidates) == 1:
        return candidates[0]
    maximal = [
        a
        for a in candidates
        if not any(label_less_than(a, b) for b in candidates if b != a)
    ]
    return max(maximal, key=lambda lbl: lbl.sort_key())


def next_label(
    creator: ProcessId,
    known: Sequence[EpochLabel],
    domain_size: int = DEFAULT_DOMAIN_SIZE,
    antisting_capacity: int = DEFAULT_ANTISTING_CAPACITY,
) -> EpochLabel:
    """``nextLabel()``: a label by *creator* greater than every label in *known*.

    The new label's antistings contain every known sting (so every known
    label of the same creator becomes smaller), and its sting is chosen
    outside every known antisting set (so no known label dominates it).

    Raises ``ValueError`` when the bounded domain cannot accommodate the
    request — which only happens if the caller exceeded the capacity the
    store enforces.
    """
    known = list(known)
    stings = {lbl.sting for lbl in known}
    blocked = set()
    for lbl in known:
        blocked |= set(lbl.antistings)
    blocked |= stings
    fresh_sting = None
    for candidate in range(domain_size):
        if candidate not in blocked:
            fresh_sting = candidate
            break
    if fresh_sting is None:
        raise ValueError(
            "label domain exhausted: increase domain_size or reduce the "
            "number of concurrently stored labels"
        )
    antistings = set(list(stings)[:antisting_capacity])
    return EpochLabel(creator=creator, sting=fresh_sting, antistings=frozenset(antistings))
