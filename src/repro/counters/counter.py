"""Counter values ``⟨label, seqn, wid⟩`` and the ``≺ct`` order (Section 4.2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.common.codec import wire_type
from repro.common.types import ProcessId
from repro.labels.label import EpochLabel, label_less_than

#: The paper's practically-inexhaustible sequence-number bound (``2^64``).
DEFAULT_SEQN_BOUND = 2 ** 64


@wire_type
@dataclass(frozen=True)
class Counter:
    """A counter value: an epoch label, a sequence number, and its writer."""

    label: EpochLabel
    seqn: int
    wid: ProcessId

    def sort_key(self) -> tuple:
        """Deterministic tie-break key (not the semantic ``≺ct`` order)."""
        return (self.label.sort_key(), self.seqn, self.wid)

    def is_exhausted(self, bound: int = DEFAULT_SEQN_BOUND) -> bool:
        """``exhausted()``: the sequence number reached the bound."""
        return self.seqn >= bound

    def next(self, writer: ProcessId) -> "Counter":
        """The counter *writer* obtains by incrementing this one."""
        return Counter(label=self.label, seqn=self.seqn + 1, wid=writer)


@wire_type
@dataclass(frozen=True)
class CounterPair:
    """A counter plus its (possible) canceling counter ``⟨mct, cct⟩``."""

    mct: Counter
    cct: Optional[Counter] = None

    @property
    def legit(self) -> bool:
        """True when the counter's label has not been canceled."""
        return self.cct is None

    def cancel(self) -> "CounterPair":
        """``cancelExhausted()``: cancel this counter (with itself as evidence)."""
        if self.cct is not None:
            return self
        return CounterPair(mct=self.mct, cct=self.mct)


def counter_less_than(a: Counter, b: Counter) -> bool:
    """The ``≺ct`` order of Section 4.2.

    ``a ≺ct b`` iff the labels are ordered ``a.label ≺lb b.label``, or the
    labels are equal and ``(seqn, wid)`` is lexicographically smaller.
    Counters with incomparable labels are incomparable.
    """
    if label_less_than(a.label, b.label):
        return True
    if a.label != b.label:
        return False
    return (a.seqn, a.wid) < (b.seqn, b.wid)


def max_counter(counters: Iterable[Counter]) -> Optional[Counter]:
    """A maximal counter under ``≺ct`` (deterministic among incomparables)."""
    candidates: List[Counter] = list(counters)
    if not candidates:
        return None
    maximal = [
        a
        for a in candidates
        if not any(counter_less_than(a, b) for b in candidates if b != a)
    ]
    return max(maximal, key=lambda counter: counter.sort_key())
