"""Views: counter-identified member sets used by the virtual-synchrony layer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.common.codec import wire_type
from repro.common.types import ProcessId
from repro.counters.counter import Counter, counter_less_than


@wire_type
@dataclass(frozen=True)
class View:
    """A view ``⟨ID, set⟩``: a unique identifier plus the member set.

    The identifier is a :class:`~repro.counters.counter.Counter` obtained from
    the counter-increment algorithm, so view identifiers are totally ordered
    whenever their epoch labels are comparable (which, after the labeling
    scheme converges, is always the case).
    """

    view_id: Counter
    members: FrozenSet[ProcessId]

    @property
    def coordinator(self) -> ProcessId:
        """The member that created (wrote) the view identifier."""
        return self.view_id.wid


def newer_view(a: Optional[View], b: Optional[View]) -> Optional[View]:
    """Return the view with the larger identifier (None-safe)."""
    if a is None:
        return b
    if b is None:
        return a
    if counter_less_than(a.view_id, b.view_id):
        return b
    return a
