"""Invariant monitoring and convergence tracking.

Two kinds of observers are provided:

* :class:`InvariantMonitor` — evaluates named predicates over the whole
  system after every executed event and records each violation interval.
  The safety properties of the paper's theorems
  (e.g. "no two participants hold different non-⊥ configurations after
  convergence") are expressed as such predicates in the test-suite.

* :class:`ConvergenceTracker` — watches a predicate and records the first
  simulated time (and event index) at which it becomes true and *stays* true,
  which is how the benchmark harness measures convergence times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.sim.simulator import Simulator


@dataclass
class Violation:
    """A recorded invariant-violation *interval*.

    One record covers a maximal run of consecutive executed events during
    which the predicate stayed false: ``time``/``event_index`` mark the first
    violating step, ``last_time``/``last_event_index`` the most recent one,
    and ``count`` how many executed events the interval spans.  Recording
    false→true transitions instead of one record per step keeps the monitor's
    memory proportional to the number of flips, not O(executed_events) on a
    long chaotic run where a predicate is false for millions of steps.
    """

    time: float
    event_index: int
    name: str
    details: str = ""
    last_time: float = 0.0
    last_event_index: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.last_time < self.time:
            self.last_time = self.time
        if self.last_event_index < self.event_index:
            self.last_event_index = self.event_index

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (used by scenario results / audit verdicts)."""
        return {
            "name": self.name,
            "first_time": self.time,
            "first_event": self.event_index,
            "last_time": self.last_time,
            "last_event": self.last_event_index,
            "count": self.count,
            "details": self.details,
        }


class InvariantMonitor:
    """Evaluate named system-wide predicates after every simulator step."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self.predicates: Dict[str, Callable[[], bool]] = {}
        self.violations: List[Violation] = []
        self._open: Dict[str, Violation] = {}
        simulator.add_post_step_hook(self._check)

    def add_invariant(self, name: str, predicate: Callable[[], bool]) -> None:
        """Register *predicate*; it must return True whenever the invariant holds."""
        self.predicates[name] = predicate

    def ok(self) -> bool:
        """True when no violation has been recorded."""
        return not self.violations

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable summary of every recorded interval."""
        return {
            "ok": self.ok(),
            "intervals": [violation.as_dict() for violation in self.violations],
        }

    def _check(self, simulator: Simulator) -> None:
        open_intervals = self._open
        for name, predicate in self.predicates.items():
            try:
                holds = predicate()
            except Exception as exc:  # pragma: no cover - defensive
                holds = False
                detail = f"predicate raised {exc!r}"
            else:
                detail = ""
            if holds:
                # Close the interval (if any): the next false step opens a new
                # one, so flapping predicates record one interval per flap.
                open_intervals.pop(name, None)
                continue
            interval = open_intervals.get(name)
            if interval is None:
                interval = Violation(
                    time=simulator.now,
                    event_index=simulator.executed_events,
                    name=name,
                    details=detail,
                )
                open_intervals[name] = interval
                self.violations.append(interval)
            else:
                interval.last_time = simulator.now
                interval.last_event_index = simulator.executed_events
                interval.count += 1


class ConvergenceTracker:
    """Record when a predicate first becomes (and stays) true.

    ``stabilization_time`` is the time of the *last* transition from false to
    true — i.e. the start of the suffix during which the predicate held
    continuously until the end of the run.  This matches the paper's notion
    of an execution suffix belonging to the set of legal executions.

    ``poll_interval`` > 0 samples the predicate on that sim-time cadence
    instead of after every executed event: every recorded transition time
    coarsens by at most one interval, in exchange for dropping the
    per-event predicate cost (prohibitive for large topologies: an n = 128
    bootstrap executes ~24 000 events per simulated unit, and each pays a
    cluster-wide scan).
    """

    def __init__(
        self,
        simulator: Simulator,
        predicate: Callable[[], bool],
        name: str = "",
        poll_interval: float = 0.0,
    ) -> None:
        self.simulator = simulator
        self.predicate = predicate
        self.name = name or "convergence"
        self.poll_interval = poll_interval
        self._next_poll = 0.0
        self.first_true_time: Optional[float] = None
        self.first_true_event: Optional[int] = None
        self.last_transition_time: Optional[float] = None
        self.currently_true = False
        self.transition_count = 0
        simulator.add_post_step_hook(self._observe)

    def _observe(self, simulator: Simulator) -> None:
        if self.poll_interval > 0.0:
            if simulator.now < self._next_poll:
                return
            self._next_poll = simulator.now + self.poll_interval
        self.flush()

    def flush(self) -> None:
        """Evaluate the predicate now, regardless of the poll cadence.

        Called on every sample, and again by :meth:`summary` so a throttled
        tracker's final verdict reflects the end-of-run state rather than
        the last scheduled sample (a run routinely ends mid-interval).
        """
        simulator = self.simulator
        holds = bool(self.predicate())
        if holds and not self.currently_true:
            self.transition_count += 1
            if self.first_true_time is None:
                self.first_true_time = simulator.now
                self.first_true_event = simulator.executed_events
            self.last_transition_time = simulator.now
        self.currently_true = holds

    @property
    def stabilization_time(self) -> Optional[float]:
        """Time at which the predicate last became true (and stayed true)."""
        if not self.currently_true:
            return None
        return self.last_transition_time

    def summary(self) -> Dict[str, Any]:
        """Dictionary summary used by the benchmark reporting helpers."""
        self.flush()
        return {
            "name": self.name,
            "converged": self.currently_true,
            "first_true_time": self.first_true_time,
            "stabilization_time": self.stabilization_time,
            "transitions": self.transition_count,
        }
