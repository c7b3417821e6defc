"""The channel adversary's link model: what shapes a directed pair, on either host.

The paper's channels (Section 2) may lose, duplicate, delay and reorder
packets, and the adversary varies how over time.  :class:`LinkModel` is the
one owner of that policy, and both hosts read it: the simulator's
:class:`~repro.sim.network.Network` extends it with its channels, and the
asyncio transport (:class:`~repro.runtime.transport.AsyncioTransport`) holds
one as its ``network``.  It keeps:

* **link rules** — an ordered stack of named :data:`LinkRule` callables over
  :attr:`LinkModel.default_config`.  A pair's config is the answer of the
  most recently pushed rule that does not defer (:meth:`LinkModel.rule_for`),
  else the default (:meth:`LinkModel.config_for`).  A rule answers for every
  pair, existing or not, so a processor joining mid-run is shaped by
  whatever rule is active;
* **partitions** — named, directed and optionally leaky: one-way blocks,
  per-partition heal, and a leak probability that lets an occasional packet
  cross (fair communication holds whenever every blocking partition leaks).
  Leak draws come from the ``"environment"`` stream;
* **the transition log** — every push, pop, partition and heal, stamped with
  the ``now`` of the model's clock, so a result can report what the
  adversary did and when.

The default config is what the simulator shapes an unruled pair with; the
live transport leaves an unruled pair alone (localhost is its channel).

:func:`draw_copies` is the accept rule both hosts apply to a shaped packet,
in draw order: the loss draw, the delay draw, the duplicate draw, then the
duplicate's own delay draw.  ``capacity``, ``delay_quantum`` and the
broadcast stream of a ``send_many`` burst are the simulator's alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.rng import make_rng
from repro.common.types import ProcessId
from repro.node.config import ChannelConfig

LinkKey = Tuple[ProcessId, ProcessId]
#: A link rule: the config of a directed pair, or ``None`` to defer to the
#: rule underneath (and finally to the default).  Rules are part of a
#: simulated run's state, so they must pickle (snapshot/restore) and be pure
#: per pair (the simulator's route table keeps each answer until the stack
#: changes).
LinkRule = Callable[[ProcessId, ProcessId], Optional[ChannelConfig]]

#: How many transition records :meth:`LinkModel.summary` keeps verbatim; the
#: per-kind counts are always exact.
MAX_RECORDED_TRANSITIONS = 256


def draw_delay(config: ChannelConfig, rng: Any, now: float) -> float:
    """*now* plus a delay drawn uniformly from ``[min_delay, max_delay]`` (no
    draw when the bounds coincide): ``random.uniform``'s own arithmetic,
    without its call."""
    low = config.min_delay
    high = config.max_delay
    if high <= low:
        return now + low
    return now + (low + (high - low) * rng.random())


def draw_copies(config: ChannelConfig, rng: Any, now: float = 0.0) -> Tuple[float, ...]:
    """The accept rule of one packet sent at *now*: the arrival instants of
    the copies that travel, drawn from *rng*.

    A lost packet (loss draw) has none; a kept one has its delay (delay
    draw) and, when it is duplicated (duplicate draw), a second copy with
    its own delay.
    """
    loss = config.loss_probability
    if loss and rng.random() < loss:
        return ()
    first = draw_delay(config, rng, now)
    duplicate = config.duplicate_probability
    if duplicate and rng.random() < duplicate:
        return (first, draw_delay(config, rng, now))
    return (first,)


class LinkModel:
    """The link rules, partitions and transition log of one cluster.

    *clock* is any object with a ``now`` attribute (the simulator, the
    transport); it is held as an object, not a bound method, so a snapshot
    pickles it with the graph.  It may be set after construction, as long
    as that happens before the first transition is recorded.
    """

    def __init__(
        self,
        default_config: Optional[ChannelConfig] = None,
        seed: int = 0,
        clock: Any = None,
    ) -> None:
        self.default_config = default_config or ChannelConfig()
        self._clock = clock
        # Link rules by name, in push order (the last one is asked first).
        self._rules: Dict[str, LinkRule] = {}
        # Named directed partitions: name -> {link: leak probability}, plus
        # the per-link view the send paths read.
        self._partitions: Dict[str, Dict[LinkKey, float]] = {}
        self._blocked: Dict[LinkKey, Dict[str, float]] = {}
        self._partition_counter = 0
        self._leak_rng = make_rng(seed, "environment")
        self.transition_counts: Dict[str, int] = {}
        self.transitions: List[Dict[str, Any]] = []

    def _changed(self) -> None:
        """Called whenever the rule stack changes (a subclass that caches
        configs empties its cache here)."""

    # ------------------------------------------------------------------
    # Link rules
    # ------------------------------------------------------------------
    def push_rule(self, name: str, rule: LinkRule) -> None:
        """Push *rule* on top of the stack, replacing any rule named *name*."""
        self._rules.pop(name, None)
        self._rules[name] = rule
        self._changed()
        self.record("rule", name=name)

    def pop_rule(self, name: str) -> bool:
        """Pop the rule named *name*, restoring the rules underneath; return
        whether there was one."""
        if self._rules.pop(name, None) is None:
            return False
        self._changed()
        self.record("rule_popped", name=name)
        return True

    def rule_for(self, source: ProcessId, destination: ProcessId) -> Optional[ChannelConfig]:
        """The most recent rule's answer for the directed pair that is not
        ``None``; ``None`` when no rule answers."""
        for rule in reversed(self._rules.values()):
            config = rule(source, destination)
            if config is not None:
                return config
        return None

    def config_for(self, source: ProcessId, destination: ProcessId) -> ChannelConfig:
        """The config of the directed pair: :meth:`rule_for`, else the default."""
        return self.rule_for(source, destination) or self.default_config

    # ------------------------------------------------------------------
    # Partitions: named, directed, leaky
    # ------------------------------------------------------------------
    def block_links(
        self,
        links: Iterable[LinkKey],
        name: Optional[str] = None,
        leak: float = 0.0,
    ) -> str:
        """Block the given directed links under one named partition."""
        if not 0.0 <= leak < 1.0:
            raise SimulationError("partition leak probability must be in [0, 1)")
        if name is None:
            self._partition_counter += 1
            name = f"partition-{self._partition_counter}"
        entry = self._partitions.setdefault(name, {})
        for source, destination in links:
            if source == destination:
                continue
            key = (source, destination)
            entry[key] = leak
            self._blocked.setdefault(key, {})[name] = leak
        # Partitions gate delivery (``permits``) but do not change a pair's
        # config, so they do not call ``_changed``.
        self.record("partition", name=name, links=len(entry), leak=leak)
        return name

    def partition(
        self,
        group_a: Iterable[ProcessId],
        group_b: Iterable[ProcessId],
        name: Optional[str] = None,
        leak: float = 0.0,
        symmetric: bool = True,
    ) -> str:
        """Partition two groups; ``symmetric=False`` blocks only a→b links.

        Returns the partition's name, the handle :meth:`heal` takes: several
        partitions coexist and heal independently.
        """
        group_b = list(group_b)
        links: List[LinkKey] = []
        for a in group_a:
            for b in group_b:
                if a == b:
                    continue
                links.append((a, b))
                if symmetric:
                    links.append((b, a))
        return self.block_links(links, name=name, leak=leak)

    def isolate(
        self,
        pid: ProcessId,
        peers: Iterable[ProcessId],
        name: Optional[str] = None,
        leak: float = 0.0,
    ) -> str:
        """Block every link between *pid* and *peers*, both directions."""
        return self.partition([pid], [p for p in peers if p != pid], name=name, leak=leak)

    def heal(self, name: Optional[str] = None) -> int:
        """Heal the named partition (or every partition); return links freed."""
        names = [name] if name is not None else list(self._partitions)
        freed = 0
        for partition_name in names:
            entry = self._partitions.pop(partition_name, None)
            if entry is None:
                continue
            for key in entry:
                blockers = self._blocked.get(key)
                if blockers is not None:
                    blockers.pop(partition_name, None)
                    if not blockers:
                        del self._blocked[key]
            freed += len(entry)
            self.record("heal", name=partition_name, links=len(entry))
        return freed

    def permits(self, source: ProcessId, destination: ProcessId) -> bool:
        """Whether a packet may currently travel the directed pair.

        A blocked pair still passes a packet with probability equal to the
        *product* of the blocking partitions' leak probabilities (the packet
        must leak through every one); any leak-free blocker drops everything.
        """
        blockers = self._blocked.get((source, destination))
        if not blockers:
            return True
        passthrough = 1.0
        for leak in blockers.values():
            if leak <= 0.0:
                return False
            passthrough *= leak
        return self._leak_rng.random() < passthrough

    # ------------------------------------------------------------------
    # Transition log
    # ------------------------------------------------------------------
    def record(self, kind: str, **details: Any) -> None:
        """Record one transition (exact count, bounded detail)."""
        self.transition_counts[kind] = self.transition_counts.get(kind, 0) + 1
        if len(self.transitions) < MAX_RECORDED_TRANSITIONS:
            self.transitions.append({"time": self._clock.now, "kind": kind, **details})

    @property
    def transition_count(self) -> int:
        """Total number of recorded transitions (exact)."""
        return sum(self.transition_counts.values())

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable view of the transitions of a run."""
        return {
            "transitions": self.transition_count,
            "by_kind": dict(sorted(self.transition_counts.items())),
            "active_partitions": sorted(self._partitions),
            "events": [dict(entry) for entry in self.transitions],
        }
