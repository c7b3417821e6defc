"""The time-varying network environment: link programs, partitions, leaks.

The paper's fair-communication model lets the channel adversary vary loss,
delay and reordering *over time*; historically the fabric only supported
static per-pair :class:`~repro.sim.network.ChannelConfig` overrides installed
once before the run, and a binary ``frozenset`` partition set that healed
all-or-nothing.  :class:`NetworkEnvironment` turns network conditions into a
first-class, programmable layer:

* **link state** — the effective :class:`ChannelConfig` of every directed
  pair is resolved through a stack of layers: tagged *overlays* (what dynamic
  adversaries push and pop mid-run) over explicit *overrides* (what the
  static schedulers install) over *link policies* (pair-keyed functions that
  shape channels created later, so **late joiners inherit the active
  shaping**) over the network default.  Resolution is *pull-based and
  memoized*: the network reads a channel's config through
  :meth:`config_for` once and keeps the channel in its route table until a
  layer mutation empties the table — the steady-state send path pays one
  dict lookup and a mutation is O(1) instead of a re-sync walk;
* **partitions** — *named*, *directed* and optionally *leaky*: one-way
  blocks, per-partition heal, and a leak probability that lets an occasional
  packet cross (fair communication is preserved whenever every blocking
  partition leaks);
* **time** — environment programs schedule their transitions as ordinary
  simulator events through :meth:`call_at`; every mutation is recorded as a
  transition (with the simulated timestamp) so scenario results can report
  what the environment did and when.

The environment is owned by the :class:`~repro.sim.network.Network` (which
consults it on every channel creation, after every mutation, and on every
send while a partition is installed) and bound to the
:class:`~repro.sim.simulator.Simulator`'s clock and event queue at simulator
construction.  Randomness (leak draws) comes from a dedicated seeded stream,
so installing a leak-free environment program never perturbs the delivery
schedule of an existing scenario.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.rng import make_rng
from repro.common.types import ProcessId

LinkKey = Tuple[ProcessId, ProcessId]
#: A pair-keyed shaping rule: return a config for the directed pair, or
#: ``None`` to let the next layer decide.
LinkPolicy = Callable[[ProcessId, ProcessId], Optional[Any]]

#: How many individual transition records :meth:`NetworkEnvironment.summary`
#: retains verbatim; counts are always exact regardless of this cap.
MAX_RECORDED_TRANSITIONS = 256

#: High-volume kinds counted exactly but kept out of the bounded record
#: list: a static installer emits one ``link_config`` per directed pair
#: (O(n²) identical t=0 entries), which would crowd the mid-run partition/
#: overlay/heal transitions the log exists to report.
UNLISTED_KINDS = frozenset({"link_config"})


class NetworkEnvironment:
    """Programmable, time-varying state of the network fabric."""

    def __init__(self, default_config: Any, seed: int = 0) -> None:
        self.default_config = default_config
        self._seed = seed
        self._rng = make_rng(seed, "environment")
        # Link-state layers, most specific first at resolution time:
        # overlays (last pushed wins) > overrides > policies > default.
        self._overlays: Dict[str, Dict[LinkKey, Any]] = {}
        self._overrides: Dict[LinkKey, Any] = {}
        self._policies: List[Tuple[str, LinkPolicy]] = []
        # Named directed partitions: name -> {link: leak_probability}, plus
        # the per-link view used on the send hot path.
        self._partitions: Dict[str, Dict[LinkKey, float]] = {}
        self._blocked: Dict[LinkKey, Dict[str, float]] = {}
        self._partition_counter = 0
        # Binding (installed by Network / Simulator).  The timeline is the
        # simulator object itself (``.now`` / ``.call_at``) rather than a
        # pair of captured closures, so snapshot/restore (repro.sim.snapshot)
        # remaps it together with the rest of the graph.
        self._network: Optional[Any] = None
        self._timeline: Optional[Any] = None
        # Transition log: exact counts plus a bounded list of records.
        self.transition_counts: Dict[str, int] = {}
        self.transitions: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Bindings
    # ------------------------------------------------------------------
    def attach(self, network: Any) -> None:
        """Bind the owning network (done by ``Network.__init__``)."""
        self._network = network

    def bind_timeline(self, timeline: Any) -> None:
        """Bind the simulator (clock + ``call_at``); done by the simulator.

        The simulator object is held directly instead of captured closures so
        that a copy of the graph (snapshot/restore) rebinds the copy's
        environment to the copy's simulator automatically.
        """
        self._timeline = timeline

    @property
    def now(self) -> float:
        """The current simulated time (0.0 before a simulator is bound)."""
        timeline = self._timeline
        return timeline.now if timeline is not None else 0.0

    def call_at(self, time: float, callback: Callable[[], None], label: str = "") -> Any:
        """Schedule an environment transition as a simulator event."""
        if self._timeline is None:
            raise SimulationError("environment is not bound to a simulator")
        return self._timeline.call_at(time, callback, label=label or "environment")

    # ------------------------------------------------------------------
    # Transition log
    # ------------------------------------------------------------------
    def record(self, kind: str, **details: Any) -> None:
        """Record one environment transition (exact count, bounded detail)."""
        self.transition_counts[kind] = self.transition_counts.get(kind, 0) + 1
        if kind in UNLISTED_KINDS:
            return
        if len(self.transitions) < MAX_RECORDED_TRANSITIONS:
            self.transitions.append({"time": self.now, "kind": kind, **details})

    @property
    def transition_count(self) -> int:
        """Total number of recorded transitions (exact)."""
        return sum(self.transition_counts.values())

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable view of what the environment did during a run."""
        return {
            "transitions": self.transition_count,
            "by_kind": dict(sorted(self.transition_counts.items())),
            "active_partitions": sorted(self._partitions),
            "events": [dict(entry) for entry in self.transitions],
        }

    # ------------------------------------------------------------------
    # Link state: overlays > overrides > policies > default
    # ------------------------------------------------------------------
    def _invalidate_resolution(self) -> None:
        """A config-affecting layer changed: empty the network's route
        table, so each pair re-reads :meth:`config_for` on its next send."""
        if self._network is not None:
            self._network.invalidate_routes()

    def config_for(self, source: ProcessId, destination: ProcessId) -> Any:
        """The effective channel config of the directed pair, layer-resolved.

        The network's route table keeps the answer until a config-affecting
        mutation empties it, so registered link policies must be *pure* per
        pair (the built-in schedulers' are); a policy that varies over time
        should be overlay/override transitions, which invalidate correctly.
        """
        key = (source, destination)
        if self._overlays:
            for mapping in reversed(list(self._overlays.values())):
                config = mapping.get(key)
                if config is not None:
                    return config
        config = self._overrides.get(key)
        if config is not None:
            return config
        for _, policy in self._policies:
            config = policy(source, destination)
            if config is not None:
                return config
        # Read the default through the attached network (callers historically
        # rebind ``network.default_config`` after construction).
        if self._network is not None:
            return self._network.default_config
        return self.default_config

    def set_link_config(
        self, source: ProcessId, destination: ProcessId, config: Any
    ) -> None:
        """Install an explicit override for one directed pair."""
        self._overrides[(source, destination)] = config
        self._invalidate_resolution()
        self.record("link_config", link=[source, destination])

    def apply_overlay(self, tag: str, mapping: Dict[LinkKey, Any]) -> None:
        """Push (or replace) the tagged overlay; overlays win over overrides.

        Dynamic adversaries use overlays so that dropping the tag restores
        whatever shaping was active underneath — no need to remember it.
        """
        self._overlays.pop(tag, None)
        self._overlays[tag] = dict(mapping)
        self._invalidate_resolution()
        self.record("overlay", tag=tag, links=len(mapping))

    def remove_overlay(self, tag: str) -> bool:
        """Pop the tagged overlay, restoring the layers underneath."""
        mapping = self._overlays.pop(tag, None)
        if mapping is None:
            return False
        self._invalidate_resolution()
        self.record("overlay_removed", tag=tag, links=len(mapping))
        return True

    def add_link_policy(self, name: str, policy: LinkPolicy) -> None:
        """Register a pair-keyed shaping rule for channels created later.

        This is what makes late joiners inherit the active shaping: the
        network pulls every channel's config through :meth:`config_for`,
        which consults registered policies for pairs without an explicit
        override.  Existing channels pick the policy up on their next access
        (the registration empties the network's route table).
        """
        self._policies.append((name, policy))
        self._invalidate_resolution()
        self.record("link_policy", name=name)

    # ------------------------------------------------------------------
    # Partitions: named, directed, leaky
    # ------------------------------------------------------------------
    def _next_partition_name(self) -> str:
        self._partition_counter += 1
        return f"partition-{self._partition_counter}"

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
            name = self._next_partition_name()
        entry = self._partitions.setdefault(name, {})
        for source, destination in links:
            if source == destination:
                continue
            key = (source, destination)
            entry[key] = leak
            self._blocked.setdefault(key, {})[name] = leak
        # Partitions gate delivery (``permits``) but do not change a pair's
        # resolved config, so they leave the route table alone.
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

        Returns the partition's name, the handle :meth:`heal` takes — unlike
        the historical ``frozenset`` set, several partitions coexist and heal
        independently, and a one-way partition is just ``symmetric=False``.
        """
        group_a = list(group_a)
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
        Leak draws come from the environment's dedicated RNG stream.
        """
        blockers = self._blocked.get((source, destination))
        if not blockers:
            return True
        passthrough = 1.0
        for leak in blockers.values():
            if leak <= 0.0:
                return False
            passthrough *= leak
        return self._rng.random() < passthrough
