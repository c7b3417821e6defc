"""Bounded, lossy, duplicating, reordering channels and the network fabric.

The paper's communication model (Section 2):

* every directed pair of processors is connected by a channel of bounded
  capacity ``cap``;
* packets may be lost, reordered or duplicated, but not created spontaneously
  (an adversarial/arbitrary initial channel content is modelled by
  corruption atoms stuffing channels with stale packets, bounded by
  ``O(N^2 * cap)``);
* *fair communication*: a packet sent infinitely often is received infinitely
  often — realized here by loss probabilities strictly below one.

A :class:`Channel` is a bounded FIFO of in-flight packets.  Delivery is driven
by the simulator's event queue: when a packet is accepted, its delivery is
pushed onto the queue after a (seeded) random delay; reordering emerges from
the variance of the delay, and duplication pushes an extra delivery of the
same packet.

Hot-path design
---------------
One accepted copy is one ``heappush``: :meth:`Channel.try_accept` applies the
accept rule — capacity, then the loss draw, then the delay draw, then the
duplicate draw — and pushes each accepted copy straight onto the
:class:`~repro.sim.events.EventQueue` as a handle-less
``(arrival, sequence, channel, packet)`` entry, which the simulator pops and
hands to the receiver.  There is no per-packet event handle, no callback
between the network and the queue, and no list of deliveries; unicast sends
and ``send_many`` bursts take the same path (a burst only swaps in the
network's broadcast RNG stream).

Every channel draws from its own stream (the adversary picks each channel's
delays independently), yet at n = 128 a channel draws only a dozen times a
run: heartbeat tokens and acks are unicast, so every channel draws, but
sparsely.  The stream is therefore a
:class:`~repro.common.rng.ChannelStream` — the exact values of
``make_rng(seed, "channel", source, destination)``, buffered a few at a
time — built on the channel's first draw, not a 2.5 KB Twister per channel.

The network is also the one owner of how a directed pair is shaped: a stack
of named *link rules* over one default :class:`ChannelConfig`, plus named,
directed, possibly leaky partitions.  It keeps a route table of the channels
whose configuration is current: the steady-state send resolves its channel
with one dict lookup, and pushing or popping a rule empties the table (O(1))
so the next send on each pair re-resolves its configuration.

A packet carries its own in-flight mark: accepting it sets the mark and
counts one unit of the channel's occupancy, and the first delivery clears
the mark and frees that unit, so both are O(1) and payloads need not be
hashable (the queue always hands back the exact object that was accepted).
Every per-channel counter update also feeds a network-wide
:class:`NetworkCounters` aggregate, making ``statistics()`` O(1) instead of
an O(N^2) scan over channels.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.rng import ChannelStream, derive_seed, make_rng
from repro.common.types import ProcessId
from repro.node.config import ChannelConfig
from repro.sim.events import EventQueue

LinkKey = Tuple[ProcessId, ProcessId]
#: A link rule: the config of a directed pair, or ``None`` to defer to the
#: rule underneath (and finally to the network default).  Rules live in the
#: simulated state, so they must pickle (snapshot/restore) and be pure per
#: pair (the route table keeps each answer until the stack changes).
LinkRule = Callable[[ProcessId, ProcessId], Optional[ChannelConfig]]

#: How many transition records :meth:`Network.summary` keeps verbatim; the
#: per-kind counts are always exact.
MAX_RECORDED_TRANSITIONS = 256


class Packet:
    """A low-level packet travelling on a directed channel.

    A slotted object, built on every send and compared by identity, as the
    event heap and the channel's occupancy accounting do.  ``in_flight`` is
    the one field that changes once the packet is sent: its channel sets it
    on accepting the packet and clears it on the first delivery.
    """

    __slots__ = ("source", "destination", "payload", "in_flight")

    def __init__(self, source: ProcessId, destination: ProcessId, payload: Any) -> None:
        self.source = source
        self.destination = destination
        self.payload = payload
        self.in_flight = False

    def __repr__(self) -> str:
        return (
            f"Packet(source={self.source!r}, destination={self.destination!r}, "
            f"payload={self.payload!r})"
        )


class NetworkCounters:
    """Network-wide aggregate counters, maintained incrementally by channels."""

    __slots__ = ("sent", "delivered", "dropped", "duplicated")

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0


class Channel:
    """A directed, bounded-capacity, unreliable channel.

    The channel counts its in-flight packets (its occupancy, for capacity
    accounting) and pushes the delivery of every copy it accepts onto the
    simulator's event queue.  ``stream`` is its own
    :class:`~repro.common.rng.ChannelStream`, ``None`` until its first draw.
    """

    __slots__ = (
        "source",
        "destination",
        "config",
        "_seed",
        "stream",
        "_occupancy",
        "_totals",
        "sent_count",
        "delivered_count",
        "dropped_count",
        "duplicated_count",
    )

    def __init__(
        self,
        source: ProcessId,
        destination: ProcessId,
        config: ChannelConfig,
        seed: int,
        totals: Optional[NetworkCounters] = None,
    ) -> None:
        self.source = source
        self.destination = destination
        self.config = config
        self._seed = seed
        self.stream: Optional[ChannelStream] = None
        self._occupancy = 0
        self._totals = totals if totals is not None else NetworkCounters()
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.duplicated_count = 0

    def occupancy(self) -> int:
        """Number of packets currently occupying channel capacity."""
        return self._occupancy

    def try_accept(
        self, packet: Packet, now: float, events: EventQueue, rng: Optional[Any] = None
    ) -> int:
        """Try to accept *packet*, sent at *now*, for transmission.

        The accept rule, in draw order: a full channel omits the packet; an
        accepted one may be lost (loss draw); otherwise it takes a delay
        (delay draw, :meth:`arrival`) and may be duplicated (duplicate draw,
        then a second delay).  Every accepted copy is pushed onto *events* as
        a handle-less ``(arrival, sequence, self, packet)`` entry.  Returns
        the number of copies pushed: 0 (lost or channel full), 1, or 2
        (duplicated).  *rng* overrides the channel's own stream for every
        draw (the broadcast path feeds one shared stream for a whole burst).
        """
        totals = self._totals
        self.sent_count += 1
        totals.sent += 1
        config = self.config
        if self._occupancy >= config.capacity:
            # Channel full: the new packet is omitted (paper, Section 2).
            self.dropped_count += 1
            totals.dropped += 1
            return 0
        if rng is None:
            rng = self.stream or self._materialize_stream()
        loss = config.loss_probability
        if loss and rng.random() < loss:
            self.dropped_count += 1
            totals.dropped += 1
            return 0
        packet.in_flight = True
        self._occupancy += 1
        events.push(self.arrival(now, rng), self, packet)
        dup = config.duplicate_probability
        if dup and rng.random() < dup:
            self.duplicated_count += 1
            totals.duplicated += 1
            events.push(self.arrival(now, rng), self, packet)
            return 2
        return 1

    def arrival(self, now: float, rng: Optional[Any] = None) -> float:
        """The delivery instant of one copy sent at *now*.

        ``now`` plus a delay drawn uniformly from ``[min_delay, max_delay]``
        (no draw when the bounds coincide), rounded **up** to the next
        multiple of ``delay_quantum`` when one is set — packets sent at
        different times then land together in synchronized bursts.  The draw
        is ``random.uniform``'s own arithmetic, without its call.
        """
        config = self.config
        low = config.min_delay
        high = config.max_delay
        if high <= low:
            time = now + low
        else:
            if rng is None:
                rng = self.stream or self._materialize_stream()
            time = now + (low + (high - low) * rng.random())
        quantum = config.delay_quantum
        if quantum > 0.0:
            time = math.ceil(time / quantum) * quantum
        return time

    def record_blocked(self) -> None:
        """Count a send attempt that was dropped before entering the channel
        (used by the network for partitioned pairs)."""
        self.sent_count += 1
        self.dropped_count += 1
        self._totals.sent += 1
        self._totals.dropped += 1

    def stuff(self, packet: Packet) -> bool:
        """Force *packet* into the channel (fault injection of stale packets).

        Returns ``False`` when the channel is already at capacity: the paper's
        adversary is limited to ``cap`` stale packets per channel.
        """
        if self._occupancy >= self.config.capacity:
            return False
        packet.in_flight = True
        self._occupancy += 1
        return True

    def complete_delivery(self, packet: Packet) -> bool:
        """Clear *packet*'s in-flight mark; return whether it was set.

        A duplicated delivery is the same packet pushed twice, so only the
        first delivery frees its slot; the second still hands the payload to
        the receiver but does not consume capacity (it never did).
        """
        if not packet.in_flight:
            return False
        packet.in_flight = False
        self._occupancy -= 1
        self.delivered_count += 1
        self._totals.delivered += 1
        return True

    def _materialize_stream(self) -> ChannelStream:
        stream = ChannelStream(derive_seed(self._seed, "channel", self.source, self.destination))
        self.stream = stream
        return stream


class Network:
    """The fully-connected fabric of directed :class:`Channel` objects.

    The network is lazy: a channel is created the first time a packet flows
    between a pair of processors.  Heartbeat tokens and acks are unicast
    between every pair, so a running cluster soon holds all ``N(N-1)``
    channels, each with its own stream: it is the compact
    :class:`~repro.common.rng.ChannelStream`, not laziness, that keeps them
    small.  Accepted packets go straight onto the event queue of the
    simulator bound with :meth:`bind`.

    The network owns what the paper's channel adversary may vary over time:

    * **link rules** — an ordered stack of named :data:`LinkRule` callables
      over :attr:`default_config`.  A pair's config is the answer of the most
      recently pushed rule that does not defer, else the default.  A rule
      answers for every pair, existing or not, so a processor joining
      mid-run gets channels shaped by whatever rule is active;
    * **partitions** — named, directed and optionally leaky: one-way blocks,
      per-partition heal, and a leak probability that lets an occasional
      packet cross (fair communication holds whenever every blocking
      partition leaks).  Leak draws come from the ``"environment"`` stream;
    * **the transition log** — every push, pop, partition and heal, with
      its simulated time, so a scenario result can report what the
      adversary did and when.
    """

    def __init__(self, default_config: Optional[ChannelConfig] = None, seed: int = 0) -> None:
        self.default_config = default_config or ChannelConfig()
        self._seed = seed
        self._channels: Dict[LinkKey, Channel] = {}
        # The channels whose config is current: the send path's one lookup.
        self._routes: Dict[LinkKey, Channel] = {}
        self._simulator: Optional[Any] = None
        self._totals = NetworkCounters()
        # Dedicated stream for batched broadcasts: every delay of a
        # ``send_many`` burst is drawn from this one RNG, consumed in send
        # order, which keeps the burst deterministic while touching a single
        # generator instead of one per destination channel.
        self._broadcast_rng = make_rng(seed, "broadcast")
        # Link rules by name, in push order (the last one is asked first).
        self._rules: Dict[str, LinkRule] = {}
        # Named directed partitions: name -> {link: leak probability}, plus
        # the per-link view the send path reads.
        self._partitions: Dict[str, Dict[LinkKey, float]] = {}
        self._blocked: Dict[LinkKey, Dict[str, float]] = {}
        self._partition_counter = 0
        self._leak_rng = make_rng(seed, "environment")
        self.transition_counts: Dict[str, int] = {}
        self.transitions: List[Dict[str, Any]] = []

    def bind(self, simulator: Any) -> None:
        """Bind the simulator whose clock (``now``) and event queue
        (``events``) accepted packets are pushed onto (done by the
        simulator).  The object itself is held, not its queue, so
        snapshot/restore rebinds the copy automatically."""
        self._simulator = simulator

    # ------------------------------------------------------------------
    # Link rules
    # ------------------------------------------------------------------
    def push_rule(self, name: str, rule: LinkRule) -> None:
        """Push *rule* on top of the stack, replacing any rule named *name*."""
        self._rules.pop(name, None)
        self._rules[name] = rule
        self._routes.clear()
        self.record("rule", name=name)

    def pop_rule(self, name: str) -> bool:
        """Pop the rule named *name*, restoring the rules underneath; return
        whether there was one."""
        if self._rules.pop(name, None) is None:
            return False
        self._routes.clear()
        self.record("rule_popped", name=name)
        return True

    def config_for(self, source: ProcessId, destination: ProcessId) -> ChannelConfig:
        """The config of the directed pair: the most recent rule's answer
        that is not ``None``, else the default."""
        for rule in reversed(self._rules.values()):
            config = rule(source, destination)
            if config is not None:
                return config
        return self.default_config

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
        # config, so they leave the route table alone.
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
            self.transitions.append({"time": self._simulator.now, "kind": kind, **details})

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

    # ------------------------------------------------------------------
    # Channels and sends
    # ------------------------------------------------------------------
    def channel(self, source: ProcessId, destination: ProcessId) -> Channel:
        """Return (creating if needed) the directed channel source→destination,
        its config read through :meth:`config_for` the first time the pair is
        used after the rule stack changed."""
        return self._routes.get((source, destination)) or self._route(source, destination)

    def _route(self, source: ProcessId, destination: ProcessId) -> Channel:
        key = (source, destination)
        config = self.config_for(source, destination)
        chan = self._channels.get(key)
        if chan is None:
            chan = Channel(source, destination, config, seed=self._seed, totals=self._totals)
            self._channels[key] = chan
        else:
            chan.config = config
        self._routes[key] = chan
        return chan

    def channels(self) -> Iterable[Channel]:
        """Iterate over every channel created so far."""
        return self._channels.values()

    def send(self, packet: Packet) -> None:
        """Submit *packet* for transmission on its directed channel."""
        source = packet.source
        destination = packet.destination
        chan = self._routes.get((source, destination)) or self._route(source, destination)
        if self._blocked and not self.permits(source, destination):
            chan.record_blocked()
            return
        simulator = self._simulator
        chan.try_accept(packet, simulator.now, simulator.events)

    def send_many(self, source: ProcessId, payloads: Iterable[Tuple[ProcessId, Any]]) -> int:
        """Submit one packet per ``(destination, payload)`` pair as a burst.

        A broadcast fast path: every draw of the burst comes from the
        network's dedicated broadcast RNG stream, in send order.  Returns the
        number of packets accepted into channels.
        """
        routes = self._routes
        blocked = self._blocked
        rng = self._broadcast_rng
        simulator = self._simulator
        now = simulator.now
        events = simulator.events
        accepted = 0
        for destination, payload in payloads:
            packet = Packet(source, destination, payload)
            chan = routes.get((source, destination)) or self._route(source, destination)
            if blocked and not self.permits(source, destination):
                chan.record_blocked()
                continue
            if chan.try_accept(packet, now, events, rng):
                accepted += 1
        return accepted
    def stuff_channel(self, source: ProcessId, destination: ProcessId, payload: Any) -> bool:
        """Inject a stale packet into a channel and schedule its delivery.

        Used by channel corruption atoms (:mod:`repro.sim.faults`) to model
        arbitrary initial channel contents.  Returns ``False`` when the
        channel was full.  The delay is drawn from the channel's own stream.
        """
        chan = self.channel(source, destination)
        packet = Packet(source, destination, payload)
        if not chan.stuff(packet):
            return False
        simulator = self._simulator
        simulator.events.push(chan.arrival(simulator.now), chan, packet)
        return True

    def statistics(self) -> Dict[str, int]:
        """Aggregate send/deliver/drop/duplicate counters over all channels.

        Maintained incrementally on every channel operation, so this is O(1)
        regardless of the number of channels.
        """
        totals = self._totals
        return {
            "sent": totals.sent,
            "delivered": totals.delivered,
            "dropped": totals.dropped,
            "duplicated": totals.duplicated,
        }
