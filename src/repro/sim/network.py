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

The network keeps a route table of the channels whose configuration is
current: the steady-state send resolves its channel with one dict lookup, and
an environment mutation empties the table (O(1), see
:meth:`Network.invalidate_routes`) so the next send on each pair re-resolves
its configuration through the environment.

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
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.common.rng import ChannelStream, derive_seed, make_rng
from repro.common.types import ProcessId
from repro.node.config import ChannelConfig
from repro.sim.environment import NetworkEnvironment
from repro.sim.events import EventQueue


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
    between a pair of processors, resolving its configuration through the
    :class:`~repro.sim.environment.NetworkEnvironment` — the time-varying
    link-state layer that holds per-pair overrides, dynamic overlays, link
    policies (so late joiners inherit the active shaping) and the directed,
    possibly leaky partitions.  Accepted packets go straight onto the event
    queue of the simulator bound with :meth:`bind`.  Heartbeat tokens and
    acks are unicast between every pair, so a running cluster soon holds all
    ``N(N-1)`` channels, each with its own stream: it is the compact
    :class:`~repro.common.rng.ChannelStream`, not laziness, that keeps them
    small.
    """

    def __init__(
        self,
        default_config: Optional[ChannelConfig] = None,
        seed: int = 0,
        environment: Optional[NetworkEnvironment] = None,
    ) -> None:
        self._default_config = default_config or ChannelConfig()
        self._seed = seed
        self._channels: Dict[Tuple[ProcessId, ProcessId], Channel] = {}
        # The channels whose config is current: the send path's one lookup.
        self._routes: Dict[Tuple[ProcessId, ProcessId], Channel] = {}
        self._simulator: Optional[Any] = None
        self.environment = environment or NetworkEnvironment(
            self._default_config, seed=seed
        )
        self.environment.attach(self)
        self._totals = NetworkCounters()
        # Dedicated stream for batched broadcasts: every delay of a
        # ``send_many`` burst is drawn from this one RNG, consumed in send
        # order, which keeps the burst deterministic while touching a single
        # generator instead of one per destination channel.
        self._broadcast_rng = make_rng(seed, "broadcast")

    def bind(self, simulator: Any) -> None:
        """Bind the simulator whose clock (``now``) and event queue
        (``events``) accepted packets are pushed onto (done by the
        simulator).  The object itself is held, not its queue, so
        snapshot/restore rebinds the copy automatically."""
        self._simulator = simulator

    @property
    def default_config(self) -> ChannelConfig:
        """The fabric-wide fallback :class:`ChannelConfig`.

        Rebinding it empties the route table — the default is the bottom
        layer of the environment's resolution stack, so a channel configured
        against the old default would otherwise keep it.
        """
        return self._default_config

    @default_config.setter
    def default_config(self, config: ChannelConfig) -> None:
        self._default_config = config
        environment = getattr(self, "environment", None)
        if environment is not None:
            environment._invalidate_resolution()

    def invalidate_routes(self) -> None:
        """Forget which channels hold a current config (called by the
        environment on every config-affecting mutation): each pair
        re-resolves on its next send, so a mutation stays O(1) however many
        channels exist."""
        self._routes.clear()

    def channel(self, source: ProcessId, destination: ProcessId) -> Channel:
        """Return (creating if needed) the directed channel source→destination.

        The channel's configuration is **pulled** through the environment's
        :meth:`~repro.sim.environment.NetworkEnvironment.config_for` the first
        time the pair is used after an environment mutation, so a processor
        joining mid-run gets channels shaped by whatever program is active.
        """
        return self._routes.get((source, destination)) or self._route(source, destination)

    def _route(self, source: ProcessId, destination: ProcessId) -> Channel:
        key = (source, destination)
        config = self.environment.config_for(source, destination)
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
        environment = self.environment
        if environment._blocked and not environment.permits(source, destination):
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
        environment = self.environment
        blocked = environment._blocked
        rng = self._broadcast_rng
        simulator = self._simulator
        now = simulator.now
        events = simulator.events
        accepted = 0
        for destination, payload in payloads:
            packet = Packet(source, destination, payload)
            chan = routes.get((source, destination)) or self._route(source, destination)
            if blocked and not environment.permits(source, destination):
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
