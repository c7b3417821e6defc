"""Bounded, lossy, duplicating, reordering channels and the network fabric.

The paper's communication model (Section 2):

* every directed pair of processors is connected by a channel of bounded
  capacity ``cap``;
* packets may be lost, reordered or duplicated, but not created spontaneously
  (an adversarial/arbitrary initial channel content is modelled by the fault
  injector stuffing channels with stale packets, bounded by ``O(N^2 * cap)``);
* *fair communication*: a packet sent infinitely often is received infinitely
  often — realized here by loss probabilities strictly below one.

A :class:`Channel` is a bounded FIFO of in-flight packets.  Delivery is driven
by the simulator: when a packet is accepted, a delivery event is scheduled
after a (seeded) random delay; reordering emerges from the variance of the
delay, and duplication schedules an extra delivery of a copy.

Hot-path design
---------------
The in-flight set is an insertion-ordered ``dict`` keyed by packet identity,
so accepting and completing a delivery are both O(1) (the previous ``deque``
paid an O(cap) scan in ``remove`` per delivered packet).  Identity keys are
required because payloads may be unhashable; the simulator always hands back
the exact object it scheduled.  Every per-channel counter update also feeds a
network-wide :class:`NetworkCounters` aggregate, making ``statistics()`` and
``total_in_flight()`` O(1) instead of an O(N^2) scan over channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.rng import make_rng
from repro.common.types import ProcessId
from repro.common.errors import SimulationError
from repro.sim.environment import NetworkEnvironment


@dataclass(frozen=True)
class Packet:
    """A low-level packet travelling on a directed channel.

    ``sender_label`` carries the anti-parallel data-link labelling described
    in Section 2 (packets are identified by the sender of the data link they
    belong to); higher layers usually just use ``payload``.
    """

    source: ProcessId
    destination: ProcessId
    payload: Any
    sender_label: Optional[ProcessId] = None


@dataclass
class ChannelConfig:
    """Behavioural parameters of a directed channel.

    Attributes
    ----------
    capacity:
        Maximum number of in-flight packets (the paper's ``cap``).  A send
        into a full channel silently drops the *new* packet, matching the
        paper ("the new packet might be omitted or some already sent packet
        may be lost").
    loss_probability:
        Probability that an accepted packet is dropped instead of delivered.
        Must be strictly below 1.0 to preserve fair communication.
    duplicate_probability:
        Probability that an accepted packet is delivered twice.
    min_delay / max_delay:
        Uniform delivery-delay bounds; a wide interval produces reordering.
    delay_quantum:
        When positive, the **arrival instant** of every delivery on this
        channel is rounded up to the next multiple of this quantum (applied
        by the simulator when it schedules the delivery event), so packets
        sent at different times land together in synchronized bursts at
        quantum boundaries — the burst-delivery adversarial scheduler.
        Zero (the default) keeps continuous arrivals.
    """

    capacity: int = 8
    loss_probability: float = 0.0
    duplicate_probability: float = 0.0
    min_delay: float = 0.5
    max_delay: float = 1.5
    delay_quantum: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise SimulationError("channel capacity must be at least 1")
        if not 0.0 <= self.loss_probability < 1.0:
            raise SimulationError("loss probability must be in [0, 1)")
        if not 0.0 <= self.duplicate_probability <= 1.0:
            raise SimulationError("duplicate probability must be in [0, 1]")
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise SimulationError("delay bounds must satisfy 0 <= min <= max")
        if self.delay_quantum < 0:
            raise SimulationError("delay quantum must be non-negative")


class NetworkCounters:
    """Network-wide aggregate counters, maintained incrementally by channels."""

    __slots__ = ("sent", "delivered", "dropped", "duplicated", "in_flight")

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.in_flight = 0


class Channel:
    """A directed, bounded-capacity, unreliable channel.

    The channel tracks the set of in-flight packets (for capacity accounting
    and for fault-injection snapshots) and delegates the actual timing of
    deliveries to the owning :class:`Network`.
    """

    __slots__ = (
        "source",
        "destination",
        "config",
        "_seed",
        "_rng",
        "_in_flight",
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
        # The per-channel RNG is materialized on first draw: a Mersenne
        # Twister carries ~2.5 KB of state, and at n=512 the fabric holds
        # ~262k directed channels — most of which only ever see broadcast
        # traffic, whose draws come from the burst stream instead.  Lazy
        # construction changes no stream: ``make_rng`` is a pure function of
        # (seed, "channel", source, destination), so the first draw sees the
        # exact sequence the eager constructor produced.
        self._rng: Optional[Any] = None
        self._in_flight: Dict[int, Packet] = {}
        self._totals = totals if totals is not None else NetworkCounters()
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.duplicated_count = 0

    @property
    def in_flight(self) -> Tuple[Packet, ...]:
        """Snapshot of packets currently in flight (oldest first)."""
        return tuple(self._in_flight.values())

    def occupancy(self) -> int:
        """Number of packets currently occupying channel capacity."""
        return len(self._in_flight)

    def try_accept(self, packet: Packet, rng: Optional[Any] = None) -> List[Tuple[Packet, float]]:
        """Try to accept *packet* for transmission.

        Returns a list of ``(packet, delay)`` pairs to be scheduled for
        delivery — empty when the packet was dropped (lost or channel full),
        length two when the packet was duplicated.  *rng* overrides the
        channel's own generator for every draw (used by the broadcast fast
        path, which feeds one shared stream for a whole burst).
        """
        totals = self._totals
        self.sent_count += 1
        totals.sent += 1
        in_flight = self._in_flight
        if len(in_flight) >= self.config.capacity:
            # Channel full: the new packet is omitted (paper, Section 2).
            self.dropped_count += 1
            totals.dropped += 1
            return []
        if rng is None:
            rng = self._rng or self._materialize_rng()
        loss = self.config.loss_probability
        if loss and rng.random() < loss:
            self.dropped_count += 1
            totals.dropped += 1
            return []
        in_flight[id(packet)] = packet
        totals.in_flight += 1
        deliveries = [(packet, self._draw_delay(rng))]
        dup = self.config.duplicate_probability
        if dup and rng.random() < dup:
            self.duplicated_count += 1
            totals.duplicated += 1
            deliveries.append((packet, self._draw_delay(rng)))
        return deliveries

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
        if len(self._in_flight) >= self.config.capacity:
            return False
        self._in_flight[id(packet)] = packet
        self._totals.in_flight += 1
        return True

    def complete_delivery(self, packet: Packet) -> bool:
        """Remove *packet* from the in-flight set; return whether it was there.

        Duplicated deliveries of the same packet only remove one in-flight
        slot; the second delivery still hands the payload to the receiver but
        does not consume capacity (it never did).
        """
        if self._in_flight.pop(id(packet), None) is None:
            return False
        self.delivered_count += 1
        self._totals.delivered += 1
        self._totals.in_flight -= 1
        return True

    def drop_in_flight(self) -> int:
        """Drop every in-flight packet (used when a processor crashes)."""
        dropped = len(self._in_flight)
        self._in_flight.clear()
        self.dropped_count += dropped
        self._totals.dropped += dropped
        self._totals.in_flight -= dropped
        return dropped

    def _draw_delay(self, rng: Optional[Any] = None) -> float:
        lo, hi = self.config.min_delay, self.config.max_delay
        if hi <= lo:
            return lo
        if rng is None:
            rng = self._rng or self._materialize_rng()
        return rng.uniform(lo, hi)

    def _materialize_rng(self) -> Any:
        rng = make_rng(self._seed, "channel", self.source, self.destination)
        self._rng = rng
        return rng


class Network:
    """The fully-connected fabric of directed :class:`Channel` objects.

    The network is lazy: a channel is created the first time a packet flows
    between a pair of processors, resolving its configuration through the
    :class:`~repro.sim.environment.NetworkEnvironment` — the time-varying
    link-state layer that holds per-pair overrides, dynamic overlays, link
    policies (so late joiners inherit the active shaping) and the directed,
    possibly leaky partitions.  Delivery scheduling is delegated to a
    callback installed by the :class:`~repro.sim.simulator.Simulator`.
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
        self.environment = environment or NetworkEnvironment(
            self._default_config, seed=seed
        )
        self.environment.attach(self)
        self._schedule_delivery: Optional[Callable[[Channel, Packet, float], None]] = None
        self._schedule_deliveries: Optional[
            Callable[[List[Tuple[Channel, Packet, float]]], None]
        ] = None
        self._totals = NetworkCounters()
        # Dedicated stream for batched broadcasts: every delay of a
        # ``send_many`` burst is drawn from this one RNG, consumed in send
        # order, which keeps the burst deterministic while touching a single
        # generator instead of one per destination channel.
        self._broadcast_rng = make_rng(seed, "broadcast")

    def bind_scheduler(
        self,
        schedule_delivery: Callable[[Channel, Packet, float], None],
        schedule_deliveries: Optional[
            Callable[[List[Tuple[Channel, Packet, float]]], None]
        ] = None,
    ) -> None:
        """Install the delivery-scheduling callbacks (done by the simulator).

        ``schedule_deliveries`` is the optional bulk variant used by
        :meth:`send_many`; when absent, bursts fall back to the per-packet
        callback.
        """
        self._schedule_delivery = schedule_delivery
        self._schedule_deliveries = schedule_deliveries

    @property
    def default_config(self) -> ChannelConfig:
        """The fabric-wide fallback :class:`ChannelConfig`.

        Rebinding it invalidates the environment's memoized link resolution —
        the default is the bottom layer of the resolve stack, so a cached
        entry computed against the old default would otherwise go stale.
        """
        return self._default_config

    @default_config.setter
    def default_config(self, config: ChannelConfig) -> None:
        self._default_config = config
        environment = getattr(self, "environment", None)
        if environment is not None:
            environment._invalidate_resolution()

    def channel(self, source: ProcessId, destination: ProcessId) -> Channel:
        """Return (creating if needed) the directed channel source→destination.

        The channel's configuration is **pulled** through the environment's
        memoized :meth:`~repro.sim.environment.NetworkEnvironment.resolve` on
        every access: the steady-state send path pays one cache-dict lookup,
        a processor joining mid-run gets channels shaped by whatever program
        is currently active, and an environment mutation (overlay push,
        override, policy) is O(1) — it invalidates the cache instead of
        walking and re-syncing every touched channel.
        """
        key = (source, destination)
        chan = self._channels.get(key)
        if chan is None:
            config = self.environment.resolve(source, destination)
            chan = Channel(source, destination, config, seed=self._seed, totals=self._totals)
            self._channels[key] = chan
        else:
            chan.config = self.environment.resolve(source, destination)
        return chan

    def channels(self) -> Iterable[Channel]:
        """Iterate over every channel created so far."""
        return self._channels.values()

    def send(self, packet: Packet) -> None:
        """Submit *packet* for transmission on its directed channel."""
        if self._schedule_delivery is None:
            raise SimulationError("network is not bound to a simulator")
        chan = self.channel(packet.source, packet.destination)
        environment = self.environment
        if environment._blocked and not environment.permits(
            packet.source, packet.destination
        ):
            chan.record_blocked()
            return
        for pkt, delay in chan.try_accept(packet):
            self._schedule_delivery(chan, pkt, delay)

    def send_many(self, source: ProcessId, payloads: Iterable[Tuple[ProcessId, Any]]) -> int:
        """Submit one packet per ``(destination, payload)`` pair as a burst.

        A broadcast fast path: all delivery delays of the burst are drawn from
        the network's dedicated broadcast RNG stream and the resulting events
        are scheduled with one bulk call.  Returns the number of packets
        accepted into channels.
        """
        if self._schedule_delivery is None:
            raise SimulationError("network is not bound to a simulator")
        environment = self.environment
        blocked = environment._blocked
        rng = self._broadcast_rng
        batch: List[Tuple[Channel, Packet, float]] = []
        accepted = 0
        for destination, payload in payloads:
            packet = Packet(source=source, destination=destination, payload=payload)
            chan = self.channel(source, destination)
            if blocked and not environment.permits(source, destination):
                chan.record_blocked()
                continue
            deliveries = chan.try_accept(packet, rng=rng)
            if deliveries:
                accepted += 1
                for pkt, delay in deliveries:
                    batch.append((chan, pkt, delay))
        if batch:
            if self._schedule_deliveries is not None:
                self._schedule_deliveries(batch)
            else:
                for chan, packet, delay in batch:
                    self._schedule_delivery(chan, packet, delay)
        return accepted

    def stuff_channel(self, source: ProcessId, destination: ProcessId, payload: Any) -> bool:
        """Inject a stale packet into a channel and schedule its delivery.

        Used by the transient-fault injector to model arbitrary initial
        channel contents.  Returns ``False`` when the channel was full.
        """
        if self._schedule_delivery is None:
            raise SimulationError("network is not bound to a simulator")
        chan = self.channel(source, destination)
        packet = Packet(source=source, destination=destination, payload=payload)
        if not chan.stuff(packet):
            return False
        self._schedule_delivery(chan, packet, chan._draw_delay())
        return True

    def total_in_flight(self) -> int:
        """Total packets currently in flight across all channels (O(1))."""
        return self._totals.in_flight

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
