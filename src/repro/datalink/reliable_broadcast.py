"""Byzantine-tolerant reliable broadcast over the unreliable channels.

The transient-fault model the rest of :mod:`repro.datalink` implements
(token exchange + snap-stabilizing cleaning) assumes every processor runs
its program honestly after the fault.  A *Byzantine* processor does not —
it may forge, mutate, equivocate or selectively drop messages forever.  The
classical countermeasure (Bracha 1987; Dolev 1982) is an authenticated-
channel reliable-broadcast layer: as long as fewer than ``n/3`` processors
are traitors, every honest processor delivers the same payload for the same
``(origin, seq)`` message id (*agreement*), and anything delivered with an
honest origin is exactly what that origin broadcast (*validity*).

Three service variants share one interface (``broadcast`` / ``on_message``
/ ``on_timer`` / ``delivered``), selectable per
:class:`~repro.node.stacks.StackProfile`:

``BrachaBroadcastService``
    The echo protocol for fully connected topologies: echo the first SEND
    per message id, send READY once ``⌈(n+f)/2⌉+1`` matching echoes (or
    ``f+1`` matching READYs) arrive, deliver at ``2f+1`` READYs.
``DolevBroadcastService``
    Path flooding for sparse topologies: forwarded copies carry the relay
    path; a payload is delivered once it arrived over ``f+1`` node-disjoint
    paths (the direct edge counts as the empty path).
``NaiveBroadcastService``
    First-writer-wins fan-out with **no** echo round — the plain-datalink
    baseline.  An equivocating origin trivially splits the honest nodes;
    the audit layer pins that violation as the motivating counterexample.

Point-to-point channels are the authentication primitive: the simulator
stamps every packet with its true source, so a SEND/FWD whose ``origin``
disagrees with the packet sender is a detectable forgery.  All inbound
traffic passes :func:`validate_rb_message` first — malformed Byzantine
packets (wrong types, out-of-range sequence numbers, oversized paths,
unhashable payloads) are **counted and quarantined, never raised**, so a
traitor cannot crash an honest node with garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.codec import wire_type
from repro.common.types import ProcessId

SendFunction = Callable[[ProcessId, Any], None]

#: Wire kinds: ``send``/``echo``/``ready`` belong to Bracha, ``fwd`` to
#: Dolev path flooding; the naive baseline only uses ``send``.
RB_KINDS = ("send", "echo", "ready", "fwd")

#: Bounds enforced by :func:`validate_rb_message` — anything outside is a
#: malformed (or adversarially inflated) packet and is quarantined.
MAX_RB_SEQ = 1 << 20
MAX_PATH_LEN = 64

#: Per-service cap on distinct message ids tracked concurrently; a traitor
#: spraying fresh forged ids cannot grow honest state without bound.
MAX_TRACKED_MESSAGES = 256

#: Retransmission pacing: every ``RESEND_INTERVAL`` timer rounds, at most
#: ``MAX_RESENDS`` times per message id.
RESEND_INTERVAL = 4
MAX_RESENDS = 8


@wire_type
@dataclass(frozen=True)
class RBMessage:
    """Wire format of every reliable-broadcast packet.

    ``(origin, seq)`` is the message id; ``path`` is only used by the Dolev
    variant (identifiers of the intermediate relays the copy traversed, in
    order, excluding the origin and the current hop's sender).
    """

    kind: str
    origin: ProcessId
    seq: int
    payload: Any = None
    path: Tuple[ProcessId, ...] = ()

    @property
    def mid(self) -> Tuple[ProcessId, int]:
        return (self.origin, self.seq)


def validate_rb_message(message: Any) -> bool:
    """Schema/bounds validation for inbound RB packets (never raises).

    Checks structure only — authenticity (origin vs packet sender) and
    protocol context (which kinds a variant accepts) belong to the services.
    """
    if not isinstance(message, RBMessage):
        return False
    if message.kind not in RB_KINDS:
        return False
    if not isinstance(message.origin, int) or isinstance(message.origin, bool):
        return False
    if not isinstance(message.seq, int) or isinstance(message.seq, bool):
        return False
    if not 0 <= message.seq < MAX_RB_SEQ:
        return False
    if not isinstance(message.path, tuple) or len(message.path) > MAX_PATH_LEN:
        return False
    if any(not isinstance(p, int) or isinstance(p, bool) for p in message.path):
        return False
    try:  # payloads key dictionaries below; unhashable garbage is malformed
        hash(message.payload)
    except TypeError:
        return False
    return True


class ReliableBroadcastService:
    """Shared plumbing of the three broadcast variants.

    Subclasses implement ``_start_broadcast`` and ``_handle``; everything
    here is bookkeeping (delivery log, quarantine counters, bounded resend
    pacing) shared by all of them.
    """

    variant = "base"

    def __init__(
        self,
        pid: ProcessId,
        peers: Tuple[ProcessId, ...],
        send: SendFunction,
    ) -> None:
        self.pid = pid
        self.peers: Tuple[ProcessId, ...] = tuple(
            sorted(p for p in set(peers) if p != pid)
        )
        #: ``n`` counts this node too; ``f`` is the classical ``< n/3`` bound.
        self.n = len(self.peers) + 1
        self.f = max((self.n - 1) // 3, 0)
        self._send = send
        self.next_seq = 0
        #: My own broadcasts: ``seq -> payload`` (what validity checks against).
        self.sent: Dict[int, Any] = {}
        #: Delivered payloads: ``(origin, seq) -> payload``.
        self.delivered: Dict[Tuple[ProcessId, int], Any] = {}
        self.delivery_order: List[Tuple[ProcessId, int, Any]] = []
        self.quarantined = 0
        self.duplicates = 0
        self.equivocations_observed = 0
        self._rounds = 0
        self._resends: Dict[Tuple[ProcessId, int], int] = {}

    # ----------------------------------------------------------------- API
    def broadcast(self, payload: Any) -> int:
        """Reliably broadcast *payload*; returns the sequence number used."""
        seq = self.next_seq
        self.next_seq += 1
        self.sent[seq] = payload
        self._start_broadcast(seq, payload)
        return seq

    def on_message(self, sender: ProcessId, message: Any) -> bool:
        """Node message hook: consume every :class:`RBMessage`.

        Malformed packets are quarantined (counted, ignored) — they must
        degrade gracefully, never crash an honest node.
        """
        if not isinstance(message, RBMessage):
            return False
        if not validate_rb_message(message):
            self.quarantined += 1
            return True
        self._handle(sender, message)
        return True

    def on_timer(self) -> None:
        """Periodic retransmission (bounded per message id).

        The channels may lose packets; fair communication plus a bounded
        number of retransmissions is enough for the delivery proofs, and the
        bound keeps a quiesced system quiet.
        """
        self._rounds += 1
        if self._rounds % RESEND_INTERVAL == 0:
            self._resend()

    # ----------------------------------------------------------- internals
    def _start_broadcast(self, seq: int, payload: Any) -> None:
        raise NotImplementedError

    def _handle(self, sender: ProcessId, message: RBMessage) -> None:
        raise NotImplementedError

    def _resend(self) -> None:
        """Default: retransmit my own undelivered broadcasts."""
        for seq, payload in self.sent.items():
            mid = (self.pid, seq)
            if mid in self.delivered:
                continue
            if self._budget(mid):
                self._rebroadcast(seq, payload)

    def _rebroadcast(self, seq: int, payload: Any) -> None:
        raise NotImplementedError

    def _budget(self, mid: Tuple[ProcessId, int]) -> bool:
        tries = self._resends.get(mid, 0)
        if tries >= MAX_RESENDS:
            return False
        self._resends[mid] = tries + 1
        return True

    def _broadcast_raw(self, message: RBMessage) -> None:
        for peer in self.peers:
            self._send(peer, message)

    def _deliver(self, mid: Tuple[ProcessId, int], payload: Any) -> None:
        if mid in self.delivered:
            return
        self.delivered[mid] = payload
        self.delivery_order.append((mid[0], mid[1], payload))

    def _track(self, table: Dict[Tuple[ProcessId, int], Any], mid: Tuple[ProcessId, int]) -> bool:
        """Admit *mid* into a bounded tracking table (quarantine overflow)."""
        if mid in table:
            return True
        if len(table) >= MAX_TRACKED_MESSAGES:
            self.quarantined += 1
            return False
        return True

    # ---------------------------------------------------------- inspection


class BrachaBroadcastService(ReliableBroadcastService):
    """Bracha's echo protocol (fully connected topology).

    Thresholds for ``n`` processors tolerating ``f < n/3`` traitors:

    * echo the first SEND per message id (one echo per id — an equivocating
      origin gets at most one of its payload variants echoed per honest node);
    * send READY for a payload once ``⌈(n+f)/2⌉+1`` matching echoes arrive,
      or ``f+1`` matching READYs (amplification: honest READYs imply some
      honest node crossed the echo threshold);
    * deliver at ``2f+1`` matching READYs (at least ``f+1`` honest, which
      locks every other honest node onto the same payload).
    """

    variant = "bracha"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: ``mid -> payload -> set of processors`` whose echo/ready we saw.
        self.echoes: Dict[Tuple[ProcessId, int], Dict[Any, Set[ProcessId]]] = {}
        self.readies: Dict[Tuple[ProcessId, int], Dict[Any, Set[ProcessId]]] = {}
        #: ``mid -> payload`` I echoed / sent READY for (at most one each).
        self.echoed: Dict[Tuple[ProcessId, int], Any] = {}
        self.readied: Dict[Tuple[ProcessId, int], Any] = {}

    @property
    def echo_threshold(self) -> int:
        return (self.n + self.f) // 2 + 1

    @property
    def deliver_threshold(self) -> int:
        return 2 * self.f + 1

    # ----------------------------------------------------------- protocol
    def _start_broadcast(self, seq: int, payload: Any) -> None:
        message = RBMessage("send", self.pid, seq, payload)
        self._broadcast_raw(message)
        # The origin participates in its own echo round (it is one of the n).
        self._on_send(self.pid, message)

    def _rebroadcast(self, seq: int, payload: Any) -> None:
        self._broadcast_raw(RBMessage("send", self.pid, seq, payload))

    def _handle(self, sender: ProcessId, message: RBMessage) -> None:
        if message.kind == "send":
            # Channels authenticate: a SEND must arrive on the origin's own
            # link, otherwise it is a forgery by a third party.
            if message.origin != sender:
                self.quarantined += 1
                return
            self._on_send(sender, message)
        elif message.kind == "echo":
            if self._record(self.echoes, message.mid, message.payload, sender):
                self._maybe_progress(message.mid, message.payload)
        elif message.kind == "ready":
            if self._record(self.readies, message.mid, message.payload, sender):
                self._maybe_progress(message.mid, message.payload)
        else:  # "fwd" has no meaning on a Bracha stack
            self.quarantined += 1

    def _on_send(self, sender: ProcessId, message: RBMessage) -> None:
        mid = message.mid
        if mid in self.echoed:
            if self.echoed[mid] != message.payload:
                self.equivocations_observed += 1
            else:
                self.duplicates += 1
            return
        if not self._track(self.echoed, mid):
            return
        self.echoed[mid] = message.payload
        self._broadcast_raw(RBMessage("echo", message.origin, message.seq, message.payload))
        if self._record(self.echoes, mid, message.payload, self.pid):
            self._maybe_progress(mid, message.payload)

    def _record(
        self,
        table: Dict[Tuple[ProcessId, int], Dict[Any, Set[ProcessId]]],
        mid: Tuple[ProcessId, int],
        payload: Any,
        sender: ProcessId,
    ) -> bool:
        if not self._track(table, mid):
            return False
        senders = table.setdefault(mid, {}).setdefault(payload, set())
        if sender in senders:
            self.duplicates += 1
            return False
        senders.add(sender)
        return True

    def _maybe_progress(self, mid: Tuple[ProcessId, int], payload: Any) -> None:
        echo_count = len(self.echoes.get(mid, {}).get(payload, ()))
        ready_count = len(self.readies.get(mid, {}).get(payload, ()))
        if mid not in self.readied and (
            echo_count >= self.echo_threshold or ready_count >= self.f + 1
        ):
            self.readied[mid] = payload
            self._broadcast_raw(RBMessage("ready", mid[0], mid[1], payload))
            if self._record(self.readies, mid, payload, self.pid):
                ready_count += 1
        if ready_count >= self.deliver_threshold and self.readied.get(mid) == payload:
            self._deliver(mid, payload)

    def _resend(self) -> None:
        super()._resend()
        # Re-emit my echo/ready for undelivered ids so loss cannot strand a
        # broadcast one vote short of a threshold forever.
        for mid, payload in list(self.echoed.items()):
            if mid in self.delivered or not self._budget(mid):
                continue
            self._broadcast_raw(RBMessage("echo", mid[0], mid[1], payload))
            if mid in self.readied:
                self._broadcast_raw(RBMessage("ready", mid[0], mid[1], self.readied[mid]))


class DolevBroadcastService(ReliableBroadcastService):
    """Dolev's path-flooding protocol (works on sparse topologies).

    Every copy carries the relay path it traversed; a receiver accepts the
    copy's effective path (``message.path`` plus the hop sender), relays it
    to everyone not already on that path, and delivers a payload once it
    arrived over ``f+1`` node-disjoint paths — with fewer than ``f+1``
    traitors at least one of those paths is fully honest, so the payload is
    authentic.  The direct edge from the origin is the empty path (disjoint
    with everything).  Stored paths per message id are bounded.
    """

    variant = "dolev"

    #: Cap on stored paths per (mid, payload); beyond this the extra path
    #: carries no new disjointness information worth its memory.
    MAX_PATHS = 32

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: ``mid -> payload -> list of frozensets`` (intermediate-relay sets).
        self.paths: Dict[Tuple[ProcessId, int], Dict[Any, List[frozenset]]] = {}
        #: Copies already relayed, to flood each distinct path once.
        self._relayed: Set[Tuple[ProcessId, int, Any, frozenset]] = set()

    def _start_broadcast(self, seq: int, payload: Any) -> None:
        # The origin trusts itself: deliver locally, flood the direct copies.
        self._deliver((self.pid, seq), payload)
        self._broadcast_raw(RBMessage("fwd", self.pid, seq, payload, path=()))

    def _rebroadcast(self, seq: int, payload: Any) -> None:
        self._broadcast_raw(RBMessage("fwd", self.pid, seq, payload, path=()))

    def _handle(self, sender: ProcessId, message: RBMessage) -> None:
        if message.kind != "fwd":
            self.quarantined += 1
            return
        path = message.path
        # Structural sanity of the claimed path: no duplicates, and neither
        # endpoint of this hop (nor the origin) may appear as an intermediate.
        if len(set(path)) != len(path) or self.pid in path or sender in path:
            self.quarantined += 1
            return
        if message.origin in path or message.origin == self.pid:
            self.quarantined += 1
            return
        # The effective path of this copy: the relays it traversed, which
        # includes the hop sender unless the copy came straight from the
        # origin.  A non-origin sender claiming the empty path is lying.
        if sender == message.origin:
            if path:
                self.quarantined += 1
                return
            effective: Tuple[ProcessId, ...] = ()
        else:
            effective = path + (sender,)
        mid = message.mid
        if not self._track(self.paths, mid):
            return
        variants = self.paths.setdefault(mid, {})
        stored = variants.setdefault(message.payload, [])
        as_set = frozenset(effective)
        if as_set in stored:
            self.duplicates += 1
        elif len(stored) < self.MAX_PATHS:
            stored.append(as_set)
            if len(variants) > 1:
                self.equivocations_observed += 1
            if self._disjoint_count(stored) >= self.f + 1:
                self._deliver(mid, message.payload)
        # Relay each distinct copy once, to peers not already on its path.
        relay_key = (mid[0], mid[1], message.payload, as_set)
        if relay_key in self._relayed:
            return
        self._relayed.add(relay_key)
        if len(effective) + 1 <= MAX_PATH_LEN:
            forwarded = replace(message, path=effective)
            for peer in self.peers:
                if peer not in as_set and peer != message.origin and peer != sender:
                    self._send(peer, forwarded)

    @staticmethod
    def _disjoint_count(paths: List[frozenset]) -> int:
        """Greedy lower bound on the number of pairwise-disjoint path sets."""
        picked: List[frozenset] = []
        for candidate in sorted(paths, key=len):
            if all(not (candidate & chosen) for chosen in picked):
                picked.append(candidate)
        return len(picked)


class NaiveBroadcastService(ReliableBroadcastService):
    """Plain fan-out without an echo round — the unprotected baseline.

    Keeps the origin-authenticity check (third-party forgeries are still
    quarantined; the channels make them detectable for free) but delivers
    the *first* payload seen per message id.  An equivocating origin sends
    different payloads to different peers directly, so honest nodes deliver
    different values for the same id: ``rb_agreement`` breaks, which is the
    pinned counterexample motivating the Bracha/Dolev variants.
    """

    variant = "naive"

    def _start_broadcast(self, seq: int, payload: Any) -> None:
        self._deliver((self.pid, seq), payload)
        self._broadcast_raw(RBMessage("send", self.pid, seq, payload))

    def _rebroadcast(self, seq: int, payload: Any) -> None:
        self._broadcast_raw(RBMessage("send", self.pid, seq, payload))

    def _handle(self, sender: ProcessId, message: RBMessage) -> None:
        if message.kind != "send":
            self.quarantined += 1
            return
        if message.origin != sender:
            self.quarantined += 1
            return
        mid = message.mid
        if mid in self.delivered:
            if self.delivered[mid] != message.payload:
                self.equivocations_observed += 1
            else:
                self.duplicates += 1
            return
        if not self._track(self.delivered, mid):
            return
        self._deliver(mid, message.payload)


#: Variant registry used by the ``rb_*`` stack profiles.
RB_VARIANTS = {
    "bracha": BrachaBroadcastService,
    "dolev": DolevBroadcastService,
    "naive": NaiveBroadcastService,
}


def make_rb_service(
    variant: str,
    pid: ProcessId,
    peers: Tuple[ProcessId, ...],
    send: SendFunction,
) -> ReliableBroadcastService:
    """Build the named reliable-broadcast variant."""
    try:
        service_cls = RB_VARIANTS[variant]
    except KeyError:
        raise KeyError(
            f"unknown reliable-broadcast variant {variant!r}; "
            f"available: {sorted(RB_VARIANTS)}"
        ) from None
    return service_cls(pid, peers, send)
