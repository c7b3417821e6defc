"""Token-exchange data link with snap-stabilizing cleaning.

The paper (Section 2) builds all communication on an abstraction of *token
carrying messages*: processor ``pi`` retransmits packet ``pkt1`` to ``pj``
until it has collected more than the channel capacity acknowledgements, then
moves on to ``pkt2``.  The perpetual bouncing of the token between the two
endpoints implements a heartbeat: if the peer crashes the token stops coming
back.

Two anti-parallel data links run on every undirected pair — one where ``pi``
is the sender, one where ``pj`` is — and packets carry the identifier of the
link's sender so that stale packets from other incarnations are ignored.

When a processor first hears from a peer that is not in its failure detector
(a *new connection signal*), it runs a snap-stabilizing **cleaning** phase
before delivering anything: it repeatedly sends a ``CLEAN`` probe carrying a
fresh nonce until more than the round-trip capacity of matching
acknowledgements arrive, which guarantees every stale packet that predates
the cleaning has drained from the channel pair.

The implementation below is a faithful but compact rendition: one
:class:`LinkEndpoint` object per (local, remote) pair holds both the sender
and receiver roles of the two anti-parallel links.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple
from collections import deque

from repro.common.codec import wire_type
from repro.common.logging_utils import get_logger
from repro.common.types import ProcessId

_log = get_logger("datalink")

#: Sequence numbers and cleaning nonces lie in ``[0, MAX_LINK_SEQ)``; the
#: heartbeat service quarantines an inbound packet whose value does not.
MAX_LINK_SEQ = 1 << 31


class LinkState(Enum):
    """Lifecycle of a link endpoint."""

    CLEANING = "cleaning"
    ESTABLISHED = "established"


@wire_type
@dataclass(frozen=True)
class DataLinkMessage:
    """Wire format of every data-link packet.

    Attributes
    ----------
    kind:
        ``"data"``, ``"ack"``, ``"clean"`` or ``"clean-ack"``.
    link_sender:
        Identifier of the processor acting as *sender* of the data link this
        packet belongs to (the anti-parallel label of Section 2).
    seq:
        Alternating sequence number of the token exchange, or the cleaning
        nonce for ``clean`` / ``clean-ack`` packets.
    payload:
        Application payload carried by ``data`` packets (may be ``None`` for a
        bare token / heartbeat).
    """

    kind: str
    link_sender: ProcessId
    seq: int
    payload: Any = None


class TokenExchangeLink:
    """Sender role of one directed data link (local → remote).

    The sender keeps retransmitting the current token (with the head of the
    outgoing message queue piggy-backed on it) until it has received more
    than ``capacity`` acknowledgements carrying the current sequence number;
    it then advances the sequence number and moves to the next message.

    ``outbox`` is ``None`` until the first payload is queued: most links only
    ever carry the bare heartbeat token, and an empty ``deque`` costs ~760
    bytes per endpoint.
    """

    def __init__(self, local: ProcessId, remote: ProcessId, capacity: int) -> None:
        self.local = local
        self.remote = remote
        self.capacity = capacity
        self.seq = 0
        self.ack_count = 0
        self.outbox: Optional[Deque[Any]] = None
        self.current_payload: Any = None
        self.completed_round_trips = 0
        self._cached_message: Optional[DataLinkMessage] = None

    def enqueue(self, payload: Any) -> None:
        """Queue *payload* for reliable FIFO delivery to the remote peer."""
        outbox = self.outbox
        if outbox is None:
            outbox = self.outbox = deque()
        outbox.append(payload)
        if self.current_payload is None:
            self._cached_message = None

    def current_message(self) -> DataLinkMessage:
        """The packet to (re)transmit on the next send opportunity.

        The message is immutable and identical across retransmissions of the
        same token, so it is built once and reused until the sequence number
        advances or the payload changes (retransmission is the hottest loop
        of the whole simulation — one message per peer per iteration).
        """
        if self.current_payload is None and self.outbox:
            self.current_payload = self.outbox.popleft()
            self._cached_message = None
        message = self._cached_message
        if message is None:
            message = DataLinkMessage(
                kind="data",
                link_sender=self.local,
                seq=self.seq,
                payload=self.current_payload,
            )
            self._cached_message = message
        return message

    def on_ack(self, seq: int) -> bool:
        """Process an acknowledgement; return True when a round trip completed.

        A round trip completes when more than ``capacity`` acknowledgements of
        the current sequence number have arrived: the token flips and the next
        queued message (if any) becomes current.
        """
        if seq != self.seq:
            return False
        self.ack_count += 1
        if self.ack_count <= self.capacity:
            return False
        # Token returned: advance.
        self.seq = (self.seq + 1) % (2 * self.capacity + 2)
        self.ack_count = 0
        self.current_payload = None
        self._cached_message = None
        self.completed_round_trips += 1
        return True

    def reset(self, preserve_outbox: bool = True) -> None:
        """Forget the protocol state (after a cleaning phase).

        Application payloads queued before the link was established are kept
        by default — cleaning flushes stale *packets*, not the messages the
        upper layer asked to deliver.
        """
        self.seq = 0
        self.ack_count = 0
        if not preserve_outbox:
            self.outbox = None
        elif self.current_payload is not None:
            if self.outbox is None:
                self.outbox = deque()
            self.outbox.appendleft(self.current_payload)
        self.current_payload = None
        self._cached_message = None


class LinkEndpoint:
    """Both roles of the anti-parallel data links between ``local`` and ``remote``.

    The endpoint is driven by its owner:

    * :meth:`on_timer` returns the packets to transmit this step (the sender
      retransmission plus any pending cleaning probe);
    * :meth:`on_packet` consumes a received :class:`DataLinkMessage` and
      returns ``(packets_to_send, delivered_payloads, heartbeat)`` — the
      owner forwards delivered payloads to the upper layer and reports the
      heartbeat to the failure detector.
    """

    _nonce_counter = itertools.count(1)

    def __init__(
        self,
        local: ProcessId,
        remote: ProcessId,
        capacity: int,
        require_cleaning: bool = True,
    ) -> None:
        self.local = local
        self.remote = remote
        self.capacity = capacity
        self.sender = TokenExchangeLink(local, remote, capacity)
        self.state = LinkState.CLEANING if require_cleaning else LinkState.ESTABLISHED
        # Wraps into the accepted range (values below the wrap are
        # ``counter * 10_000 + local``): an unwrapped nonce from a process
        # that has built ≈ 214 748 endpoints would be quarantined by every
        # peer, and the link would never leave cleaning.
        self.clean_nonce = (next(self._nonce_counter) * 10_000 + local) % MAX_LINK_SEQ
        self.clean_ack_count = 0
        self.last_delivered_seq: Optional[int] = None
        self.heartbeats_observed = 0
        self.delivered_payload_count = 0
        # Reusable immutable messages for the two retransmission hot spots:
        # the cleaning probe (constant until establishment) and the ack for
        # the remote token (constant until the remote sequence advances).
        self._clean_probe: Optional[DataLinkMessage] = None
        self._ack_cache: Optional[DataLinkMessage] = None

    # --------------------------------------------------------------- sending
    def send(self, payload: Any) -> None:
        """Queue *payload* for reliable delivery once the link is established."""
        self.sender.enqueue(payload)

    def on_timer(self) -> List[DataLinkMessage]:
        """Packets to transmit in this step of the do-forever loop."""
        if self.state is LinkState.CLEANING:
            probe = self._clean_probe
            if probe is None or probe.seq != self.clean_nonce:
                probe = DataLinkMessage(
                    kind="clean", link_sender=self.local, seq=self.clean_nonce
                )
                self._clean_probe = probe
            return [probe]
        return [self.sender.current_message()]

    # -------------------------------------------------------------- receiving
    def on_packet(
        self, message: DataLinkMessage
    ) -> Tuple[List[DataLinkMessage], List[Any], bool]:
        """Handle a packet from the remote peer.

        Returns ``(replies, delivered_payloads, heartbeat)``.  Every packet
        genuinely coming from the live peer counts as a heartbeat (the token
        exchange is what carries liveness information).
        """
        replies: List[DataLinkMessage] = []
        delivered: List[Any] = []
        heartbeat = False

        if message.kind == "clean":
            # Always answer cleaning probes; they also (re)start our own
            # cleaning so both directions flush together.
            replies.append(
                DataLinkMessage(kind="clean-ack", link_sender=self.local, seq=message.seq)
            )
            heartbeat = True
            return replies, delivered, heartbeat

        if message.kind == "clean-ack":
            heartbeat = True
            if self.state is LinkState.CLEANING and message.seq == self.clean_nonce:
                self.clean_ack_count += 1
                # More than the round-trip capacity of matching acks implies
                # no stale pre-cleaning packet can still be in flight.
                if self.clean_ack_count > 2 * self.capacity:
                    self._establish()
            return replies, delivered, heartbeat

        if self.state is LinkState.CLEANING:
            # Data packets received during cleaning are acknowledged (so the
            # peer's token can advance) but not delivered upward.
            if message.kind == "data":
                replies.append(
                    DataLinkMessage(kind="ack", link_sender=self.local, seq=message.seq)
                )
            heartbeat = True
            return replies, delivered, heartbeat

        if message.kind == "data" and message.link_sender == self.remote:
            heartbeat = True
            ack = self._ack_cache
            if ack is None or ack.seq != message.seq:
                ack = DataLinkMessage(kind="ack", link_sender=self.local, seq=message.seq)
                self._ack_cache = ack
            replies.append(ack)
            if message.seq != self.last_delivered_seq:
                self.last_delivered_seq = message.seq
                if message.payload is not None:
                    delivered.append(message.payload)
                    self.delivered_payload_count += 1
        elif message.kind == "ack" and message.link_sender == self.remote:
            heartbeat = True
            self.sender.on_ack(message.seq)

        if heartbeat:
            self.heartbeats_observed += 1
        return replies, delivered, heartbeat

    # ------------------------------------------------------------- internals
    def _establish(self) -> None:
        self.state = LinkState.ESTABLISHED
        self.clean_ack_count = 0
        self.sender.reset()
        self.last_delivered_seq = None

    def is_established(self) -> bool:
        """True once the snap-stabilizing cleaning phase has completed."""
        return self.state is LinkState.ESTABLISHED

    def is_idle(self) -> bool:
        """True when the sender role carries no application payload.

        An idle established link only bounces the bare heartbeat token, whose
        retransmission the owner may throttle (the token exchange makes no
        progress guarantee the upper layers are waiting on while idle)."""
        return self.sender.current_payload is None and not self.sender.outbox
