"""Token-exchange data link with snap-stabilizing cleaning.

The paper (Section 2) builds all communication on an abstraction of *token
carrying messages*: processor ``pi`` retransmits packet ``pkt1`` to ``pj``
until it has collected more than the channel capacity acknowledgements, then
moves on to ``pkt2``.  The perpetual bouncing of the token between the two
endpoints implements a heartbeat: if the peer crashes the token stops coming
back.  Here the token carries nothing but its sequence number; every layer
above gossips on the raw channel.

Two anti-parallel data links run on every undirected pair — one where ``pi``
is the sender, one where ``pj`` is — and packets carry the identifier of the
link's sender so that stale packets from other incarnations are ignored.

When a processor first hears from a peer that is not in its failure detector
(a *new connection signal*), it runs a snap-stabilizing **cleaning** phase
before its token starts: it repeatedly sends a ``CLEAN`` probe carrying a
fresh nonce until more than the round-trip capacity of matching
acknowledgements arrive, which guarantees every stale packet that predates
the cleaning has drained from the channel pair.  Every packet from the peer
counts as a heartbeat during cleaning too: probes, their acks and tokens.

The implementation below is a faithful but compact rendition: one
:class:`LinkEndpoint` object per (local, remote) pair holds both the sender
and receiver roles of the two anti-parallel links.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from repro.common.codec import wire_type
from repro.common.types import ProcessId

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
        ``"data"`` (the token), ``"ack"``, ``"clean"`` or ``"clean-ack"``.
    link_sender:
        Identifier of the processor acting as *sender* of the data link this
        packet belongs to (the anti-parallel label of Section 2).
    seq:
        Alternating sequence number of the token exchange, or the cleaning
        nonce for ``clean`` / ``clean-ack`` packets.
    """

    kind: str
    link_sender: ProcessId
    seq: int


class LinkEndpoint:
    """Both roles of the anti-parallel data links between ``local`` and ``remote``.

    The sender role retransmits the token ``seq`` until it has received more
    than ``capacity`` acknowledgements carrying it, then advances ``seq``.
    The endpoint is driven by its owner:

    * :meth:`on_timer` returns the packets to transmit this step (the token,
      or the cleaning probe while the link is cleaning);
    * :meth:`on_packet` consumes a received :class:`DataLinkMessage` and
      returns ``(packets_to_send, heartbeat)`` — the owner reports the
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
        self.seq = 0
        self.ack_count = 0
        self.state = LinkState.CLEANING if require_cleaning else LinkState.ESTABLISHED
        # Wraps into the accepted range (values below the wrap are
        # ``counter * 10_000 + local``): an unwrapped nonce from a process
        # that has built ≈ 214 748 endpoints would be quarantined by every
        # peer, and the link would never leave cleaning.
        self.clean_nonce = (next(self._nonce_counter) * 10_000 + local) % MAX_LINK_SEQ
        self.clean_ack_count = 0
        # Reusable immutable messages for the retransmission hot spots: the
        # token (constant until ``seq`` advances), the cleaning probe
        # (constant until establishment) and the ack for the remote token
        # (constant until the remote sequence advances).
        self._token: Optional[DataLinkMessage] = None
        self._clean_probe: Optional[DataLinkMessage] = None
        self._ack_cache: Optional[DataLinkMessage] = None

    # --------------------------------------------------------------- sending
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
        token = self._token
        if token is None or token.seq != self.seq:
            token = DataLinkMessage(kind="data", link_sender=self.local, seq=self.seq)
            self._token = token
        return [token]

    def on_ack(self, seq: int) -> bool:
        """Process an acknowledgement; return True when a round trip completed.

        A round trip completes when more than ``capacity`` acknowledgements of
        the current sequence number have arrived: the token flips.
        """
        if seq != self.seq:
            return False
        self.ack_count += 1
        if self.ack_count <= self.capacity:
            return False
        self.seq = (self.seq + 1) % (2 * self.capacity + 2)
        self.ack_count = 0
        return True

    # -------------------------------------------------------------- receiving
    def on_packet(self, message: DataLinkMessage) -> Tuple[List[DataLinkMessage], bool]:
        """Handle a packet from the remote peer.

        Returns ``(replies, heartbeat)``.  Every packet genuinely coming from
        the live peer counts as a heartbeat (the token exchange is what
        carries liveness information).
        """
        if message.kind == "clean":
            # Always answer cleaning probes, whatever our own state.
            return [
                DataLinkMessage(kind="clean-ack", link_sender=self.local, seq=message.seq)
            ], True

        if message.kind == "clean-ack":
            if self.state is LinkState.CLEANING and message.seq == self.clean_nonce:
                self.clean_ack_count += 1
                # More than the round-trip capacity of matching acks implies
                # no stale pre-cleaning packet can still be in flight.
                if self.clean_ack_count > 2 * self.capacity:
                    self._establish()
            return [], True

        if self.state is LinkState.CLEANING:
            # Tokens received during cleaning are acknowledged so the peer's
            # token can advance.
            if message.kind == "data":
                return [
                    DataLinkMessage(kind="ack", link_sender=self.local, seq=message.seq)
                ], True
            return [], True

        if message.link_sender != self.remote:
            return [], False
        if message.kind == "ack":
            self.on_ack(message.seq)
            return [], True
        # The remote token (the owner admits only the four kinds).
        ack = self._ack_cache
        if ack is None or ack.seq != message.seq:
            ack = DataLinkMessage(kind="ack", link_sender=self.local, seq=message.seq)
            self._ack_cache = ack
        return [ack], True

    # ------------------------------------------------------------- internals
    def _establish(self) -> None:
        self.state = LinkState.ESTABLISHED
        self.clean_ack_count = 0
        self.seq = 0
        self.ack_count = 0

    def is_established(self) -> bool:
        """True once the snap-stabilizing cleaning phase has completed."""
        return self.state is LinkState.ESTABLISHED
