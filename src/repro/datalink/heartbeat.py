"""Heartbeat service built on the token-exchange data links.

The service owns one :class:`~repro.datalink.token_exchange.LinkEndpoint` per
known peer.  On every do-forever-loop iteration it retransmits the token (or
the cleaning probe) on every link; on packet arrival it feeds the packet to
the owning endpoint and reports each heartbeat through its ``on_heartbeat``
callable — the (N, Theta)-failure detector's ``heartbeat``.

The token carries no payload.  The gossip of the reconfiguration algorithms
uses the raw unreliable channel instead (fair communication is all those
algorithms need), and :meth:`HeartbeatService.notify_traffic` lets that
gossip stand in for a throttled token.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.common.types import ProcessId
from repro.datalink.token_exchange import MAX_LINK_SEQ, DataLinkMessage, LinkEndpoint

HeartbeatListener = Callable[[ProcessId], None]
SendFunction = Callable[[ProcessId, Any], None]

#: Default retransmission period (in do-forever iterations) of an
#: established link's token.  The token is a pure heartbeat, and the owner
#: may let other traffic (protocol gossip reported through
#: :meth:`HeartbeatService.notify_traffic`) stand in for it; ``1``
#: retransmits every iteration (the seed behaviour).
DEFAULT_IDLE_RESEND_INTERVAL = 1

#: Wire kinds a data-link packet may carry.
_VALID_KINDS = frozenset(("data", "ack", "clean", "clean-ack"))


class HeartbeatService:
    """Per-process manager of token-exchange links; reports each heartbeat."""

    def __init__(
        self,
        pid: ProcessId,
        send: SendFunction,
        on_heartbeat: HeartbeatListener,
        channel_capacity: int = 8,
        require_cleaning: bool = True,
        idle_resend_interval: int = DEFAULT_IDLE_RESEND_INTERVAL,
    ) -> None:
        self.pid = pid
        self._send = send
        #: Called with the peer id on every heartbeat (the failure detector's
        #: ``heartbeat``).
        self.on_heartbeat = on_heartbeat
        self.channel_capacity = channel_capacity
        self.require_cleaning = require_cleaning
        self.idle_resend_interval = max(1, int(idle_resend_interval))
        self.links: Dict[ProcessId, LinkEndpoint] = {}
        #: Malformed / out-of-range data-link packets rejected before the
        #: endpoint saw them (Byzantine garbage degrades gracefully).
        self.quarantined = 0
        self._idle_rounds: Dict[ProcessId, int] = {}

    # --------------------------------------------------------------- wiring
    def add_peer(self, peer: ProcessId) -> LinkEndpoint:
        """Ensure a link endpoint exists for *peer* and return it."""
        if peer == self.pid:
            raise ValueError("a process does not keep a link to itself")
        endpoint = self.links.get(peer)
        if endpoint is None:
            endpoint = LinkEndpoint(
                local=self.pid,
                remote=peer,
                capacity=self.channel_capacity,
                require_cleaning=self.require_cleaning,
            )
            self.links[peer] = endpoint
        return endpoint

    # ------------------------------------------------------------ data plane
    def on_timer(self) -> None:
        """Retransmit tokens / cleaning probes on every link (one step).

        An established link's token is pure liveness signalling, so its
        retransmission is throttled to every ``idle_resend_interval``-th
        iteration.  Cleaning probes are never throttled: the
        snap-stabilizing handshake always transmits.
        """
        interval = self.idle_resend_interval
        for peer, endpoint in self.links.items():
            if interval > 1 and endpoint.is_established():
                rounds = self._idle_rounds.get(peer, interval)
                if rounds + 1 < interval:
                    self._idle_rounds[peer] = rounds + 1
                    continue
                self._idle_rounds[peer] = 0
            else:
                self._idle_rounds[peer] = 0
            for message in endpoint.on_timer():
                self._send(peer, message)

    def notify_traffic(self, sender: ProcessId) -> None:
        """Report liveness evidence carried by non-data-link traffic.

        Any packet received from *sender* proves the peer was recently alive
        (packets are never created spontaneously; stale in-flight packets are
        bounded by the channel capacity), so protocol gossip can stand in for
        throttled heartbeat tokens.  Reports the heartbeat exactly like a
        token arrival.
        """
        self.on_heartbeat(sender)

    def on_packet(self, sender: ProcessId, message: DataLinkMessage) -> None:
        """Feed a received data-link packet to the owning endpoint.

        Structural bounds validation runs first: a packet with an unknown
        kind, a non-integer link sender, or a sequence/nonce outside the
        honest value range is counted and dropped before the endpoint (or
        the failure detector behind it) can ingest it — a Byzantine peer
        must not be able to poison link state with out-of-range values.
        A packet claiming the receiver's own pid as its source (no process
        keeps a link to itself; a forged datagram header) is dropped the
        same way.
        """
        if sender == self.pid or not self._valid_packet(message):
            self.quarantined += 1
            return
        # A packet labelled with a link sender that is neither endpoint of
        # this pair is stale (Section 2: such packets are ignored).
        if message.link_sender not in (sender, self.pid):
            return
        endpoint = self.add_peer(sender)
        replies, heartbeat = endpoint.on_packet(message)
        for reply in replies:
            self._send(sender, reply)
        if heartbeat:
            self.on_heartbeat(sender)

    @staticmethod
    def _valid_packet(message: DataLinkMessage) -> bool:
        """Schema/bounds check for inbound data-link packets (never raises)."""
        # A forged frame may carry any decodable value as its kind; an
        # unhashable one would raise out of the set lookup.
        if not isinstance(message.kind, str) or message.kind not in _VALID_KINDS:
            return False
        if not isinstance(message.link_sender, int) or isinstance(message.link_sender, bool):
            return False
        if not isinstance(message.seq, int) or isinstance(message.seq, bool):
            return False
        # Token seqs alternate in a tiny ring and cleaning nonces wrap below
        # the bound, so an honest value always fits; a Byzantine out-of-range
        # (or negative) value is quarantined instead of ingested.
        return 0 <= message.seq < MAX_LINK_SEQ
