"""Self-stabilizing data-link layer.

Implements the communication substrate the paper assumes (Section 2):

* a **token-exchange** stop-and-wait protocol per directed pair that keeps
  retransmitting the current token until more than the channel-capacity
  acknowledgements arrive — the continuous token bounce is the heartbeat
  used by the (N, Theta)-failure detector; the token carries no payload;
* a **snap-stabilizing link cleaning** handshake executed when two processors
  first hear from each other, flushing any stale packets left in the channel
  by a transient fault before the link's token starts;
* optional **Byzantine-tolerant reliable broadcast** variants
  (:mod:`repro.datalink.reliable_broadcast`): Bracha echo voting and Dolev
  path flooding, selectable per stack profile, for the active-adversary
  threat model the audit layer certifies against.
"""

from repro.datalink.token_exchange import (
    LinkEndpoint,
    DataLinkMessage,
    LinkState,
)
from repro.datalink.heartbeat import HeartbeatService
from repro.datalink.reliable_broadcast import (
    BrachaBroadcastService,
    DolevBroadcastService,
    NaiveBroadcastService,
    RBMessage,
    make_rb_service,
    validate_rb_message,
)

__all__ = [
    "LinkEndpoint",
    "DataLinkMessage",
    "LinkState",
    "HeartbeatService",
    "BrachaBroadcastService",
    "DolevBroadcastService",
    "NaiveBroadcastService",
    "RBMessage",
    "make_rb_service",
    "validate_rb_message",
]
