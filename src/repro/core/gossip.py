"""The change-detected send rule shared by recSA, recMA, labels and counters.

Each of these layers tells every peer the same small piece of state once per
do-forever iteration.  The proofs need only fair communication — a value
that stops changing must still reach the peer eventually — so a layer sends
to a peer when what it would carry differs from what last went to that peer,
or when :data:`REFRESH_INTERVAL` iterations have passed since then.  A lost
packet, or send bookkeeping corrupted by a transient fault, therefore delays
the peer's copy by fewer than :data:`REFRESH_INTERVAL` iterations (an
out-of-range counter reads as "send now"), and every convergence bound
stretches by that constant.  :class:`GossipGate` is that rule for recMA,
labels and counters; recSA applies it with its echo test
(:meth:`repro.core.recsa.RecSA._broadcast`).
"""

from __future__ import annotations

from typing import Collection, Dict, Hashable

from repro.common.types import ProcessId

#: The refresh period K, in do-forever iterations: an unchanged value still
#: goes to each peer once every K iterations.
REFRESH_INTERVAL = 5


class GossipGate:
    """Per-peer memory of the last key sent and the iterations since."""

    def __init__(self) -> None:
        self.sent: Dict[ProcessId, Hashable] = {}
        self.rounds: Dict[ProcessId, int] = {}

    def due(self, pid: ProcessId, key: Hashable) -> bool:
        """Whether *key* goes to *pid* this iteration; a send is recorded."""
        rounds = self.rounds.get(pid, REFRESH_INTERVAL)
        if 0 <= rounds < REFRESH_INTERVAL - 1 and self.sent.get(pid) == key:
            self.rounds[pid] = rounds + 1
            return False
        self.sent[pid] = key
        self.rounds[pid] = 0
        return True

    def retain(self, peers: Collection[ProcessId]) -> None:
        """Forget every peer outside *peers* once there are more of them
        than *peers*, so churn cannot grow the bookkeeping."""
        if len(self.sent) > len(peers):
            for pid in [pid for pid in self.sent if pid not in peers]:
                del self.sent[pid]
                self.rounds.pop(pid, None)

    def reset(self) -> None:
        """Forget every peer: the next iteration sends to all of them."""
        self.sent.clear()
        self.rounds.clear()
