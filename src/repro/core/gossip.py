"""The change-detected send rule shared by recMA, labels and counters.

Each of these layers tells every peer the same small piece of state once per
do-forever iteration.  The proofs need only fair communication — a value
that stops changing must still reach the peer eventually — so a
:class:`GossipGate` lets a send through when what it would carry differs
from what last went to that peer, or when ``refresh`` iterations have passed
since then.  A lost packet, or gate bookkeeping corrupted by a transient
fault, therefore delays the peer's copy by fewer than ``refresh`` iterations
(an out-of-range counter reads as "send now"), and every convergence bound
stretches by that constant.
"""

from __future__ import annotations

from typing import Collection, Dict, Hashable

from repro.common.types import ProcessId


class GossipGate:
    """Per-peer memory of the last key sent and the iterations since."""

    def __init__(self, refresh: int) -> None:
        self.refresh = max(1, int(refresh))
        self.sent: Dict[ProcessId, Hashable] = {}
        self.rounds: Dict[ProcessId, int] = {}

    def due(self, pid: ProcessId, key: Hashable) -> bool:
        """Whether *key* goes to *pid* this iteration; a send is recorded."""
        rounds = self.rounds.get(pid, self.refresh)
        if 0 <= rounds < self.refresh - 1 and self.sent.get(pid) == key:
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
