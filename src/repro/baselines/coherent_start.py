"""A classical (non-self-stabilizing) reconfiguration baseline.

The related-work systems the paper contrasts itself with (RAMBO-style
reconfigurable storage, dynamic atomic storage without consensus) assume a
*coherent start*: every processor boots with the same initial configuration,
configuration changes are totally ordered by unbounded sequence numbers, and
a new configuration is only adopted when proposed by a member of the previous
one.  Under those assumptions the baseline below is perfectly correct — but a
single transient fault (a corrupted configuration field or sequence number,
or a stale packet carrying one) can leave replicas permanently disagreeing,
because nothing ever audits the agreement again.

Experiment E9 runs the same transient-fault campaign against this baseline
and against the paper's scheme to reproduce the introduction's claim: the
self-stabilizing scheme re-converges, the baseline does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Optional

from repro.common.codec import wire_type
from repro.common.types import Configuration, ProcessId, make_config
from repro.node.process import Process


@wire_type
@dataclass(frozen=True)
class CoherentStartMessage:
    """Gossip of the baseline's ``(sequence, configuration)`` pair."""

    sender: ProcessId
    sequence: int
    config: Configuration


class CoherentStartNode(Process):
    """A processor of the coherent-start reconfiguration baseline.

    The node adopts any ``(sequence, configuration)`` pair with a sequence
    number higher than its own — the standard "latest configuration wins"
    rule.  There is no conflict detection for equal sequence numbers and no
    recovery path: exactly the behaviour of a correct-under-assumptions but
    non-self-stabilizing protocol.
    """

    def __init__(
        self,
        pid: ProcessId,
        peers: Iterable[ProcessId],
        initial_config: Iterable[ProcessId],
        step_interval: float = 1.0,
    ) -> None:
        super().__init__(pid=pid, step_interval=step_interval)
        self.peers = [p for p in peers if p != pid]
        self.sequence = 0
        self.config: Configuration = make_config(initial_config)
        self.reconfigurations = 0

    # ------------------------------------------------------------------
    # Reconfiguration API (what an administrator would call)
    # ------------------------------------------------------------------
    def propose_reconfiguration(self, members: Iterable[ProcessId]) -> None:
        """Install a new configuration with the next sequence number."""
        self.sequence += 1
        self.config = make_config(members)
        self.reconfigurations += 1

    # ------------------------------------------------------------------
    # Process hooks
    # ------------------------------------------------------------------
    def on_timer(self) -> None:
        message = CoherentStartMessage(
            sender=self.pid, sequence=self.sequence, config=self.config
        )
        for peer in self.peers:
            if self.context is not None:
                self.context.send(peer, message)

    def on_receive(self, sender: ProcessId, payload: Any) -> None:
        if not isinstance(payload, CoherentStartMessage):
            return
        if payload.sequence > self.sequence:
            self.sequence = payload.sequence
            self.config = payload.config
        # Equal sequence numbers with different configurations are silently
        # ignored: under the coherent-start assumption they cannot happen, so
        # the baseline has no rule for them — which is precisely why it never
        # recovers from a transient fault that creates such a split.
