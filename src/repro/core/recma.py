"""Reconfiguration Management — Algorithm 3.2 of the paper.

The recMA layer decides *when* a (delicate) reconfiguration is needed and
triggers it through recSA's ``estab()`` interface.  Two situations lead to a
trigger:

* **majority failure** — the caller cannot see a trusted majority of the
  current configuration, and neither can any processor in its *core* (the
  intersection of the participant sets reported by the participants it
  trusts).  The *majority-supportive core* assumption (Definition 3.2) makes
  this test safe: as long as a real majority is alive, at least one core
  member keeps reporting ``noMaj = False`` and no spurious trigger happens;
* **prediction** — the application-provided ``evalConf()`` policy asks for a
  reconfiguration and a majority of the configuration members agree.  The
  paper treats *when* a delicate reconfiguration is useful as an application
  concern (e.g. "once 1/4th of the members are not trusted"); the hook is
  :attr:`RecMA.policy`, called as ``policy(configuration, trusted)``, and by
  default never votes, so only a majority collapse triggers.

Each processor can trigger at most once per event: after calling ``estab()``
the local flags are flushed, and subsequent iterations observe
``noReco() = False`` until the replacement completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Optional

from repro.common.codec import wire_type
from repro.common.logging_utils import get_logger
from repro.common.types import Configuration, ProcessId, is_majority
from repro.core.gossip import GossipGate
from repro.core.recsa import DEFAULT_GOSSIP_REFRESH_INTERVAL, RecSA
from repro.core.stale import is_real_config

_log = get_logger("recma")

FdProvider = Callable[[], FrozenSet[ProcessId]]
SendFn = Callable[[ProcessId, Any], None]
#: The ``evalConf()`` black box (line 16): True votes for a reconfiguration
#: of the configuration, given the caller's trusted set.
PredictionPolicy = Callable[[Configuration, FrozenSet[ProcessId]], bool]


def never_reconfigure(configuration: Configuration, trusted: FrozenSet[ProcessId]) -> bool:
    """The default ``evalConf()``: reconfigure only on majority loss."""
    return False


@wire_type
@dataclass(frozen=True)
class RecMAMessage:
    """The ``⟨noMaj, needReconf⟩`` exchange of Algorithm 3.2 (lines 19-20)."""

    sender: ProcessId
    no_maj: bool
    need_reconf: bool


class RecMA:
    """Per-processor instance of the Reconfiguration Management layer."""

    def __init__(
        self,
        pid: ProcessId,
        recsa: RecSA,
        fd_provider: FdProvider,
        send: SendFn,
        gossip_refresh_interval: int = DEFAULT_GOSSIP_REFRESH_INTERVAL,
    ) -> None:
        self.pid = pid
        self.recsa = recsa
        self.fd_provider = fd_provider
        self.send = send
        self.policy: PredictionPolicy = never_reconfigure

        # Replicated flag arrays (own entry + most recently received values).
        self.no_maj: Dict[ProcessId, bool] = {pid: False}
        self.need_reconf: Dict[ProcessId, bool] = {pid: False}
        self.prev_config: Optional[Configuration] = None

        # Change-detected gossip: the ⟨noMaj, needReconf⟩ pair goes to a
        # peer when it changed or every K rounds (the flags are idempotent
        # state, so a lost packet is repaired by the next refresh).
        self.gate = GossipGate(gossip_refresh_interval)

        # Experiment counters (Lemma 3.18 bounds the spurious ones).
        self.trigger_count = 0
        self.majority_triggers = 0
        self.prediction_triggers = 0
        self.broadcasts_sent = 0
        self.broadcasts_skipped = 0

    # ------------------------------------------------------------------
    # Macros (lines 3-5)
    # ------------------------------------------------------------------
    def core(self) -> FrozenSet[ProcessId]:
        """``core()``: intersection of the participant sets reported by
        the participants the owner trusts (line 4)."""
        part = self.recsa.participants()
        result: Optional[frozenset] = None
        for pid in part:
            if pid == self.pid:
                reported = part
            else:
                reported = self.recsa.part.get(pid)
                if reported is None:
                    # Nothing reported yet: a missing reading cannot support a
                    # majority-failure claim, so it contributes conservatively
                    # by shrinking the core to nothing.
                    return frozenset()
            result = frozenset(reported) if result is None else result & frozenset(reported)
        return result or frozenset()

    def flush_flags(self) -> None:
        """``flushFlags()``: reset both flag arrays to all-False (line 5)."""
        for pid in list(self.no_maj):
            self.no_maj[pid] = False
        for pid in list(self.need_reconf):
            self.need_reconf[pid] = False
        self.no_maj[self.pid] = False
        self.need_reconf[self.pid] = False

    # ------------------------------------------------------------------
    # The do-forever loop (lines 6-19)
    # ------------------------------------------------------------------
    def step(self) -> None:
        """One iteration of the do-forever loop (participants only)."""
        if not self.recsa.is_participant():
            return
        current = self.recsa.get_config()
        self.no_maj[self.pid] = False
        self.need_reconf[self.pid] = False

        if self.prev_config is not None and is_real_config(current):
            if self.prev_config is not current and self.prev_config != current:
                # A reconfiguration completed since our last look: stale votes
                # gathered for the previous configuration are meaningless.
                self.flush_flags()

        if self.recsa.no_reco() and is_real_config(current) and len(current) > 0:
            self.prev_config = frozenset(current)
            self._evaluate(frozenset(current))

        self._broadcast()

    def _evaluate(self, current: Configuration) -> None:
        trusted = frozenset(self.fd_provider()) | {self.pid}

        # Line 12: can we see a trusted majority of the configuration?
        if not is_majority(trusted, current):
            self.no_maj[self.pid] = True

        # The core (an intersection of every participant's reported set) is
        # built only when the owner lacks a majority, the one case it decides.
        if self.no_maj[self.pid]:
            core = self.core()
            if len(core) > 1 and all(self.no_maj.get(pid, False) for pid in core):
                # Lines 13-14: majority collapse agreed by the whole core.
                self._trigger("majority")
                return

        # Lines 16-18: prediction-driven reconfiguration.
        self.need_reconf[self.pid] = bool(self.policy(current, trusted))
        if self.need_reconf[self.pid]:
            supporters = [
                pid
                for pid in current & trusted
                if self.need_reconf.get(pid, False)
            ]
            if len(supporters) > len(current) / 2:
                self._trigger("prediction")

    def _trigger(self, reason: str) -> None:
        proposal = self.recsa.participants()
        accepted = self.recsa.estab(proposal)
        if accepted:
            self.trigger_count += 1
            if reason == "majority":
                self.majority_triggers += 1
            else:
                self.prediction_triggers += 1
        self.flush_flags()

    def _broadcast(self) -> None:
        flags = (self.no_maj[self.pid], self.need_reconf[self.pid])
        participants = self.recsa.participants()
        # Departed peers leave the bookkeeping (mirrors recSA's cleanup in
        # _clean_after_crashes).
        self.gate.retain(participants)
        message: Optional[RecMAMessage] = None
        for pid in participants:
            if pid == self.pid:
                continue
            if not self.gate.due(pid, flags):
                self.broadcasts_skipped += 1
                continue
            if message is None:
                message = RecMAMessage(
                    sender=self.pid, no_maj=flags[0], need_reconf=flags[1]
                )
            self.send(pid, message)
            self.broadcasts_sent += 1

    # ------------------------------------------------------------------
    # Message receipt (line 20)
    # ------------------------------------------------------------------
    def on_message(self, sender: ProcessId, message: RecMAMessage) -> None:
        """Store a peer's ``⟨noMaj, needReconf⟩`` flags (participants only)."""
        if not self.recsa.is_participant():
            return
        self.no_maj[sender] = bool(message.no_maj)
        self.need_reconf[sender] = bool(message.need_reconf)
