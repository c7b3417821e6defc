"""The composed reconfiguration scheme (recSA + recMA + joining).

The paper presents the two reconfiguration layers and the joining mechanism
as a single "black box" to the application (Figure 1).  This module wires the
three per-processor objects together, exposing the application-facing
interface:

* ``get_config()`` / ``no_reco()`` — the current configuration and whether it
  is stable (from recSA);
* ``request_reconfiguration(set)`` — an explicit delicate reconfiguration
  (delegates to recSA's ``estab``; the virtual-synchrony application's
  coordinator uses this, Algorithm 4.6);
* the joining interface — ``passQuery()`` admission hook and state
  transfer callbacks;
* ``step()`` / ``on_message()`` — plumbing called by the owning simulated
  process once per do-forever iteration / per received message.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable, Optional

from repro.common.types import Configuration, NOT_PARTICIPANT, ProcessId
from repro.core.joining import (
    AdmissionPolicy,
    JoiningProtocol,
    JoinRequest,
    JoinResponse,
    StateInitializer,
    StateProvider,
    StateResetter,
)
from repro.core.recma import RecMA, RecMAMessage
from repro.core.recsa import DEFAULT_GOSSIP_REFRESH_INTERVAL, RecSA, RecSAMessage
from repro.core.stale import is_real_config

FdProvider = Callable[[], FrozenSet[ProcessId]]
SendFn = Callable[[ProcessId, Any], None]
SendManyFn = Callable[[Any], Any]


class ReconfigurationScheme:
    """Per-processor facade over recSA, recMA and the joining mechanism."""

    def __init__(
        self,
        pid: ProcessId,
        fd_provider: FdProvider,
        send: SendFn,
        initial_config: Any = None,
        admission_policy: Optional[AdmissionPolicy] = None,
        state_provider: Optional[StateProvider] = None,
        state_initializer: Optional[StateInitializer] = None,
        state_resetter: Optional[StateResetter] = None,
        send_many: Optional[SendManyFn] = None,
        gossip_refresh_interval: int = DEFAULT_GOSSIP_REFRESH_INTERVAL,
    ) -> None:
        self.pid = pid
        self.fd_provider = fd_provider
        self.recsa = RecSA(
            pid=pid,
            fd_provider=fd_provider,
            send=send,
            initial_config=initial_config,
            send_many=send_many,
            gossip_refresh_interval=gossip_refresh_interval,
        )
        self.recma = RecMA(
            pid=pid,
            recsa=self.recsa,
            fd_provider=fd_provider,
            send=send,
            gossip_refresh_interval=gossip_refresh_interval,
        )
        self.joining = JoiningProtocol(
            pid=pid,
            recsa=self.recsa,
            fd_provider=fd_provider,
            send=send,
            admission_policy=admission_policy,
            state_provider=state_provider,
            state_initializer=state_initializer,
            state_resetter=state_resetter,
        )

    # ------------------------------------------------------------------
    # Application-facing interface
    # ------------------------------------------------------------------
    def configuration(self) -> Optional[Configuration]:
        """The current configuration as a set, or ``None`` when unavailable."""
        value = self.recsa.get_config()
        return frozenset(value) if is_real_config(value) else None

    def no_reco(self) -> bool:
        """True when no reconfiguration is currently in progress."""
        return self.recsa.no_reco()

    def is_participant(self) -> bool:
        """True once this processor has become a participant."""
        return self.recsa.is_participant()

    def request_reconfiguration(self, members: Iterable[ProcessId]) -> bool:
        """Explicitly request a delicate reconfiguration to *members*."""
        return self.recsa.estab(members)

    # ------------------------------------------------------------------
    # Plumbing called by the owning process
    # ------------------------------------------------------------------
    def step(self) -> None:
        """One do-forever iteration of all three layers."""
        self.recsa.step()
        self.recma.step()
        self.joining.step()

    def on_message(self, sender: ProcessId, message: Any) -> bool:
        """Dispatch a received scheme message; returns True when handled."""
        if isinstance(message, RecSAMessage):
            self.recsa.on_message(sender, message)
            return True
        if isinstance(message, RecMAMessage):
            self.recma.on_message(sender, message)
            return True
        if isinstance(message, (JoinRequest, JoinResponse)):
            if isinstance(message, JoinRequest):
                # Join requests only ever originate from non-participants
                # (Algorithm 3.3 line 6), so they double as evidence that the
                # sender's config field is ``]``.  Recording that here keeps
                # the participant set accurate even when a transient fault
                # flipped a former participant into a joiner — otherwise the
                # stale "participant" entry would block the delicate
                # replacement barrier forever.
                self.recsa.store(sender, "config", NOT_PARTICIPANT)
            return self.joining.on_message(sender, message)
        return False
