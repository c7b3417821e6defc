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
* the joining interface — the ``passQuery()`` admission hook and the state
  transfer callbacks, attributes of :attr:`joining` that the application
  sets (as it sets ``evalConf()`` on :attr:`recma`).

The owning :class:`~repro.node.node.ClusterNode` steps the three layers and
hands each one the messages it consumes, as it does every other layer.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable, Optional

from repro.common.types import Configuration, ProcessId
from repro.core.joining import JoiningProtocol
from repro.core.recma import RecMA
from repro.core.recsa import RecSA
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
        send_many: SendManyFn,
        initial_config: Any,
    ) -> None:
        self.pid = pid
        self.fd_provider = fd_provider
        self.recsa = RecSA(
            pid=pid,
            fd_provider=fd_provider,
            send_many=send_many,
            initial_config=initial_config,
        )
        self.recma = RecMA(pid=pid, recsa=self.recsa, send=send)
        self.joining = JoiningProtocol(
            pid=pid,
            recsa=self.recsa,
            fd_provider=fd_provider,
            send=send,
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
