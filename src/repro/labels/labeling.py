"""The reconfiguration-aware labeling service — Algorithm 4.1 of the paper.

The service is run by **configuration members only**.  Each member sends
every other member its maximal label pair and the pair it last received from
that member, whenever either changed as ``(label, legit)`` and at least every
``gossip_refresh_interval`` iterations (:class:`repro.core.gossip.GossipGate`:
the fair communication the proofs need); the receipt action (Algorithm 4.2,
:class:`repro.labels.store.LabelStore`) keeps the bounded structures
consistent and elects a local maximal label.  The correctness argument of the
paper then guarantees that members converge to a single, globally maximal
label.

Interaction with the reconfiguration scheme:

* while ``noReco()`` reports a reconfiguration in progress, no labels are
  sent, received or created;
* after a reconfiguration completes (``confChange()``), the label structures
  are rebuilt for the new member set, all queues are emptied, labels created
  by departed members are dropped, and the member re-elects a maximal label.

:class:`LabelingService` is also the member skeleton that the counters
extend (:class:`repro.counters.service.CounterService`, Algorithms 4.3–4.5):
it owns the member gate, ``confChange()``, the store rebuild, the gated
member loop and the guarded receipt; a subclass names the pair it gossips,
its gate key, its message type and its receipt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.common.codec import wire_type
from repro.common.types import Configuration, ProcessId
from repro.core.gossip import GossipGate
from repro.core.scheme import ReconfigurationScheme
from repro.labels.label import EpochLabel, LabelPair
from repro.labels.store import LabelStore

SendFn = Callable[[ProcessId, Any], None]


@wire_type
@dataclass(frozen=True)
class LabelMessage:
    """The ``⟨max[i], max[k]⟩`` exchange of Algorithm 4.1 (line 17)."""

    sender: ProcessId
    sent_max: Optional[LabelPair]
    last_sent: Optional[LabelPair]


class LabelingService:
    """Per-processor labeling service layered on the reconfiguration scheme."""

    #: The wire type of the member-to-member exchange: ``(sender, sent_max,
    #: last_sent)``.
    message_type: type = LabelMessage

    def __init__(
        self,
        pid: ProcessId,
        scheme: ReconfigurationScheme,
        send: SendFn,
    ) -> None:
        self.pid = pid
        self.scheme = scheme
        self.send = send
        self.store: Optional[LabelStore] = None
        self._store_members: Optional[Configuration] = None
        self.gate = GossipGate(scheme.recsa.gossip_refresh_interval)
        self.rebuild_count = 0

    # ------------------------------------------------------------------
    # Config tracking
    # ------------------------------------------------------------------
    def _stable_members(self) -> Optional[Configuration]:
        """The configuration this processor serves as a member of — ``None``
        while a reconfiguration is in progress (``noReco()`` is false) or it
        is not a member.  The member-side handlers ask once per message."""
        scheme = self.scheme
        if not scheme.no_reco():
            return None
        config = scheme.configuration()
        if config is None or self.pid not in config:
            return None
        return config

    def _conf_changed(self, members: Configuration) -> bool:
        """``confChange()``: the label structures lag behind the configuration.

        The configuration is compared by identity first: the scheme hands
        back the one canonical set object while nothing changes."""
        stored = self._store_members
        return not (stored is members or stored == members)

    def _rebuild_for(self, members: Configuration) -> None:
        """Lines 9-14: rebuild structures after a completed reconfiguration."""
        if self.store is None:
            self.store = LabelStore(owner=self.pid, members=members)
        else:
            self.store.rebuild(members)
            self.store.empty_all_queues()
        self.store.clean_non_member_labels()
        self.store.receipt_action(None, self.store.own_max(), self.pid)
        self._store_members = members
        self.gate.reset()
        self.rebuild_count += 1

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def max_label(self) -> Optional[EpochLabel]:
        """The member's current (legitimate) maximal label, if any."""
        if self.store is None:
            return None
        return self.store.local_max_label()

    def labels_created(self) -> int:
        """How many fresh labels this member has created (experiment E6)."""
        return 0 if self.store is None else self.store.labels_created

    # ------------------------------------------------------------------
    # What the member gossips (the store is built by then)
    # ------------------------------------------------------------------
    def _own_pair(self) -> Optional[LabelPair]:
        return self.store.clean_pair(self.store.own_max())

    def _last_sent(self, member: ProcessId) -> Optional[LabelPair]:
        return self.store.clean_pair(self.store.max_pairs.get(member))

    @staticmethod
    def _gate_key(pair: Optional[LabelPair]) -> Optional[Tuple[EpochLabel, bool]]:
        """The part of a gossiped pair whose change is worth a send."""
        return None if pair is None else (pair.ml, pair.legit)

    # ------------------------------------------------------------------
    # Node hooks
    # ------------------------------------------------------------------
    def on_timer(self) -> None:
        """One iteration: rebuild after reconfiguration or gossip."""
        members = self._stable_members()
        if members is None:
            return
        if self._conf_changed(members):
            self._rebuild_for(members)
        else:
            self._gossip(members)

    def _gossip(self, members: Configuration) -> None:
        assert self.store is not None
        own = self._own_pair()
        own_key = self._gate_key(own)
        for member in members:
            if member == self.pid:
                continue
            last_sent = self._last_sent(member)
            if self.gate.due(member, (own_key, self._gate_key(last_sent))):
                self.send(
                    member,
                    self.message_type(sender=self.pid, sent_max=own, last_sent=last_sent),
                )

    def on_message(self, sender: ProcessId, message: Any) -> bool:
        """Handle a label exchange; returns True when the message was ours."""
        if not isinstance(message, LabelMessage):
            return False
        self._on_gossip(sender, message)
        return True

    def _on_gossip(self, sender: ProcessId, message: Any) -> None:
        """Apply a member's gossip — only in a stable configuration whose
        structures are current, and only from a member of it."""
        members = self._stable_members()
        if members is None or self._conf_changed(members):
            return
        if sender not in members:
            return
        self._receipt(sender, message)

    def _receipt(self, sender: ProcessId, message: LabelMessage) -> None:
        assert self.store is not None
        self.store.clean_non_member_labels()
        self.store.receipt_action(
            sent_max=self.store.clean_pair(message.sent_max),
            last_sent=self.store.clean_pair(message.last_sent),
            sender=sender,
        )
