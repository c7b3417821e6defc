"""Reconfiguration Stability Assurance — Algorithm 3.1 of the paper.

The recSA layer guarantees that

1. all active processors eventually hold identical copies of a single
   configuration,
2. when participants ask to replace the configuration (``estab(set)``), a
   single proposal is selected and installed uniformly, and
3. joining processors can eventually become participants.

It combines two techniques:

* **brute-force stabilization** — stale information (Definition 3.1) starts a
  *configuration reset*: the ``⊥`` value propagates to every ``config`` field
  and, once every trusted processor reports the same failure-detector view,
  each processor adopts its set of trusted processors as the configuration;
* **delicate replacement** — a three-phase automaton (Figure 2): phase 1
  deterministically selects the lexically-maximal proposal, phase 2 replaces
  the configuration with it, and the system then returns to phase 0.

Reconstruction notes
--------------------
The pseudo-code of the technical report is followed closely, with the
following reconstructions, documented here because the report's listing is
garbled in a few places:

* ``noReco()`` returns **True when no reconfiguration/recovery is in
  progress** (the polarity used by Algorithms 3.2/3.3/4.x and by the prose of
  those sections); the invariant tests listed under line 12 are the evidence
  that a reconfiguration *is* in progress.
* The phase automaton is driven by an explicit barrier: a processor adopts
  the lexically-maximal phase-1 notification as soon as it observes one, and
  advances a phase only after every trusted participant (a) reports the same
  participant set and notification — or has demonstrably already advanced —
  and (b) has echoed back the processor's own current values.  ``all`` /
  ``allSeen`` record the barrier progress exactly as in the paper.
* The stale-information tests that compare a peer's *received* phase against
  the local current phase are implemented in their robust form (see
  :mod:`repro.core.stale`).
* The six replicated arrays are a transposition: peer *k*'s ``(fd, part,
  config, prp, all, echo)`` is its last :class:`RecSAMessage`.  recSA keeps
  **one record per processor** (a ``dict`` of those fields plus the entries
  it writes locally) under one :attr:`RecSA.version`, which a write bumps
  only when a value changes.  ``config[]``, ``fd[]``, ``part[]``, ``prp[]``,
  ``all_flags[]`` and ``echo[]`` are writable views over the records; every
  write through a view bumps the version.
* ``noReco()``, ``chsConfig()``/``getConfig()`` and ``FD[i].part`` are pure
  functions of the trusted set and the records, and every layer above polls
  them far more often than either moves, so they are answered from a memo
  keyed on ``(version, trusted set)`` — the set by identity: the failure
  detector hands back the same object until the set changes.  Local writes,
  received gossip and corruption all move the version, so there is no
  ``invalidate()`` to forget.  The memo is derived state like
  any other variable, so a transient fault may plant a wrong one; ``step()``
  drops it at the top of every do-forever iteration, which bounds the life
  of any memo — right or wrong — to one iteration.  Every convergence
  argument of the paper is in iterations, so a wrong interface answer that
  survives at most until the next one stretches a bound by one iteration
  and leaves self-stabilization intact.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.common.codec import wire_type
from repro.common.types import (
    BOTTOM,
    DEFAULT_PROPOSAL,
    NOT_PARTICIPANT,
    Phase,
    ProcessId,
    Proposal,
    canonical,
    make_config,
)
from repro.core.stale import NO_RECORD, StaleInfoType, classify_stale_information

FdProvider = Callable[[], FrozenSet[ProcessId]]
SendFn = Callable[[ProcessId, Any], None]
SendManyFn = Callable[[List[Tuple[ProcessId, Any]]], Any]

#: Default period (in do-forever iterations) of the unconditional full
#: re-broadcast that backs the change-detected gossip.  Re-sending the whole
#: state every K rounds — even to peers that have provably echoed the current
#: values — preserves the paper's fair-communication assumption: any state
#: divergence (lost packet, corrupted echo bookkeeping) is repaired within K
#: rounds, so every convergence bound merely stretches by a constant factor.
#: ``1`` disables change detection entirely (the seed behaviour).
DEFAULT_GOSSIP_REFRESH_INTERVAL = 5


@wire_type
@dataclass(frozen=True)
class EchoTriple:
    """The ``echo`` field: a reflection of the peer's last received values."""

    part: FrozenSet[ProcessId]
    prp: Proposal
    all_flag: bool


@wire_type
@dataclass(frozen=True)
class RecSAMessage:
    """State broadcast at the end of every do-forever iteration (line 29).

    ``echo`` reflects the *receiver's* most recently received values back to
    it, which is how a participant learns that its peers have seen its
    current notification.
    """

    sender: ProcessId
    fd: FrozenSet[ProcessId]
    part: FrozenSet[ProcessId]
    config: Any  # Configuration | BOTTOM | NOT_PARTICIPANT
    prp: Proposal
    all_flag: bool
    echo: Optional[EchoTriple]


#: "No such field" in a record lookup (never stored, never pickled).
_ABSENT = object()


class _FieldView(MutableMapping):
    """One of the pseudo-code's arrays — ``config[]``, ``fd[]``, … — as a view.

    ``recsa.config[k]`` is field ``config`` of *k*'s record (missing record
    or field: missing key).  Every write lands in the record and bumps
    :attr:`RecSA.version`, so corruption plans and tests invalidate the memo
    by writing.  The protocol itself reads the records."""

    __slots__ = ("_recsa", "_field")

    def __init__(self, recsa: "RecSA", field: str) -> None:
        self._recsa = recsa
        self._field = field

    def __getitem__(self, pid: ProcessId) -> Any:
        return self._recsa._records[pid][self._field]

    def get(self, pid: ProcessId, default: Any = None) -> Any:
        return self._recsa._records.get(pid, NO_RECORD).get(self._field, default)

    def __setitem__(self, pid: ProcessId, value: Any) -> None:
        recsa = self._recsa
        recsa._records.setdefault(pid, {})[self._field] = value
        recsa.version += 1

    def __delitem__(self, pid: ProcessId) -> None:
        record = self._recsa._records.get(pid, NO_RECORD)
        if self._field not in record:
            raise KeyError(pid)
        del record[self._field]  # type: ignore[attr-defined]
        self._recsa.version += 1

    def __iter__(self) -> Iterator[ProcessId]:
        field = self._field
        return iter([pid for pid, record in self._recsa._records.items() if field in record])

    def __len__(self) -> int:
        return len(list(iter(self)))

    def __contains__(self, pid: object) -> bool:
        return self._field in self._recsa._records.get(pid, NO_RECORD)  # type: ignore[arg-type]


class RecSA:
    """Per-processor instance of the Reconfiguration Stability Assurance layer.

    Parameters
    ----------
    pid:
        The owning processor's identifier.
    fd_provider:
        Zero-argument callable returning the current trusted set of the
        owner's failure detector (always contains the owner).
    send:
        Callable ``send(destination, message)`` used for the end-of-loop
        broadcast; messages need only fair (not reliable) delivery.
    initial_config:
        Optional configuration to start from.  ``None`` boots the processor
        as a non-participant (the paper's interrupt handler, line 31); the
        special value :data:`BOTTOM` boots it into a configuration reset,
        which is how a fresh cluster bootstraps itself through the
        brute-force technique.
    """

    # The pseudo-code's replicated arrays, as writable views over the records.
    config = property(lambda self: _FieldView(self, "config"))
    fd = property(lambda self: _FieldView(self, "fd"))
    part = property(lambda self: _FieldView(self, "part"))
    prp = property(lambda self: _FieldView(self, "prp"))
    all_flags = property(lambda self: _FieldView(self, "all_flag"))
    echo = property(lambda self: _FieldView(self, "echo"))

    def __init__(
        self,
        pid: ProcessId,
        fd_provider: FdProvider,
        send: SendFn,
        initial_config: Any = None,
        send_many: Optional[SendManyFn] = None,
        gossip_refresh_interval: int = DEFAULT_GOSSIP_REFRESH_INTERVAL,
    ) -> None:
        self.pid = pid
        self.fd_provider = fd_provider
        self.send = send
        self.send_many = send_many
        self.gossip_refresh_interval = max(1, int(gossip_refresh_interval))

        # One record per processor, the owner's included (module docstring).
        # Boot (line 31): every entry defaults to (], dfltNtf, false); an
        # explicit initial configuration overrides the own entry only.
        self._own: Dict[str, Any] = {
            "config": NOT_PARTICIPANT if initial_config is None else initial_config,
            "prp": DEFAULT_PROPOSAL,
            "all_flag": False,
        }
        self._records: Dict[ProcessId, Dict[str, Any]] = {pid: self._own}
        #: Bumped by every write that changes a record.
        self.version = 0
        self.all_seen: Set[ProcessId] = set()
        # Verdicts derived from (trusted set, records) since either last
        # moved, and that key; see :meth:`_memoized`.
        self._memo: Dict[str, Any] = {}
        self._memo_trusted: Optional[FrozenSet[ProcessId]] = None
        self._memo_version = -1

        # Change-detected gossip bookkeeping (line 29 fast path): the local
        # broadcast core — everything in a RecSAMessage except the per-peer
        # ``echo`` — is versioned; a peer that demonstrably holds the current
        # version (its echo reflects our current values) is skipped until the
        # periodic full refresh.
        self._state_version = 0
        self._last_core_key: Any = None
        self._sent_version: Dict[ProcessId, int] = {}
        self._sent_echo: Dict[ProcessId, Optional[EchoTriple]] = {}
        self._rounds_since_sent: Dict[ProcessId, int] = {}

        # Diagnostics / experiment counters.
        self.reset_count = 0
        self.install_count = 0
        self.estab_accepted = 0
        self.estab_rejected = 0
        self.broadcasts_sent = 0
        self.broadcasts_skipped = 0
        self.stale_detections: Dict[StaleInfoType, int] = {t: 0 for t in StaleInfoType}

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------
    def store(self, pid: ProcessId, name: str, value: Any) -> None:
        """Write field *name* of *pid*'s record, bumping the version only when
        the value moved (the object is stored either way: identity next)."""
        record = self._records.get(pid)
        if record is None:
            record = self._records[pid] = {}
        old = record.get(name, _ABSENT)
        if old is not value:
            if old != value:
                self.version += 1
            record[name] = value

    def _receive(self, sender: ProcessId, fields: Dict[str, Any]) -> None:
        """Store received *fields* in *sender*'s record: one bump if any moved
        (the subset test compares each value identity first, in C)."""
        record = self._records.get(sender)
        if record is None:
            self._records[sender] = fields
            self.version += 1
            return
        if not fields.items() <= record.items():
            self.version += 1
        record.update(fields)

    def trusted(self) -> FrozenSet[ProcessId]:
        """The owner's current failure-detector view ``FD[i]``."""
        view = self.fd_provider()
        # The detector hands back one frozenset (owner included) until its
        # set changes: a query is then one identity test and writes nothing.
        if self._own.get("fd") is view:
            return view
        if not isinstance(view, frozenset):
            view = frozenset(view)
        if self.pid not in view:
            view = view | {self.pid}
        self.store(self.pid, "fd", view)
        return view

    def is_participant(self) -> bool:
        """True when the owner is a participant (``config[i] != ]``)."""
        return self._own.get("config", NOT_PARTICIPANT) is not NOT_PARTICIPANT

    def own_config(self) -> Any:
        """``config[i]``: the owner's own config slot, ``]`` while it is not
        a participant."""
        return self._own.get("config", NOT_PARTICIPANT)

    def _memoized(
        self,
        name: str,
        derive: Callable[[FrozenSet[ProcessId]], Any],
        trusted: Optional[FrozenSet[ProcessId]] = None,
    ) -> Any:
        """``derive(trusted)``, derived once per state of its inputs.

        The memo is keyed on the version and on the trusted set's identity;
        it is emptied when either moves and dropped at the top of every
        :meth:`step` (module docstring: a memo lives at most one iteration).
        """
        if trusted is None:
            trusted = self.fd_provider()
            # The detector still hands back the memo's set and nothing moved
            # the version: that set is the stored ``fd[i]``, so ``trusted()``
            # would write nothing and return it.
            if trusted is not self._memo_trusted or self.version != self._memo_version:
                trusted = self.trusted()
        if trusted is not self._memo_trusted or self.version != self._memo_version:
            self._memo = {}
            self._memo_trusted = trusted
            self._memo_version = self.version
        memo = self._memo
        value = memo.get(name, _ABSENT)
        if value is _ABSENT:
            value = memo[name] = derive(trusted)
        return value

    def participants(self, trusted: Optional[FrozenSet[ProcessId]] = None) -> FrozenSet[ProcessId]:
        """``FD[i].part``: trusted processors whose config field is not ``]``."""
        return self._memoized("participants", self._derive_participants, trusted)

    def _derive_participants(self, trusted: FrozenSet[ProcessId]) -> FrozenSet[ProcessId]:
        records = self._records
        return canonical(frozenset({
            pid
            for pid in trusted
            if records.get(pid, NO_RECORD).get("config", NOT_PARTICIPANT) is not NOT_PARTICIPANT
        }))

    def _own_prp(self) -> Proposal:
        return self._own.get("prp", DEFAULT_PROPOSAL)

    def _own_all(self) -> bool:
        return bool(self._own.get("all_flag", False))

    # ------------------------------------------------------------------
    # Interface functions (lines 10-14)
    # ------------------------------------------------------------------
    def chs_config(self) -> Any:
        """``chsConfig()``: the unique non-``]`` config among trusted, or ``⊥``.

        When several distinct values are present the smallest (by sorted
        member tuple, with ``⊥`` ordered first) is returned so the choice is
        deterministic across processors holding the same local data.
        """
        return self._memoized("chs_config", self._derive_chs_config)

    def _derive_chs_config(self, trusted: FrozenSet[ProcessId]) -> Any:
        records = self._records
        values = []
        for pid in trusted:
            value = records.get(pid, NO_RECORD).get("config", NOT_PARTICIPANT)
            if value is BOTTOM:
                return BOTTOM
            if value is not NOT_PARTICIPANT:
                values.append(value)
        if not values:
            return BOTTOM
        # Trusted peers almost always report one configuration: drop
        # duplicates first (``fromkeys`` keeps the first object seen, which
        # is the one ``min`` picks among equal values) and sort members only
        # when distinct values remain.
        distinct = list(dict.fromkeys(values))
        if len(distinct) == 1:
            return distinct[0]
        return min(distinct, key=lambda cfg: tuple(sorted(cfg)))

    def no_reco(self) -> bool:
        """True when no reconfiguration (brute-force or delicate) is in progress.

        The five pieces of evidence of instability (line 12 of Algorithm 3.1;
        see the module docstring for the polarity note):

        1. some trusted processor does not trust the owner back,
        2. configuration conflicts among the trusted processors,
        3. participant sets (including their echoes) have not stabilized,
        4. an ongoing configuration reset (some ``config`` field is ``⊥``),
        5. a delicate replacement in progress (some non-default notification).
        """
        # A valid memo entry answers in one call: the per-event convergence
        # check asks every node this, and nothing moved since the last ask.
        if self.version == self._memo_version and self.fd_provider() is self._memo_trusted:
            value = self._memo.get("no_reco", _ABSENT)
            if value is not _ABSENT:
                return value
        return self._memoized("no_reco", self._derive_no_reco)

    def _derive_no_reco(self, trusted: FrozenSet[ProcessId]) -> bool:
        part = self.participants(trusted)
        records = self._records
        own = self.pid
        # The echo half of (3) only applies to participants — a joiner never
        # broadcasts, so its peers have nothing of it to echo back.
        own_is_participant = self.is_participant()
        agreed: Any = _ABSENT
        # One pass, one record read per processor: the five tests in any order.
        for pid in trusted:
            record = records.get(pid, NO_RECORD)
            value = record.get("config", NOT_PARTICIPANT)
            if value is not NOT_PARTICIPANT:
                if value is BOTTOM:
                    return False  # (4) an ongoing reset
                if agreed is _ABSENT:
                    agreed = value
                elif value is not agreed and value != agreed:
                    return False  # (2) configuration conflict
            if not record.get("prp", DEFAULT_PROPOSAL).is_default:
                return False  # (5) delicate replacement in progress
            if pid == own:
                continue
            view = record.get("fd")
            if view is not None and own not in view:
                return False  # (1) mutual trust
            if pid in part:
                # (3) the participant's last reported participant set, and
                # its echo of ours, equal ours.
                reported = record.get("part")
                if reported is None or (reported is not part and frozenset(reported) != part):
                    return False
                if own_is_participant:
                    echo = record.get("echo")
                    if echo is None or (echo.part is not part and frozenset(echo.part) != part):
                        return False
        return True

    def get_config(self) -> Any:
        """``getConfig()``: the current configuration as seen by the owner."""
        if self.no_reco():
            return self.chs_config()
        return self._own.get("config", NOT_PARTICIPANT)

    def estab(self, members: Iterable[ProcessId]) -> bool:
        """``estab(set)``: request replacement of the configuration by *members*.

        Accepted only while no reconfiguration is in progress and the proposal
        differs from the current configuration and is non-empty.  Returns
        whether the proposal was accepted.
        """
        proposal_set = make_config(members)
        if not proposal_set:
            self.estab_rejected += 1
            return False
        if not self.no_reco():
            self.estab_rejected += 1
            return False
        if proposal_set == self._own.get("config"):
            self.estab_rejected += 1
            return False
        self._adopt(Proposal(phase=Phase.SELECT, members=proposal_set))
        self.estab_accepted += 1
        return True

    def participate(self) -> bool:
        """``participate()``: make the owner a participant (joining mechanism).

        Only allowed while no reconfiguration is in progress; the owner adopts
        the agreed configuration (or ``⊥`` upon complete collapse, which
        starts a reset that eventually re-creates a configuration from the
        failure-detector view).
        """
        if not self.no_reco():
            return False
        self.store(self.pid, "config", self.chs_config())
        return True

    # ------------------------------------------------------------------
    # Macros
    # ------------------------------------------------------------------
    def config_set(self, value: Any) -> None:
        """``configSet(val)``: overwrite every config entry, clear notifications."""
        records = self._records
        scope = {pid for pid, record in records.items() if "config" in record or "prp" in record}
        scope.update(self._own.get("fd", (self.pid,)))
        fields = {"config": value, "prp": DEFAULT_PROPOSAL, "all_flag": False}
        for pid in scope:
            record = records.setdefault(pid, {})
            if not fields.items() <= record.items():
                record.update(fields)
                self.version += 1
        self.all_seen.clear()
        if value is BOTTOM:
            self.reset_count += 1

    def max_ntf(self) -> Optional[Proposal]:
        """``maxNtf()``: lexically-maximal non-default notification, or ``None``."""
        records = self._records
        candidates = []
        for pid in self.participants():
            prp = records.get(pid, NO_RECORD).get("prp", DEFAULT_PROPOSAL)
            if not prp.is_default and prp.members is not None and len(prp.members) > 0:
                candidates.append(prp)
        if not candidates:
            return None
        return max(candidates, key=lambda prp: prp.sort_key())

    # ------------------------------------------------------------------
    # Barrier helpers for the delicate replacement (on a peer's record)
    # ------------------------------------------------------------------
    def _peer_in_sync(self, record: Dict[str, Any], part: FrozenSet[ProcessId]) -> bool:
        """``same(k)``: the peer reports our participant set and notification."""
        reported = record.get("part")
        if reported is None or (reported is not part and frozenset(reported) != part):
            return False
        return record.get("prp", DEFAULT_PROPOSAL) == self._own_prp()

    def _peer_ahead(self, record: Dict[str, Any]) -> bool:
        """The peer has demonstrably already advanced past our current phase."""
        own = self._own_prp()
        peer = record.get("prp", DEFAULT_PROPOSAL)
        if own.is_default:
            return False
        if own.phase is Phase.SELECT:
            return peer.phase is Phase.REPLACE and peer.members == own.members
        if own.phase is Phase.REPLACE:
            return peer.is_default and record.get("config") == own.members
        return False

    def _peer_echoed(
        self, record: Dict[str, Any], part: FrozenSet[ProcessId], with_all: bool
    ) -> bool:
        """``echoNoAll(k)`` / ``echo()``: the peer echoed our current values."""
        echo = record.get("echo")
        if echo is None:
            return False
        if (echo.part is not part and frozenset(echo.part) != part) or echo.prp != self._own_prp():
            return False
        if with_all and echo.all_flag != self._own_all():
            return False
        return True

    # ------------------------------------------------------------------
    # The do-forever loop (lines 24-29)
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one iteration of the do-forever loop and broadcast."""
        # No memo outlives an iteration (module docstring).
        self._memo = {}
        trusted = self.trusted()
        self._clean_after_crashes(trusted)
        part = self.participants(trusted)

        stale = classify_stale_information(
            own=self.pid,
            records=self._records,
            own_view=trusted,
            trusted=trusted,
            participants=part,
        )
        if stale:
            for kind in stale:
                self.stale_detections[kind] += 1
            self.config_set(BOTTOM)

        if self.max_ntf() is None:
            self._brute_force_step(trusted)
        else:
            self._delicate_step(trusted)

        self._broadcast(trusted)

    # -- line 25: clean entries of processors outside the participant set ----
    def _clean_after_crashes(self, trusted: FrozenSet[ProcessId]) -> None:
        part = self.participants(trusted)
        for pid, record in self._records.items():
            if pid == self.pid:
                continue
            if pid not in part and "config" in record:
                self.store(pid, "config", NOT_PARTICIPANT)
                self.store(pid, "prp", DEFAULT_PROPOSAL)
                self.store(pid, "all_flag", False)
            if pid not in trusted and "prp" in record:
                self.store(pid, "prp", DEFAULT_PROPOSAL)
                self.store(pid, "all_flag", False)
                for name in ("echo", "part"):
                    if record.pop(name, _ABSENT) is not _ABSENT:
                        self.version += 1
                for ledger in (self._sent_version, self._sent_echo, self._rounds_since_sent):
                    ledger.pop(pid, None)

    # -- line 26: brute-force stabilization -----------------------------------
    def _brute_force_step(
        self, trusted: FrozenSet[ProcessId], allow_completion: bool = True
    ) -> None:
        # Nullify the configuration upon conflict.
        records = self._records
        values = set()
        for pid in trusted:
            value = records.get(pid, NO_RECORD).get("config", NOT_PARTICIPANT)
            if value is NOT_PARTICIPANT or value is BOTTOM:
                continue
            values.add(value)
        if len(values) > 1:
            self.config_set(BOTTOM)

        # Reset completes once every trusted processor reports the same
        # failure-detector view: adopt that view as the configuration.
        if (
            allow_completion
            and self._own.get("config") is BOTTOM
            and self._fd_views_agree(trusted)
        ):
            self.config_set(make_config(trusted))

    def _fd_views_agree(self, trusted: FrozenSet[ProcessId]) -> bool:
        records = self._records
        for pid in trusted:
            if pid == self.pid:
                continue
            view = records.get(pid, NO_RECORD).get("fd")
            if view is None or (view is not trusted and frozenset(view) != trusted):
                return False
        return True

    # -- line 28: delicate replacement ----------------------------------------
    def _delicate_step(self, trusted: FrozenSet[ProcessId]) -> None:
        maximal = self.max_ntf()
        if maximal is None:  # pragma: no cover - guarded by caller
            return
        own = self._own_prp()

        # Adoption: phase-0 processors join the replacement by adopting the
        # lexically maximal proposal; phase-1 processors re-adopt a larger one.
        # A leftover phase-2 notification whose set we have *already installed*
        # is not re-adopted — its owner is simply a laggard finishing the
        # replacement (it sees us as "ahead"); re-adopting would restart the
        # replacement forever.  A phase-2 notification proposing a different
        # set is adopted so that the selected configuration is installed
        # uniformly (Lemma 3.14: a surviving phase-2 notification eventually
        # becomes the quorum configuration).
        if maximal.phase is Phase.SELECT or maximal.phase is Phase.REPLACE:
            candidate = Proposal(phase=Phase.SELECT, members=maximal.members)
            already_installed = (
                maximal.phase is Phase.REPLACE
                and self._own.get("config") == maximal.members
            )
            if own.is_default and not already_installed:
                self._adopt(candidate)
                own = candidate
            elif (
                own.phase is Phase.SELECT
                and maximal.members != own.members
                and candidate.sort_key() > own.sort_key()
            ):
                self._adopt(candidate)
                own = candidate

        if own.is_default:
            # Only leftover phase-2 traffic is visible; either its owner will
            # finish on its own or the stale-information tests will reset.
            return

        part = self.participants(trusted)
        records = self._records
        others = [(pid, records.get(pid, NO_RECORD)) for pid in part if pid != self.pid]

        # Stage A: raise the all flag once every participant is in sync (or
        # ahead) and has echoed our current notification.
        if not self._own_all():
            ready = all(
                (self._peer_in_sync(record, part) or self._peer_ahead(record))
                and (self._peer_echoed(record, part, with_all=False) or self._peer_ahead(record))
                for _, record in others
            )
            if ready:
                self.store(self.pid, "all_flag", True)

        # Record peers known to have completed the phase (their all flag, or
        # evidence they already advanced).
        for pid, record in others:
            peer_all = bool(record.get("all_flag", False))
            if (peer_all and self._peer_in_sync(record, part)) or self._peer_ahead(record):
                self.all_seen.add(pid)

        # Stage B: advance once the barrier is complete.
        if not self._own_all():
            return
        barrier_seen = all(pid in self.all_seen for pid, _ in others)
        barrier_echoed = all(
            self._peer_echoed(record, part, with_all=True) or self._peer_ahead(record)
            for _, record in others
        )
        if barrier_seen and barrier_echoed:
            self._advance_phase()

    def _adopt(self, proposal: Proposal) -> None:
        self.store(self.pid, "prp", proposal)
        self.store(self.pid, "all_flag", False)
        self.all_seen.clear()

    def _advance_phase(self) -> None:
        own = self._own_prp()
        if own.phase is Phase.SELECT:
            # Entering phase 2 installs the selected configuration (line 28,
            # case 2 of the select statement).
            self.store(self.pid, "prp", Proposal(phase=Phase.REPLACE, members=own.members))
            self.store(self.pid, "config", own.members)
            self.install_count += 1
        elif own.phase is Phase.REPLACE:
            # Returning to phase 0: the replacement is complete.
            self.store(self.pid, "prp", DEFAULT_PROPOSAL)
        self.store(self.pid, "all_flag", False)
        self.all_seen.clear()

    # -- line 29: broadcast -----------------------------------------------------
    def _broadcast(self, trusted: FrozenSet[ProcessId]) -> None:
        """End-of-iteration gossip with change detection.

        The message core (``fd``, ``part``, ``config``, ``prp``, ``all``) is
        identical for every destination; it is built once and versioned.  A
        re-broadcast to a peer is skipped only when *all* of the following
        hold, so the skip can never hide information the peer still needs:

        * the core has not changed since the last send to that peer,
        * our echo of *that peer's* values has not changed either,
        * the peer's last echo reflects our current ``(part, prp, all)`` —
          evidence it already received values equal to the current ones,
        * fewer than ``gossip_refresh_interval`` rounds have passed since the
          last send (the unconditional refresh restores the paper's
          fair-communication guarantee against lost packets and corrupted
          bookkeeping; see PERFORMANCE.md for the stabilization argument).
        """
        own_config = self._own.get("config", NOT_PARTICIPANT)
        if own_config is NOT_PARTICIPANT:
            # Non-participants follow the computation silently (line 29's
            # guard): they receive but never broadcast.
            return
        part = self.participants(trusted)
        own_prp = self._own_prp()
        own_all = self._own_all()

        core_key = (trusted, part, own_config, own_prp, own_all)
        if core_key != self._last_core_key:
            self._state_version += 1
            self._last_core_key = core_key
        else:
            # Same values: keep sending the objects the peers already hold,
            # so their receipt (and ours of their echo) compares by identity.
            core_key = self._last_core_key
        version = self._state_version
        refresh = self.gossip_refresh_interval
        records = self._records

        outgoing: List[Tuple[ProcessId, Any]] = []
        for pid in trusted:
            if pid == self.pid:
                continue
            record = records.get(pid, NO_RECORD)
            # Our echo of this peer's values, as bare fields: two sends in
            # three are skipped and most of the rest repeat the last echo,
            # so an EchoTriple is built only when a new one goes out.
            echo = self._sent_echo.get(pid)
            echo_fields: Optional[Tuple[Any, ...]] = None
            if "part" in record or "prp" in record:
                echo_fields = (
                    record.get("part", frozenset()),
                    record.get("prp", DEFAULT_PROPOSAL),
                    bool(record.get("all_flag", False)),
                )
            echo_unchanged = echo_fields == (
                None if echo is None else (echo.part, echo.prp, echo.all_flag)
            )
            rounds = self._rounds_since_sent.get(pid, refresh)
            if (
                refresh > 1
                and rounds + 1 < refresh
                and self._sent_version.get(pid) == version
                and echo_unchanged
                and self._peer_echoed(record, part, with_all=True)
            ):
                self._rounds_since_sent[pid] = rounds + 1
                self.broadcasts_skipped += 1
                continue
            if not echo_unchanged:
                echo = None if echo_fields is None else EchoTriple(*echo_fields)
            outgoing.append((pid, self._full(core_key, echo)))
            self._sent_version[pid] = version
            self._sent_echo[pid] = echo
            self._rounds_since_sent[pid] = 0

        if outgoing:
            self.broadcasts_sent += len(outgoing)
            if self.send_many is not None:
                self.send_many(outgoing)
            else:
                for pid, message in outgoing:
                    self.send(pid, message)

    def _full(self, core_key: Tuple[Any, ...], echo: Optional[EchoTriple]) -> RecSAMessage:
        trusted, part, own_config, own_prp, own_all = core_key
        return RecSAMessage(
            sender=self.pid,
            fd=trusted,
            part=part,
            config=own_config,
            prp=own_prp,
            all_flag=own_all,
            echo=echo,
        )

    # ------------------------------------------------------------------
    # Message receipt (line 30)
    # ------------------------------------------------------------------
    def on_message(self, sender: ProcessId, message: RecSAMessage) -> None:
        """Store the peer's state (the paper's ``upon receive`` handler)."""
        if sender == self.pid:
            return
        record = self._records.get(sender)
        echo = message.echo
        # A peer re-sends the very objects it sent last while its state is
        # unchanged, so most receipts are one identity test per field.
        if (
            record is None
            or record.get("fd") is not message.fd
            or record.get("part") is not message.part
            or record.get("config") is not message.config
            or record.get("prp") is not message.prp
            or record.get("all_flag") is not message.all_flag
            or (echo is not None and record.get("echo") is not echo)
        ):
            received = dict(
                fd=frozenset(message.fd), part=frozenset(message.part), config=message.config,
                prp=message.prp, all_flag=bool(message.all_flag),
            )
            if echo is not None:
                received["echo"] = echo
            self._receive(sender, received)

    # Kept only for the spine's span table, which wraps these names (ROADMAP 6(d)).
    on_delta = on_digest = on_message
