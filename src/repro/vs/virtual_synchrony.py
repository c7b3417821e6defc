"""Self-stabilizing reconfigurable virtually synchronous SMR (Algorithm 4.7).

Structure of the reconstruction (the pseudo-code of the technical report is
followed functionally; ``docs/vs.md`` has the wire-level protocol — what a
:class:`VSState` carries when, the prompt-step guards, and the storm and
self-stabilization arguments):

* every participant periodically broadcasts its VS state (view, status,
  round, proposed view, suspend flag, pending input, replica digest, ...) to
  the trusted participants — the ``state[]`` exchange of Algorithm 4.7;
* a **coordinator** is recognized (``valCrd``) when it proposes/leads a view
  whose member set contains a majority of the current configuration and whose
  identifier — a counter obtained from the counter-increment algorithm — is
  the largest among such proposals;
* when no valid coordinator is visible, a configuration member that trusts a
  majority of the configuration and observes a majority agreeing that there
  is no coordinator obtains a fresh counter and **proposes** a view over its
  trusted participants (status ``PROPOSE``);
* once every proposed member echoes the proposal, the coordinator
  synchronizes the replica state (adopting the state with the largest
  ``(view, round)`` among the members) and **installs** the view
  (status ``INSTALL`` then ``MULTICAST`` with round 0);
* in ``MULTICAST`` status the coordinator runs rounds: it collects one
  pending input from each member's report, delivers the batch in a
  deterministic order, applies it to the replicated state machine and
  advances the round; its state record ships the *batch*, not the log — a
  follower one round behind applies the same batch to its own replica, and
  an O(1) digest (history length + running checksum) in every record lets
  the coordinator see a replica that disagrees and overwrite it with its
  full state, which is exactly what makes the replication virtually
  synchronous;
* rounds are **message-driven**: a follower applies a new round and answers
  the coordinator on receipt, and the coordinator runs the next round on the
  report that completes its barrier whenever a command is waiting; the
  periodic timer remains the fair-communication backstop (retransmission,
  idle rounds, repair, and the periodic recompute of the digest and machine
  from the actual history);
* **coordinator-led delicate reconfiguration** (Algorithm 4.6): when the
  coordinator's ``evalConfig()`` policy asks for a reconfiguration it raises
  ``suspend``, waits until every view member reports having suspended, then
  calls the scheme's ``estab`` (``request_reconfiguration``); multicast stays
  suspended while ``noReco()`` reports a reconfiguration, and once the new
  configuration is installed a (possibly new) coordinator re-establishes a
  view carrying the preserved state.
"""

from __future__ import annotations

import enum
import logging
import zlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.common.codec import CodecError, encode_binary, wire_enum, wire_type
from repro.common.types import Configuration, ProcessId
from repro.core.scheme import ReconfigurationScheme
from repro.counters.service import CounterService, IncrementOutcome
from repro.vs.smr import LogStateMachine, StateMachine
from repro.vs.view import View

_log = logging.getLogger(__name__)

SendFn = Callable[[ProcessId, Any], None]
DeliveryCallback = Callable[[int, View, List[Any]], None]
EvalConfigPolicy = Callable[[], bool]
#: The O(1) replica digest: ``(history length, running checksum)``.
Digest = Tuple[int, int]
#: Where a member says it is: ``(view, status, rnd, digest)``.
Report = Tuple[Optional[View], "VSStatus", int, Digest]

#: Every this many do-forever iterations a member stops trusting its
#: incremental digest and machine: it recomputes the checksum from its actual
#: history and rebuilds the machine by replaying it, so a corrupted replica
#: shows up in its next report and is overwritten (docs/vs.md).
RECOMPUTE_INTERVAL = 16


def _checksum(crc: int, entry: Tuple[int, Any]) -> int:
    """*crc* extended by one history entry: CRC-32 of the entry's canonical
    wire bytes, so equal histories agree across processes (``hash()`` is
    salted per process).  A command that cannot go on the wire only exists
    inside one simulator process, where ``repr`` is as good."""
    try:
        raw = encode_binary(entry)
    except CodecError:
        raw = repr(entry).encode()
    return zlib.crc32(raw, crc)


def _history_checksum(history: List[Tuple[int, Any]]) -> int:
    crc = 0
    for entry in history:
        crc = _checksum(crc, entry)
    return crc


@wire_enum
class VSStatus(enum.Enum):
    """The three statuses of Algorithm 4.7."""

    MULTICAST = "multicast"
    PROPOSE = "propose"
    INSTALL = "install"


@wire_type
@dataclass(frozen=True)
class VSState:
    """The per-participant state record exchanged by Algorithm 4.7."""

    sender: ProcessId
    view: Optional[View]
    status: VSStatus
    rnd: int
    prop_view: Optional[View]
    no_crd: bool
    suspend: bool
    input: Optional[Tuple[ProcessId, int, Any]]
    state_snapshot: Any = None
    delivered: Tuple = ()
    crd: Optional[ProcessId] = None
    digest: Digest = (0, 0)
    #: On a multicasting coordinator's full-state record: the receiver's
    #: report this record answers.
    answers: Optional[Report] = None

    def report(self) -> Report:
        return (self.view, self.status, self.rnd, self.digest)


def _never_reconfigure() -> bool:
    """Default evalConfig policy — a module-level function (not a lambda) so
    live service instances stay picklable inside disk-backed snapshots."""
    return False


class VirtualSynchronyService:
    """Per-participant virtually synchronous SMR service."""

    def __init__(
        self,
        pid: ProcessId,
        scheme: ReconfigurationScheme,
        counters: CounterService,
        send: SendFn,
        state_machine: Optional[StateMachine] = None,
        eval_config: Optional[EvalConfigPolicy] = None,
        delivery_callback: Optional[DeliveryCallback] = None,
    ) -> None:
        self.pid = pid
        self.scheme = scheme
        self.counters = counters
        self.send = send
        self.machine: StateMachine = state_machine or LogStateMachine()
        self.eval_config: EvalConfigPolicy = eval_config or _never_reconfigure
        self.delivery_callback = delivery_callback

        # Algorithm 4.7 state.
        self.view: Optional[View] = None
        self.status: VSStatus = VSStatus.MULTICAST
        self.rnd: int = 0
        self.prop_view: Optional[View] = None
        self.no_crd: bool = True
        self.suspend: bool = False
        self.reconf_ready: bool = False

        # Received peer states.
        self.states: Dict[ProcessId, VSState] = {}

        # Client interaction.
        self._pending: List[Tuple[ProcessId, int, Any]] = []
        self._next_input_seq = 0
        self._delivered_history: List[Tuple[int, Any]] = []
        self._history_crc = 0
        self._last_batch: Tuple = ()
        # The coordinator's digest before its last batch: what a member that
        # has not applied that batch yet legitimately reports.
        self._prev_digest: Digest = (0, 0)
        self._iterations = 0

        # Election bookkeeping.
        self._counter_pending = False
        self._last_coordinator: Optional[ProcessId] = None

        # Diagnostics.
        self.views_installed = 0
        self.rounds_completed = 0
        self.reconfigurations_requested = 0
        self.replica_repairs = 0

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, command: Any) -> None:
        """Submit *command* for totally-ordered delivery in the current view.

        A command that finds the queue empty is announced at once instead of
        on the next timer iteration: the coordinator tries a round, a
        follower pushes its state record (which carries the command) to the
        coordinator.  One message per command, so clients cannot start a storm.
        """
        self._pending.append((self.pid, self._next_input_seq, command))
        self._next_input_seq += 1
        if len(self._pending) > 1 or not self.scheme.is_participant():
            return
        coordinator = self._last_coordinator
        if coordinator == self.pid:
            self._prompt_round()
        elif coordinator is not None:
            self.send(coordinator, self._own_state())

    def pending_count(self) -> int:
        """Commands submitted locally and not yet delivered."""
        return len(self._pending)

    def delivered_commands(self) -> List[Any]:
        """Every command this replica has applied, in application order."""
        return [cmd for _, cmd in self._delivered_history]

    def delivery_history(self) -> Tuple[Tuple[int, Any], ...]:
        """The totally-ordered ``(round, command)`` delivery record.

        The stable surface consistency checks compare across replicas: within
        one installed view every member's history evolves along the
        coordinator's chain, so any two same-view histories must be
        prefix-ordered (the ``smr_agreement`` audit invariant).
        """
        return tuple(self._delivered_history)

    def is_coordinator(self) -> bool:
        """True when this participant currently leads the installed view."""
        return self._valid_coordinator() == self.pid

    # ------------------------------------------------------------------
    # Coordinator recognition (lines 6-8 of Algorithm 4.7)
    # ------------------------------------------------------------------
    def _own_state(self) -> VSState:
        return VSState(
            sender=self.pid,
            view=self.view,
            status=self.status,
            rnd=self.rnd,
            prop_view=self.prop_view,
            no_crd=self.no_crd,
            suspend=self.suspend,
            input=self._pending[0] if self._pending else None,
            state_snapshot=None,
            delivered=self._last_batch,
            crd=self._last_coordinator,
            digest=self._digest(),
        )

    def _digest(self) -> Digest:
        return (len(self._delivered_history), self._history_crc)

    def _all_states(self) -> Dict[ProcessId, VSState]:
        states = dict(self.states)
        states[self.pid] = self._own_state()
        return states

    def _seeming_coordinators(self, config: Configuration) -> List[ProcessId]:
        trusted = self.scheme.recsa.trusted()
        majority = len(config) // 2 + 1
        seeming: List[ProcessId] = []
        for pid, state in self._all_states().items():
            if pid not in trusted or pid not in config:
                continue
            prop = state.prop_view
            if prop is None:
                continue
            if pid != prop.coordinator:
                continue
            if pid not in prop.members:
                continue
            if len(prop.members & config) < majority:
                continue
            if state.status is VSStatus.MULTICAST and (
                state.view is None or state.view != prop
            ):
                continue
            seeming.append(pid)
        return seeming

    def _valid_coordinator(self) -> Optional[ProcessId]:
        config = self.scheme.configuration()
        if config is None:
            return None
        seeming = self._seeming_coordinators(config)
        if not seeming:
            return None
        states = self._all_states()

        def key(pid: ProcessId):
            prop = states[pid].prop_view
            assert prop is not None
            return (prop.view_id.sort_key(), pid)

        # The largest proposal identifier wins.  After transient faults two
        # leading proposals can carry *incomparable* counters (their epoch
        # labels come from different corrupted label states); the
        # deterministic sort key then breaks the tie identically at every
        # processor, so the system still agrees on one coordinator and the
        # labeling scheme repairs the epoch ordering in the background.
        return max(seeming, key=key)

    # ------------------------------------------------------------------
    # The do-forever loop
    # ------------------------------------------------------------------
    def on_timer(self) -> None:
        """One iteration of the Algorithm 4.7 do-forever loop."""
        if not self.scheme.is_participant():
            return
        # Modulo, so that no corrupted counter value postpones the next pass
        # by more than one interval.
        self._iterations = (self._iterations + 1) % RECOMPUTE_INTERVAL
        if self._iterations == 0:
            self._recompute_replica()
        config = self.scheme.configuration()
        if config is None:
            self._broadcast()
            return

        coordinator = self._valid_coordinator()
        self._last_coordinator = coordinator
        self.no_crd = coordinator is None

        if not self.scheme.no_reco():
            # During a reconfiguration message delivery stays suspended.
            self.suspend = True
        elif coordinator is not None and coordinator != self.pid:
            state = self.states.get(coordinator)
            if state is not None and state.status in (VSStatus.PROPOSE, VSStatus.INSTALL):
                self.suspend = False
                self.reconf_ready = False

        if coordinator == self.pid:
            self._coordinator_step(config)
        elif coordinator is not None:
            self._follower_step(coordinator)
        else:
            self._election_step(config)

        self._broadcast()

    # -- election (line 10) -------------------------------------------------
    def _election_step(self, config: Configuration) -> None:
        if self.pid not in config:
            return
        trusted = self.scheme.recsa.trusted()
        majority = len(config) // 2 + 1
        if len(trusted & config) < majority:
            return
        if not self.scheme.no_reco():
            return
        states = self._all_states()
        no_crd_supporters = [
            pid
            for pid, state in states.items()
            if pid in trusted and state.no_crd
        ]
        i_lead_previous = (
            self.prop_view is not None
            and self.prop_view.coordinator == self.pid
        )
        if len(no_crd_supporters) < majority and not i_lead_previous:
            return
        if self._counter_pending:
            return
        # Obtain a fresh view identifier from the counter service.
        participants = frozenset(self.scheme.recsa.participants()) & trusted
        members = participants | {self.pid}
        self._counter_pending = True

        def _on_counter(outcome: IncrementOutcome) -> None:
            self._counter_pending = False
            if not outcome.success or outcome.counter is None:
                return
            self.prop_view = View(view_id=outcome.counter, members=members)
            self.status = VSStatus.PROPOSE
            self.suspend = False
            self.reconf_ready = False

        self.counters.increment(_on_counter)

    # -- coordinator (lines 11-17) -------------------------------------------
    def _coordinator_step(self, config: Configuration) -> None:
        states = self._all_states()
        assert self.prop_view is not None

        if self.status is VSStatus.PROPOSE:
            members = self.prop_view.members
            agreed = all(
                pid == self.pid
                or (
                    (state := states.get(pid)) is not None
                    and state.prop_view == self.prop_view
                    and state.status is VSStatus.PROPOSE
                    # The member's replica snapshot must have arrived so that
                    # synchState() can pick the most advanced state.
                    and state.state_snapshot is not None
                )
                for pid in members
            )
            if agreed:
                self._synchronize_state(members)
                self.status = VSStatus.INSTALL
            return

        if self.status is VSStatus.INSTALL:
            members = self.prop_view.members
            agreed = all(
                (state := states.get(pid)) is not None
                and state.prop_view == self.prop_view
                and state.status in (VSStatus.INSTALL, VSStatus.MULTICAST)
                for pid in members
            )
            if agreed:
                self.view = self.prop_view
                self.status = VSStatus.MULTICAST
                self.rnd = 0
                self.suspend = False
                self.reconf_ready = False
                self.views_installed += 1
            return

        # MULTICAST status.
        if self.view is None:
            return
        members = self.view.members
        if not self._in_sync() or not members <= self.scheme.recsa.trusted():
            # A member stopped following (crash or FD change): propose a new
            # view over the processors still trusted.  A member that merely
            # lags or diverged is sent the full state by ``_broadcast``.
            # The failure detector is read directly because the barrier alone
            # cannot see a crash while delivery is suspended: no round runs,
            # so the dead member's last report keeps matching (rnd, digest).
            self._maybe_repropose(config)
            return

        if not self.scheme.no_reco():
            return

        # Coordinator-led delicate reconfiguration (Algorithm 4.6).
        if self.eval_config():
            self.suspend = True
        if self.suspend:
            all_suspended = all(
                (state := states.get(pid)) is not None and (state.suspend or pid == self.pid)
                for pid in members
            )
            self.reconf_ready = all_suspended
            if self.reconf_ready and self.eval_config():
                proposal = frozenset(self.scheme.recsa.participants())
                if self.scheme.request_reconfiguration(proposal):
                    self.reconfigurations_requested += 1
                    self.suspend = True
                    return
                if proposal == self.scheme.configuration():
                    # Nothing to change (the participants already are the
                    # configuration): resume instead of staying suspended.
                    self.suspend = False
                    self.reconf_ready = False
                return
            if self.reconf_ready:
                # The policy withdrew its request: resume normal operation.
                self.suspend = False
                self.reconf_ready = False
        if self.suspend:
            return

        # A multicast round (possibly empty: idle rounds are timer-paced).
        self._run_round(self._collect_batch())

    def _follows(self, state: Optional[VSState], rnd: int, digest: Digest) -> bool:
        """*state* reports this view, multicasting, at exactly (*rnd*, *digest*)."""
        return (
            state is not None
            and state.rnd == rnd
            and state.digest == digest
            and state.status is VSStatus.MULTICAST
            and state.view == self.view
        )

    def _within_a_round(self, state: VSState) -> bool:
        """*state* reports the coordinator's current round or the one before
        (its batch is in flight or will be retransmitted)."""
        return self._follows(state, self.rnd, self._digest()) or self._follows(
            state, self.rnd - 1, self._prev_digest
        )

    def _in_sync(self) -> bool:
        """The round barrier: every other member reported the coordinator's
        own round *and* replica digest."""
        assert self.view is not None
        digest = self._digest()
        return all(
            pid == self.pid or self._follows(self.states.get(pid), self.rnd, digest)
            for pid in self.view.members
        )

    def _collect_batch(self) -> List[Tuple[ProcessId, int, Any]]:
        """One pending input per member, from the reports behind the barrier."""
        assert self.view is not None
        batch = []
        if self._pending:
            batch.append(self._pending[0])
        for pid in self.view.members:
            state = self.states.get(pid)
            if pid != self.pid and state is not None and state.input is not None:
                batch.append(state.input)
        return batch

    def _run_round(self, batch: List[Tuple[ProcessId, int, Any]]) -> None:
        self._prev_digest = self._digest()
        self._apply_batch(batch)
        self.rounds_completed += 1

    def _prompt_round(self) -> None:
        """The coordinator's message-driven step: run the next round *now* if
        the barrier is complete and a command is waiting.

        Everything else — idle rounds, repair, re-proposal, the delicate
        reconfiguration hand-shake — stays with the timer, so every prompt
        round consumes at least one client command and an idle system sends
        nothing beyond its periodic broadcast.
        """
        if (
            self.view is None
            or self.status is not VSStatus.MULTICAST
            or self.suspend
            or not self._in_sync()
            or not self.scheme.no_reco()
            or self.eval_config()
        ):
            return
        batch = self._collect_batch()
        if not batch:
            return
        self._run_round(batch)
        state = self._own_state()
        for pid in self.view.members:
            if pid != self.pid:
                self.send(pid, state)

    def _maybe_repropose(self, config: Configuration) -> None:
        if self._counter_pending or not self.scheme.no_reco():
            return
        trusted = self.scheme.recsa.trusted()
        majority = len(config) // 2 + 1
        if len(trusted & config) < majority:
            return
        assert self.view is not None
        participants = frozenset(self.scheme.recsa.participants()) & trusted
        members = participants | {self.pid}
        if members == self.view.members:
            # Members report an older round or view; wait for them to catch up
            # instead of churning views.
            return
        self._counter_pending = True

        def _on_counter(outcome: IncrementOutcome) -> None:
            self._counter_pending = False
            if not outcome.success or outcome.counter is None:
                return
            self.prop_view = View(view_id=outcome.counter, members=members)
            self.status = VSStatus.PROPOSE
            self.suspend = False
            self.reconf_ready = False

        self.counters.increment(_on_counter)

    def _synchronize_state(self, members: FrozenSet[ProcessId]) -> None:
        """``synchState`` / ``synchMsgs``: adopt the most advanced replica."""
        best_snapshot = None
        best_key: Tuple = (-1, -1)
        best_history: List[Tuple[int, Any]] = self._delivered_history
        for pid in members:
            state = self.states.get(pid)
            if pid == self.pid or state is None or state.state_snapshot is None:
                continue
            snapshot, history = state.state_snapshot
            key = (len(history), state.rnd)
            if key > best_key:
                best_key = key
                best_snapshot = snapshot
                best_history = history
        own_key = (len(self._delivered_history), self.rnd)
        if best_snapshot is not None and best_key > own_key:
            self.machine.restore(best_snapshot)
            self._set_history(best_history)

    # -- follower (lines 18-23) ------------------------------------------------
    def _follower_step(self, coordinator: ProcessId) -> None:
        state = self.states.get(coordinator)
        if state is None:
            return
        if state.status is VSStatus.PROPOSE:
            if state.prop_view is not None and self.pid in state.prop_view.members:
                self.prop_view = state.prop_view
                self.status = VSStatus.PROPOSE
            return
        if state.status is VSStatus.INSTALL:
            if state.prop_view is not None and self.pid in state.prop_view.members:
                self.prop_view = state.prop_view
                self.view = state.prop_view
                self.status = VSStatus.INSTALL
                if state.state_snapshot is not None:
                    snapshot, history = state.state_snapshot
                    self.machine.restore(snapshot)
                    self._set_history(history)
                    self.rnd = state.rnd
            return
        # Coordinator is multicasting.
        if state.view is None or self.pid not in state.view.members:
            return
        aligned = self.view == state.view and self.status is VSStatus.MULTICAST
        if state.state_snapshot is not None:
            # Full state: the coordinator saw this member's report disagree.
            # Adopt it on *any* mismatch — behind, diverged, or ahead: a round
            # counter restarts with every view and a transient fault can leave
            # it anywhere, so a follower that only ever moved forward could
            # sit above the coordinator's round forever and wedge the barrier.
            # But only while this member still stands where that report said:
            # a record answering an older report was overtaken on the channel
            # by the rounds applied since, and adopting it would roll them
            # back and deliver them a second time.
            if state.answers == (self.view, self.status, self.rnd, self._digest()):
                self.view = state.view
                self.prop_view = state.prop_view
                self.status = VSStatus.MULTICAST
                snapshot, history = state.state_snapshot
                self.machine.restore(snapshot)
                self._replay_history(history)
                self.rnd = state.rnd
                self._consume_delivered(state.delivered)
        elif not aligned:
            # Adopting the view or round without the replica state would
            # leave this follower silently diverged.  Its own report shows
            # the coordinator the disagreement; the full state follows.
            return
        elif state.rnd == self.rnd + 1:
            # One round behind: apply the coordinator's batch to this
            # replica.  If the result is not the coordinator's digest the
            # next report says so and the coordinator overwrites the replica.
            self._apply_batch(state.delivered)
        self.suspend = bool(state.suspend) or not self.scheme.no_reco()

    def _set_history(self, history: List[Tuple[int, Any]]) -> None:
        """Replace the delivery record; the digest is recomputed from it,
        never taken from the sender."""
        self._delivered_history = list(history)
        self._history_crc = _history_checksum(self._delivered_history)

    def _replay_history(self, history: List[Tuple[int, Any]]) -> None:
        known = len(self._delivered_history)
        self._set_history(history)
        for rnd, command in self._delivered_history[known:]:
            if self.delivery_callback is not None and self.view is not None:
                self.delivery_callback(rnd, self.view, [command])

    def _recompute_replica(self) -> None:
        """Stop trusting the incremental state: recompute the checksum from
        the actual history and rebuild the machine by replaying it.

        The digest is thereby a function of the history alone, and the
        machine a function of the history too — a locally restored invariant,
        so comparing digests across replicas compares the machines as well.
        """
        before = self.machine.snapshot()
        crc = self._history_crc
        self.machine.reset()
        for _, command in self._delivered_history:
            self.machine.apply(command)
        self._history_crc = _history_checksum(self._delivered_history)
        if crc != self._history_crc or before != self.machine.snapshot():
            self.replica_repairs += 1
            _log.debug("pid %s repaired its replica from its history", self.pid)

    def _consume_delivered(self, delivered: Tuple) -> None:
        delivered_set = set(delivered)
        self._pending = [item for item in self._pending if tuple(item) not in delivered_set]

    # -- delivery --------------------------------------------------------------
    def _apply_batch(self, batch: Any) -> None:
        """Apply one round's *batch* to this replica and enter the next round.

        The one place a round is delivered, on the coordinator and on every
        follower alike: same order, same ``(round, command)`` history
        entries, same checksum, one ``delivery_callback`` per replica.
        """
        ordered = sorted(batch, key=lambda item: (item[0], item[1]))
        applied: List[Any] = []
        for sender, seq, command in ordered:
            self.machine.apply(command)
            entry = (self.rnd, command)
            self._delivered_history.append(entry)
            self._history_crc = _checksum(self._history_crc, entry)
            applied.append(command)
        self._last_batch = tuple(tuple(item) for item in ordered)
        self._consume_delivered(self._last_batch)
        if applied and self.delivery_callback is not None and self.view is not None:
            self.delivery_callback(self.rnd, self.view, applied)
        self.rnd += 1

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def _broadcast(self) -> None:
        """Send this participant's state record to every peer.

        The record carries the full replica (machine snapshot + history) only
        where the receiver needs it: to everybody while a view is being
        proposed or installed (``synchState`` picks the most advanced
        replica), and from a multicasting coordinator to exactly those
        members whose last report is neither its current round nor the one
        before — a steady-state round costs O(batch) bytes, not O(history).
        """
        if not self.scheme.is_participant():
            return
        targets = (
            frozenset(self.scheme.recsa.participants())
            | (self.view.members if self.view is not None else frozenset())
        ) - {self.pid}
        state = self._own_state()
        lagging: Dict[ProcessId, VSState] = {}
        if self.status in (VSStatus.PROPOSE, VSStatus.INSTALL):
            state = replace(state, state_snapshot=self._replica())
        elif self.view is not None and self.is_coordinator():
            lagging = {
                pid: report
                for pid in self.view.members
                if pid != self.pid
                and (report := self.states.get(pid)) is not None
                and not self._within_a_round(report)
            }
        full = replace(state, state_snapshot=self._replica()) if lagging else state
        for pid in targets:
            report = lagging.get(pid)
            # A repair says which report it answers: the receiver adopts the
            # replica only while it still stands there.
            self.send(pid, state if report is None else replace(full, answers=report.report()))

    def _replica(self) -> Tuple[Any, List[Tuple[int, Any]]]:
        return (self.machine.snapshot(), list(self._delivered_history))

    def on_message(self, sender: ProcessId, message: Any) -> bool:
        """Store a peer's VS state record and take the step it enables at
        once; True when the message was ours.

        Only the steady-state steps are message-driven (docs/vs.md): a
        follower whose coordinator moved to the next round applies the batch
        and — if the round delivered something or a command of its own is
        waiting — answers the coordinator alone; the coordinator tries the
        next round on each member's report.  Which processor coordinates is
        what the last do-forever iteration established.
        """
        if not isinstance(message, VSState):
            return False
        self.states[sender] = message
        coordinator = self._last_coordinator
        if coordinator is None or not self.scheme.is_participant():
            return True
        if coordinator == self.pid:
            if self.view is not None and sender in self.view.members:
                self._prompt_round()
        elif (
            sender == coordinator
            and message.status is VSStatus.MULTICAST
            and message.state_snapshot is None
            and message.rnd == self.rnd + 1
        ):
            self._follower_step(coordinator)  # applies the batch if aligned
            if self.rnd == message.rnd and (message.delivered or self._pending):
                self.send(coordinator, self._own_state())
        return True
