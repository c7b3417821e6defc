"""The joining mechanism — Algorithm 3.3 of the paper.

A joining processor (a *joiner*) may only become a participant once a
majority of the current configuration's members have granted it a *pass*
(``passQuery()``), and only while no reconfiguration is in progress.  Before
asking, the joiner resets its application state to defaults so that a
transiently corrupted newcomer cannot contaminate the system; when admitted,
it initializes its application state from the states collected from the
approving members.

The same object implements both roles: the joiner loop (executed while the
owner is not a participant) and the responder role (executed by configuration
members replying to ``Join`` requests).

The application's hooks are attributes of :class:`JoiningProtocol`, set by
the application the way it sets recMA's ``evalConf()``
(:attr:`repro.core.recma.RecMA.policy`): ``admission_policy`` is
``passQuery()``, ``state_provider`` ships a member's state to an admitted
joiner, ``state_initializer`` is ``initVars()`` and ``state_resetter`` is
``resetVars()``.  By default every joiner is admitted and no state moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet

from repro.common.codec import wire_type
from repro.common.types import NOT_PARTICIPANT, ProcessId
from repro.core.recsa import RecSA
from repro.core.stale import is_real_config


FdProvider = Callable[[], FrozenSet[ProcessId]]
SendFn = Callable[[ProcessId, Any], None]

AdmissionPolicy = Callable[[ProcessId], bool]
"""``passQuery()``: application hook deciding whether a joiner may enter."""

StateProvider = Callable[[], Any]
"""Returns the responder's application state to ship to an admitted joiner."""

StateInitializer = Callable[[Dict[ProcessId, Any]], None]
"""``initVars()``: initialize application state from the members' states."""

StateResetter = Callable[[], None]
"""``resetVars()``: reset application state to defaults before joining."""


@wire_type
@dataclass(frozen=True)
class JoinRequest:
    """The joiner's ``"Join"`` message (line 13)."""

    sender: ProcessId


@wire_type
@dataclass(frozen=True)
class JoinResponse:
    """A configuration member's reply: a pass plus its application state."""

    sender: ProcessId
    granted: bool
    state: Any


# Default hook implementations as module-level functions (not lambdas):
# live protocol instances end up inside snapshots, which must pickle to
# disk — functions pickle by reference, closures not at all.
def _admit_everyone(joiner: ProcessId) -> bool:
    return True


def _no_state() -> Any:
    return None


def _ignore_states(states: Any) -> None:
    return None


def _reset_nothing() -> None:
    return None


class JoiningProtocol:
    """Per-processor instance of the joining mechanism."""

    #: The wire types the node routes to :meth:`on_message`.
    consumes = (JoinRequest, JoinResponse)

    def __init__(
        self,
        pid: ProcessId,
        recsa: RecSA,
        fd_provider: FdProvider,
        send: SendFn,
    ) -> None:
        self.pid = pid
        self.recsa = recsa
        self.fd_provider = fd_provider
        self.send = send
        # The application's hooks (module docstring), set as attributes.
        self.admission_policy: AdmissionPolicy = _admit_everyone
        self.state_provider: StateProvider = _no_state
        self.state_initializer: StateInitializer = _ignore_states
        self.state_resetter: StateResetter = _reset_nothing

        # Joiner-side collected passes and member states (lines 2, 5, 18).
        self.passes: Dict[ProcessId, bool] = {}
        self.member_states: Dict[ProcessId, Any] = {}
        self._reset_done = False

        # Diagnostics.
        self.join_requests_sent = 0
        self.responses_sent = 0
        self.joined = False

    # ------------------------------------------------------------------
    # Joiner role (procedure join(), lines 4-14)
    # ------------------------------------------------------------------
    def step(self) -> None:
        """One iteration of the joiner loop; a no-op for participants."""
        if self.recsa.is_participant():
            # Participants never execute the joiner body (line 6 guard).
            self.joined = True
            return
        if not self._reset_done:
            # ``resetVars()``: scrub possibly corrupted application state
            # before interacting with the system (line 7).
            self.state_resetter()
            self.passes.clear()
            self.member_states.clear()
            self._reset_done = True

        common_config = self.recsa.get_config()
        if (
            self.recsa.no_reco()
            and is_real_config(common_config)
            and len(common_config) > 0
            and self._has_majority_pass(common_config)
        ):
            # Lines 10-12: enough members approve and no reconfiguration is
            # running — initialize from their states and become a participant.
            self.state_initializer(dict(self.member_states))
            if self.recsa.participate():
                self.joined = True
                return

        # Line 13: keep requesting until admitted.
        trusted = frozenset(self.fd_provider()) | {self.pid}
        for pid in trusted:
            if pid != self.pid:
                self.send(pid, JoinRequest(sender=self.pid))
                self.join_requests_sent += 1

    def _has_majority_pass(self, config: FrozenSet[ProcessId]) -> bool:
        trusted = frozenset(self.fd_provider()) | {self.pid}
        approvals = [
            pid
            for pid in config & trusted
            if self.passes.get(pid, False)
        ]
        return len(approvals) > len(config) / 2

    # ------------------------------------------------------------------
    # Responder role (lines 15-16)
    # ------------------------------------------------------------------
    def on_join_request(self, request: JoinRequest) -> None:
        """A configuration member answers a ``Join`` request."""
        current = self.recsa.get_config()
        is_member = (
            self.recsa.is_participant()
            and is_real_config(current)
            and self.pid in current
        )
        if not is_member:
            return
        if not self.recsa.no_reco():
            # During a reconfiguration passes are withheld (and effectively
            # retracted, since the joiner keeps overwriting with the latest
            # response).
            self.send(
                request.sender,
                JoinResponse(sender=self.pid, granted=False, state=None),
            )
            self.responses_sent += 1
            return
        granted = bool(self.admission_policy(request.sender))
        self.send(
            request.sender,
            JoinResponse(sender=self.pid, granted=granted, state=self.state_provider()),
        )
        self.responses_sent += 1

    # ------------------------------------------------------------------
    # Joiner-side response handling (lines 17-18)
    # ------------------------------------------------------------------
    def on_join_response(self, response: JoinResponse) -> None:
        """Record a member's pass and state (joiners only)."""
        if self.recsa.is_participant():
            return
        self.passes[response.sender] = bool(response.granted)
        if response.granted:
            self.member_states[response.sender] = response.state
        else:
            self.member_states.pop(response.sender, None)

    # ------------------------------------------------------------------
    # Message receipt
    # ------------------------------------------------------------------
    def on_message(self, sender: ProcessId, message: Any) -> None:
        """Handle a join request or a member's response to this joiner."""
        if isinstance(message, JoinRequest):
            # Join requests only ever originate from non-participants
            # (Algorithm 3.3 line 6), so they double as evidence that the
            # sender's config field is ``]``.  Recording that here keeps the
            # participant set accurate even when a transient fault flipped a
            # former participant into a joiner — otherwise the stale
            # "participant" entry would block the delicate replacement
            # barrier forever.
            self.recsa.store(sender, "config", NOT_PARTICIPANT)
            self.on_join_request(message)
        else:
            self.on_join_response(message)
