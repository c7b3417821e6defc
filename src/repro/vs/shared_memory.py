"""MWMR shared-memory emulation on top of the virtually synchronous SMR.

Section 4.3 of the paper (following Birman et al.): given the virtually
synchronous replicated state machine, a multi-writer multi-reader register is
emulated by funnelling writes through the totally ordered multicast and
serving reads from the locally replicated state.  During a delicate
reconfiguration the coordinator suspends operations; once the new
configuration's view is installed the emulation continues with the state
preserved.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.common.types import ProcessId
from repro.vs.smr import RegisterStateMachine
from repro.vs.virtual_synchrony import VirtualSynchronyService


class SharedRegister:
    """A multi-writer multi-reader register client bound to one participant.

    The register is *suspending*: writes submitted while a reconfiguration is
    in progress are queued by the VS layer and delivered once the new view is
    installed, and reads simply return the latest locally applied value.
    """

    _tag_counter = itertools.count(1)
    #: A client of the VS service below it: it consumes no wire type and
    #: takes no step of its own in a do-forever iteration.
    consumes = ()

    def __init__(self, pid: ProcessId, vs: VirtualSynchronyService) -> None:
        if not isinstance(vs.machine, RegisterStateMachine):
            raise TypeError(
                "SharedRegister requires the VS service to replicate a "
                "RegisterStateMachine"
            )
        self.pid = pid
        self.vs = vs
        self.writes_submitted = 0

    def on_timer(self) -> None:
        """Nothing per iteration: the VS service below carries every write."""

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def write(self, value: Any) -> None:
        """Submit a write of *value*; it takes effect when delivered."""
        tag = next(self._tag_counter)
        self.vs.submit(("write", value, self.pid, tag))
        self.writes_submitted += 1

    def read(self) -> Any:
        """Return the register value according to the local replica."""
        machine = self.vs.machine
        assert isinstance(machine, RegisterStateMachine)
        return machine.value

    def read_with_metadata(self) -> Tuple[Any, Optional[int], int]:
        """Return ``(value, last_writer, write_count)`` from the local replica."""
        machine = self.vs.machine
        assert isinstance(machine, RegisterStateMachine)
        return machine.value, machine.last_writer, machine.write_count

    def pending_writes(self) -> int:
        """Writes submitted locally that have not been delivered yet."""
        return self.vs.pending_count()

    def history(self) -> List[Any]:
        """The totally ordered write history as applied by the local replica."""
        return [
            command[1]
            for command in self.vs.delivered_commands()
            if isinstance(command, tuple) and command and command[0] == "write"
        ]
