"""``SimTransport``: the deterministic simulator as a transport backend.

A thin adapter: every method is a single delegation to the owning
:class:`~repro.sim.simulator.Simulator`, and the per-process RNG derivation
is byte-for-byte the one the simulator always used
(``make_rng(seed, "process", pid)``).  The adapter therefore changes *no*
seed trajectory — snapshot capture/restore, environment shaping and the
audit warm-prefix paths all run through it
unmodified, which the trajectory-guard tests pin (bootstrap_n16 at seed 89
must keep its 1794 executed events / 1726 deliveries exactly).

Snapshot note: the adapter holds only the simulator reference, so a
``SimSnapshot`` round trip carries it through the same memo as the simulator
itself — a restored snapshot's contexts point at the restored simulator's
transport, never the live one.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, TYPE_CHECKING, Tuple

from repro.common.rng import make_rng
from repro.common.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import Simulator


class SimTransport:
    """Adapter presenting a :class:`Simulator` as a :class:`Transport`."""

    __slots__ = ("simulator",)

    def __init__(self, simulator: "Simulator") -> None:
        self.simulator = simulator

    def now(self) -> float:
        return self.simulator.now

    def send(self, source: ProcessId, destination: ProcessId, payload: Any) -> None:
        self.simulator.send(source, destination, payload)

    def send_many(
        self, source: ProcessId, payloads: Iterable[Tuple[ProcessId, Any]]
    ) -> int:
        return self.simulator.send_many(source, payloads)

    def set_timer(
        self,
        pid: ProcessId,
        delay: float,
        callback: Callable[[], None],
        label: str = "",
    ) -> Any:
        return self.simulator.set_timer(pid, delay, callback, label=label)

    def cancel_timer(self, handle: Any) -> None:
        self.simulator.cancel_timer(handle)

    def make_process_rng(self, pid: ProcessId) -> random.Random:
        return make_rng(self.simulator.seed, "process", pid)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SimTransport(seed={self.simulator.seed})"
