"""A clock that ticks in work done, not in seconds.

The box the benchmark runs on is a few cores of a shared host.  The same
processor-bound pass, same seed, takes 25 % longer in one minute than in the
next, and in bad minutes up to twice as long, whatever the program under
test does; over an interval a live event loop that also carries a fixed
background load loses twice the share the host took.  No statistic of
seconds measured inside a run removes a slow minute.

So a pass measures how fast its own processor is while it runs.  Every
``PERIOD_S`` of wall time a timer signal interrupts the pass, on the thread
and the processor that do the measured work, and times one round of
:func:`reference_work`, a fixed piece of interpreter-bound work.  The
**speed** over an interval is the mean, over the rounds that began in it, of
``REFERENCE_COST_S / cost``: 1.0 on the reference box in a quiet minute,
0.7 when the host gives the pass 70 % of that.  Seconds of processor-bound
work times that speed are **reference seconds**, and the benchmark's
processor-bound rates are per reference second.  On ``audit_recovery``,
sixty back-to-back repetitions spread 0.063 per second and 0.013 per
reference second (inter-quartile distance over the median).

What this does not do: it does not correct work that waits for timers (the
tick-paced workloads do not use it), and it assumes the program under test
slows down as this interpreter loop does, which holds to a few per cent for
a pure-Python program.
"""

from __future__ import annotations

import signal
import struct
import time
from typing import List, Tuple

#: Wall seconds between two rounds of reference work.
PERIOD_S = 0.05
#: What one round costs on the reference box in a quiet minute.
REFERENCE_COST_S = 0.0008

_ROUNDS = 1500
_PACK = struct.Struct(">3q").pack
_UNPACK = struct.Struct(">3q").unpack
_TABLE = list(range(1024))


def reference_work() -> int:
    """A fixed piece of interpreter work: integer arithmetic, a struct round
    trip, a list lookup.  It builds no container that outlives a round, so
    the collector never runs on its account and the program's heap size does
    not change what it costs."""
    h, acc = 12345, 0
    table, pack, unpack = _TABLE, _PACK, _UNPACK
    for _ in range(_ROUNDS):
        h = (h * 1103515245 + 12345) & 0x7FFFFFFF
        a, b, c = unpack(pack(h, acc & 0xFFFF, h >> 3))
        acc += table[(a ^ c) & 1023] + b
    return acc


class HostClock:
    """Samples the host's speed from a timer signal; see the module docstring.

    Times are ``time.perf_counter()`` readings.  :meth:`start` must run on
    the main thread (signal handlers do) before the measured work begins.
    """

    def __init__(self) -> None:
        self.began: List[float] = []
        self.cost: List[float] = []
        self._sampling = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def _sample(self, signum: int, frame: object) -> None:
        if self._sampling:  # a round slower than the period: skip, do not nest
            return
        self._sampling = True
        try:
            began = time.perf_counter()
            reference_work()
            self.cost.append(time.perf_counter() - began)
            self.began.append(began)
        finally:
            self._sampling = False

    def read(self, start: float, end: float) -> Tuple[float, float, int]:
        """Over the rounds that began in ``[start, end)``: the host's speed,
        the seconds the rounds themselves took, and how many there were.
        With no round in the interval the speed reads 1.0."""
        costs = [c for t, c in zip(self.began, self.cost) if start <= t < end]
        if not costs:
            return 1.0, 0.0, 0
        speed = sum(REFERENCE_COST_S / c for c in costs) / len(costs)
        return speed, sum(costs), len(costs)

    def reference_seconds(self, start: float, end: float, busy_s: float) -> float:
        """*busy_s* seconds of processor-bound work done between *start* and
        *end*, in reference seconds: the sampling's own share taken out, the
        rest scaled by the host's speed over the interval."""
        speed, sampling_s, _ = self.read(start, end)
        return max(0.0, busy_s - sampling_s) * speed
