"""Per-layer attribution from outside the program.

:func:`install` replaces the layers' public entry points — class attributes
and the module-level names a caller imported — with wrappers that record one
span per call: name, start, end and the span that was open when it began.
No file under ``src/`` changes, and nothing is installed in an untraced
pass.  Spans stay in memory (four parallel arrays, 26 bytes a span) until the
pass ends.  (The file is not called ``trace.py``: a script's directory comes
first on ``sys.path``, so that name would shadow the standard library's.)

A layer's **self time** is its span's duration minus the part covered by
its child spans.  Every wrapped call is synchronous (protocol handlers never
await), so children nest inside their parent and never overlap: the covered
part is the sum of the children's durations.

Patching is at class level, not per instance, so objects the program
deep-copies (``SimSnapshot``) or builds later (a restarted node) are traced
like the rest.  Call :func:`install` before building any cluster: a bound
method captured earlier (a heartbeat listener, a scheduled event) would
keep the unwrapped function.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """An in-memory span table."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.current = -1
        #: Bytes of every frame the live transport encoded (a count taken at
        #: the same boundary as the ``codec.encode`` span).
        self.encoded_bytes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """*function*, recording one span called *name* around each call."""
        nid = self._id(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(start)
            name_id.append(nid)
            parent.append(self.current)
            end.append(0.0)
            self.current = index
            start.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                end[index] = clock()
                self.current = parent[index]

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def record(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span by hand (synthetic traces, self-check)."""
        self.name_id.append(self._id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self, first: int = 0, last: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per name over spans ``[first, last)``: ``count``, inclusive
        ``total_s`` and ``self_s``.  A span still open at *last* is left out."""
        last = len(self.start) if last is None else last
        covered = [0.0] * (last - first)
        start, end, parent = self.start, self.end, self.parent
        for index in range(first, last):
            up = parent[index]
            if up >= first and end[index]:
                covered[up - first] += end[index] - start[index]
        table = [[0, 0.0, 0.0] for _ in self.names]
        name_id = self.name_id
        for index in range(first, last):
            if not end[index]:
                continue
            duration = end[index] - start[index]
            row = table[name_id[index]]
            row[0] += 1
            row[1] += duration
            row[2] += duration - covered[index - first]
        return {
            name: {"count": row[0], "total_s": row[1], "self_s": row[2]}
            for name, row in zip(self.names, table)
            if row[0]
        }

    def per_span_cost(self, calls: int = 100_000) -> float:
        """Seconds one span adds to a call, measured on a trivial method.

        Times the wrapper against the bare call in a scratch tracer; the
        pass's ``trace.overhead_share`` is this times its span count over
        its busy time.  A floor, not the whole cost: it leaves out what the
        wrappers do to the caches of the code they surround.
        """
        scratch = Tracer()

        def handler(node: Any, sender: Any, message: Any) -> None:
            return None

        traced = scratch.wrap("calibration", handler)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            handler(self, 1, None)
        t1 = clock()
        for _ in range(calls):
            traced(self, 1, None)
        t2 = clock()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _patch(tracer: Tracer, owner: Any, attribute: str, name: str) -> None:
    """Wrap ``owner.attribute`` in place, keeping class/static method kinds."""
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    if isinstance(raw, classmethod):
        wrapped: Any = classmethod(tracer.wrap(name, raw.__func__))
    elif isinstance(raw, staticmethod):
        wrapped = staticmethod(tracer.wrap(name, raw.__func__))
    else:
        wrapped = tracer.wrap(name, raw)
    setattr(owner, attribute, wrapped)


def entry_points() -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every traced layer boundary.

    A module-level function that callers imported by name is patched in each
    importing module, which is exactly the boundary the call crosses.
    """
    import asyncio.events

    import repro.audit.harness as harness
    import repro.runtime.transport as rt
    import repro.scenarios.runner as runner
    import repro.scenarios.workloads as scenario_workloads
    from repro.core.joining import JoiningProtocol
    from repro.core.recma import RecMA
    from repro.core.recsa import RecSA
    from repro.counters.service import CounterService
    from repro.datalink.heartbeat import HeartbeatService
    from repro.failure_detector.ntheta import NThetaFailureDetector
    from repro.sim.cluster import Cluster, ClusterNode
    from repro.sim.simulator import Simulator
    from repro.sim.snapshot import SimSnapshot
    from repro.vs.virtual_synchrony import VirtualSynchronyService

    return [
        # The event loop's callback dispatch: the root of every live span,
        # whose self time is asyncio glue plus the load generator.
        (asyncio.events.Handle, "_run", "loop.callback"),
        (rt, "frame", "codec.encode"),
        (rt, "unframe", "codec.decode"),
        (rt.AsyncioTransport, "send", "transport.send"),
        (rt.AsyncioTransport, "send_many", "transport.send"),
        (rt.AsyncioTransport, "_flush_outbox", "transport.send"),
        (rt._NodeEndpoint, "datagram_received", "transport.recv"),
        (Simulator, "run", "sim.run"),
        (Simulator, "run_until", "sim.run"),
        (Simulator, "step", "sim.step"),
        (Simulator, "send", "sim.net_send"),
        (Simulator, "send_many", "sim.net_send"),
        (Cluster, "is_converged", "cluster.converged_check"),
        (ClusterNode, "on_timer", "node.on_timer"),
        (ClusterNode, "on_receive", "node.on_receive"),
        (HeartbeatService, "on_timer", "heartbeat.on_timer"),
        (HeartbeatService, "on_packet", "heartbeat.on_packet"),
        (HeartbeatService, "notify_traffic", "heartbeat.on_packet"),
        (NThetaFailureDetector, "heartbeat", "fd"),
        (NThetaFailureDetector, "trusted", "fd"),
        (RecSA, "step", "recsa.step"),
        (RecSA, "on_message", "recsa.on_message"),
        (RecSA, "on_delta", "recsa.on_message"),
        (RecSA, "on_digest", "recsa.on_message"),
        (RecMA, "step", "recma"),
        (RecMA, "on_message", "recma"),
        (JoiningProtocol, "step", "joining"),
        (JoiningProtocol, "on_message", "joining"),
        (CounterService, "increment", "counters.increment"),
        (CounterService, "on_timer", "counters.on_timer"),
        (CounterService, "on_message", "counters.on_message"),
        (VirtualSynchronyService, "on_timer", "vs.on_timer"),
        (VirtualSynchronyService, "on_message", "vs.on_message"),
        (SimSnapshot, "capture", "snapshot.capture"),
        (SimSnapshot, "restore", "snapshot.restore"),
        (runner, "prepare", "scenarios.prepare"),
        (runner, "drive", "scenarios.drive"),
        (runner, "finalize", "scenarios.finalize"),
        (harness, "prepare", "scenarios.prepare"),
        (harness, "drive", "scenarios.drive"),
        (harness, "finalize", "scenarios.finalize"),
        (scenario_workloads, "generate_plan", "audit.apply_plan"),
        (scenario_workloads, "apply_plan", "audit.apply_plan"),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every entry point; the process is traced until it exits."""
    import repro.runtime.transport as rt

    frame = rt.frame

    def counting_frame(payload: Any) -> bytes:
        body = frame(payload)
        tracer.encoded_bytes += len(body)
        return body

    rt.frame = counting_frame
    for owner, attribute, name in entry_points():
        _patch(tracer, owner, attribute, name)
