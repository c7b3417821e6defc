"""``AsyncioTransport``: the protocol stack over real UDP sockets.

Each node owns a UDP endpoint on ``127.0.0.1`` (ephemeral port) inside one
asyncio event loop; a datagram carries an 8-byte source-pid header followed
by **one or more** :func:`repro.common.codec.frame` bodies.  Frames queued
to the same destination within one event-loop turn are *coalesced* into a
single datagram (up to ``MAX_DATAGRAM_BYTES``), mirroring the simulator's
``send_many`` batching: a protocol round that fans out heartbeat + gossip +
token to the same peer pays one syscall and one header instead of three.
The flush writes each datagram straight to the sending endpoint's own
non-blocking socket; a send that would block is a lost datagram (counted
in ``dropped_datagrams``), never a queue.  The receiver decodes each frame
in place, at its offset in the datagram.
Timers are ``loop.call_later`` with simulated-time delays rescaled by
``tick_seconds`` (wall seconds per sim-time unit), fixed at construction.
Because the loop is single-threaded, every timer callback and every
datagram delivery runs as one atomic step — the same interleaving model the
simulator enforces, just scheduled by the kernel instead of an event queue.

Fidelity to the model, not to the simulator: there is no channel-delay or
loss shaping here (localhost UDP is the channel — unreliable in principle,
fast in practice), so runtime trajectories are *not* byte-identical to
simulator ones and never claim to be.  What is identical: the per-process
RNG streams (same ``make_rng(seed, "process", pid)`` derivation) and the
protocol semantics the transport conformance suite pins on both backends.

Hostile input never crashes a node: any datagram that fails to parse
(truncated header, bad frame, unknown wire tag — i.e. anything a Byzantine
peer could spray at a port) is counted in ``quarantined_datagrams`` and
dropped, mirroring the inbound validation of the reliable-broadcast layer.
"""

from __future__ import annotations

import asyncio
import logging
import socket
import struct
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.common.codec import CodecError, frame, unframe
from repro.common.rng import make_rng
from repro.common.types import ProcessId
from repro.node.process import Process, ProcessContext

_log = logging.getLogger(__name__)

#: Datagram header: the sender's pid, 8-byte big-endian signed.
_HEADER = struct.Struct(">q")

#: Practical UDP payload ceiling on loopback; larger frames are dropped like
#: any other lost packet (honest messages are a few KiB even at large n) but
#: counted apart, in ``oversize_frames``: a lost packet is retransmitted, an
#: oversize one never gets through (docs/transport.md, "The 60 KB ceiling").
MAX_DATAGRAM_BYTES = 60_000

#: Receive buffer per ``recvfrom``: no UDP datagram is larger, so nothing is
#: ever truncated.  asyncio's default is 256 KiB, allocated and shrunk again
#: for every datagram; whether glibc then trims and regrows the heap top each
#: time depends on where the block happens to land — the same tree took 7.7 k
#: or 30 k page faults per ``live_smr`` pass (and ran a quarter slower)
#: depending on nothing but the length of the checkout's path.
_RECV_BYTES = 64 * 1024

#: At most one oversize-frame warning per this many wall seconds.
_OVERSIZE_WARNING_PERIOD_S = 1.0

#: Default wall seconds per simulated-time unit.  At the processors' step
#: interval of 1.0 (``STEP_INTERVAL``) this paces each node's do-forever loop at 20 Hz —
#: fast enough that an n=8 bootstrap converges in a few wall seconds, slow
#: enough that n nodes' timers plus their message fan-out stay far below a
#: single core's capacity.
DEFAULT_TICK_SECONDS = 0.05


class _Timer:
    """A pending timer: wraps the loop handle so cancellation is idempotent
    and per-pid cleanup on crash/stop can find it."""

    __slots__ = ("handle", "pid", "transport")

    def __init__(self, transport: "AsyncioTransport", pid: ProcessId) -> None:
        self.transport = transport
        self.pid = pid
        self.handle: Optional[asyncio.TimerHandle] = None

    def cancel(self) -> None:
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None
        self.transport._timers.get(self.pid, set()).discard(self)


class _NodeEndpoint(asyncio.DatagramProtocol):
    """The per-node UDP protocol: parses datagrams, delivers to the process."""

    def __init__(
        self, transport: "AsyncioTransport", process: Process, sock: socket.socket
    ) -> None:
        self.owner = transport
        self.process = process
        # The endpoint's own non-blocking socket, which the outbox flush
        # sends on directly; asyncio's transport reads from it.
        self.sock = sock
        self.udp: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.udp = transport  # type: ignore[assignment]

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        owner = self.owner
        try:
            if len(data) <= _HEADER.size:
                raise CodecError("datagram shorter than its header")
            (source,) = _HEADER.unpack_from(data)
            # A datagram may coalesce several frames; unframe them in order
            # so per-destination FIFO is preserved within the batch.  A bad
            # frame anywhere quarantines the whole datagram *before* any
            # delivery — a Byzantine sender cannot smuggle a valid prefix.
            # Each frame is decoded where it lies in the datagram.
            payloads: List[Any] = []
            offset = _HEADER.size
            size = len(data)
            while offset < size:
                payload, offset = unframe(data, offset)
                payloads.append(payload)
        except CodecError as exc:
            owner.quarantined_datagrams += 1
            _log.debug("pid %s quarantined datagram from %s: %s",
                       self.process.pid, addr, exc)
            return
        owner.delivered_datagrams += 1
        owner.delivered_frames += len(payloads)
        for payload in payloads:
            try:
                self.process.deliver(source, payload)
            except Exception:  # noqa: BLE001 - a node bug must not kill the loop
                owner.delivery_errors += 1
                _log.exception("pid %s handler failed on message from %s",
                               self.process.pid, source)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        _log.debug("pid %s endpoint error: %s", self.process.pid, exc)


class AsyncioTransport:
    """A host for :class:`~repro.node.process.ProcessContext` over asyncio + UDP.

    Construct inside a running event loop; then :meth:`start_node` each
    process, and :meth:`close` when done (``async with`` does both ends).
    """

    def __init__(self, seed: int = 0, tick_seconds: float = DEFAULT_TICK_SECONDS) -> None:
        if tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        self.seed = seed
        self.tick_seconds = tick_seconds
        self._loop = asyncio.get_running_loop()
        self._epoch = self._loop.time()
        self._endpoints: Dict[ProcessId, _NodeEndpoint] = {}
        self._addrs: Dict[ProcessId, Tuple[str, int]] = {}
        self._timers: Dict[ProcessId, Set[_Timer]] = {}
        # Coalescing state: per-(source, dest) queues of encoded frames,
        # flushed once per event-loop turn.
        self._outbox: Dict[Tuple[ProcessId, ProcessId], List[bytes]] = {}
        self._flush_scheduled = False
        # Encode-once memo for the current loop turn: id(payload) -> (payload,
        # frame).  Holding the payload keeps its id from being recycled.
        self._frame_memo: Dict[int, Tuple[Any, bytes]] = {}
        # Per payload class: is it a frozen dataclass (may it be memoized)?
        self._memoizable: Dict[type, bool] = {}
        # Wire statistics (mirrors the simulator's counters loosely).
        self.sent_datagrams = 0
        self.sent_bytes = 0
        self.dropped_datagrams = 0
        self.delivered_datagrams = 0
        self.quarantined_datagrams = 0
        self.delivery_errors = 0
        self.sent_frames = 0
        self.dropped_frames = 0
        self.oversize_frames = 0  # also counted in dropped_frames
        self.delivered_frames = 0
        self._oversize_warned_at = float("-inf")

    # -------------------------------------------------------- host API
    @property
    def now(self) -> float:
        """Wall time since transport creation, in sim-time units (metrics
        only — see :class:`~repro.node.process.ProcessContext` for the
        contract)."""
        return (self._loop.time() - self._epoch) / self.tick_seconds

    def _schedule_flush(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush_outbox)

    def _frame_once(self, payload: Any) -> bytes:
        """*payload*'s frame, encoded at most once per event-loop turn.

        A broadcast hands one immutable message object to every peer, whether
        through ``send_many`` or through one ``send`` per destination (VS,
        recMA).  Only frozen dataclasses — every protocol message — are
        remembered: a mutable payload may change between two sends.
        """
        cls = payload.__class__
        memoizable = self._memoizable.get(cls)
        if memoizable is None:
            params = getattr(cls, "__dataclass_params__", None)
            memoizable = self._memoizable[cls] = params is not None and params.frozen
        if not memoizable:
            return frame(payload)
        entry = self._frame_memo.get(id(payload))
        if entry is None:
            entry = self._frame_memo[id(payload)] = (payload, frame(payload))
            self._schedule_flush()  # the flush is what clears the memo
        return entry[1]

    def _enqueue(self, source: ProcessId, destination: ProcessId, payload: Any) -> bool:
        """Encode *payload* and queue the frame for coalesced delivery; True
        if accepted."""
        body = self._frame_once(payload)
        if self._addrs.get(destination) is None or source not in self._endpoints:
            # Sender gone or receiver unknown/down: the unreliable-channel
            # model says this is simply a lost packet.
            self.dropped_frames += 1
            return False
        if _HEADER.size + len(body) > MAX_DATAGRAM_BYTES:
            self.dropped_frames += 1
            self.oversize_frames += 1
            self._warn_oversize(source, destination, payload, len(body))
            return False
        self._outbox.setdefault((source, destination), []).append(body)
        self.sent_frames += 1
        self._schedule_flush()
        return True

    def _warn_oversize(
        self, source: ProcessId, destination: ProcessId, payload: Any, size: int
    ) -> None:
        now = self._loop.time()
        if now - self._oversize_warned_at < _OVERSIZE_WARNING_PERIOD_S:
            return
        self._oversize_warned_at = now
        _log.warning(
            "dropped an oversize %s frame %s -> %s: %d bytes exceed the %d-byte "
            "datagram ceiling (%d oversize frames so far)",
            type(payload).__name__, source, destination, size,
            MAX_DATAGRAM_BYTES, self.oversize_frames,
        )

    def _flush_outbox(self) -> None:
        """Send every queued frame, coalescing per (source, dest) pair.

        Frames to the same destination are packed greedily into datagrams
        under ``MAX_DATAGRAM_BYTES``, in enqueue order — per-destination
        FIFO within a turn is preserved both here and in the receiver's
        unframe loop.  Quarantine rules are untouched: coalescing changes
        how many frames share a header, never what a receiver accepts.
        """
        self._flush_scheduled = False
        self._frame_memo.clear()
        outbox, self._outbox = self._outbox, {}
        for (source, destination), frames in outbox.items():
            endpoint = self._endpoints.get(source)
            addr = self._addrs.get(destination)
            if endpoint is None or endpoint.udp is None or addr is None:
                # Torn down between enqueue and flush: late losses.
                self.sent_frames -= len(frames)
                self.dropped_frames += len(frames)
                continue
            header = _HEADER.pack(source)
            batch: List[bytes] = []
            size = _HEADER.size
            for body in frames:
                if batch and size + len(body) > MAX_DATAGRAM_BYTES:
                    self._sendto(endpoint, header, batch, addr)
                    batch = []
                    size = _HEADER.size
                batch.append(body)
                size += len(body)
            if batch:
                self._sendto(endpoint, header, batch, addr)

    def _sendto(
        self,
        endpoint: _NodeEndpoint,
        header: bytes,
        batch: List[bytes],
        addr: Tuple[str, int],
    ) -> None:
        datagram = header + b"".join(batch)
        try:
            # A full socket buffer raises BlockingIOError: a lost datagram,
            # like any other send failure on an unreliable channel.
            endpoint.sock.sendto(datagram, addr)
            self.sent_datagrams += 1
            self.sent_bytes += len(datagram)
        except OSError:
            self.dropped_datagrams += 1
            self.sent_frames -= len(batch)
            self.dropped_frames += len(batch)

    def send(self, source: ProcessId, destination: ProcessId, payload: Any) -> None:
        # An unregistered payload type raises CodecError: a programming
        # error on the sending node, not line noise — it surfaces.
        self._enqueue(source, destination, payload)

    def send_many(
        self, source: ProcessId, payloads: Iterable[Tuple[ProcessId, Any]]
    ) -> int:
        accepted = 0
        for destination, payload in payloads:
            if self._enqueue(source, destination, payload):
                accepted += 1
        return accepted

    def set_timer(
        self,
        pid: ProcessId,
        delay: float,
        callback: Callable[[], None],
        label: str = "",
    ) -> _Timer:
        if delay < 0:
            raise ValueError("timer delay must be non-negative")
        timer = _Timer(self, pid)

        def fire() -> None:
            timer.handle = None
            self._timers.get(pid, set()).discard(timer)
            callback()

        timer.handle = self._loop.call_later(delay * self.tick_seconds, fire)
        self._timers.setdefault(pid, set()).add(timer)
        return timer

    def cancel_timer(self, handle: Optional[_Timer]) -> None:
        if handle is not None:
            handle.cancel()

    def make_process_rng(self, pid: ProcessId):
        # Identical derivation to the Simulator's: a node's local coin flips do
        # not depend on which backend hosts it.
        return make_rng(self.seed, "process", pid)

    # ------------------------------------------------------ node lifecycle
    async def start_node(self, process: Process) -> Process:
        """Open *process*'s UDP endpoint, bind its context, and start it."""
        pid = process.pid
        if pid in self._endpoints:
            raise RuntimeError(f"pid {pid} already has a live endpoint")
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind(("127.0.0.1", 0))
            endpoint = _NodeEndpoint(self, process, sock)
            udp, _ = await self._loop.create_datagram_endpoint(lambda: endpoint, sock=sock)
        except BaseException:
            sock.close()
            raise
        assert endpoint.udp is udp
        udp.max_size = _RECV_BYTES  # the selector transport's recvfrom size
        self._endpoints[pid] = endpoint
        self._addrs[pid] = udp.get_extra_info("sockname")[:2]
        process.bind(
            ProcessContext(pid=pid, transport=self, rng=self.make_process_rng(pid))
        )
        process.start()
        return process

    def stop_node(self, pid: ProcessId) -> None:
        """Tear down *pid*'s endpoint and pending timers (graceful stop).

        The process object is left as-is; a stopped pid's address vanishes
        from the registry, so in-flight packets to it become losses.
        """
        for timer in list(self._timers.pop(pid, ())):
            timer.cancel()
        endpoint = self._endpoints.pop(pid, None)
        self._addrs.pop(pid, None)
        if endpoint is not None and endpoint.udp is not None:
            endpoint.udp.close()

    def crash_node(self, pid: ProcessId) -> None:
        """Stop-fail *pid*: mark the process crashed, then tear it down."""
        endpoint = self._endpoints.get(pid)
        if endpoint is not None:
            endpoint.process.crash()
        self.stop_node(pid)

    async def close(self) -> None:
        """Tear down every endpoint and cancel every pending timer."""
        for pid in list(self._endpoints):
            self.stop_node(pid)
        # Let transport close callbacks run before the loop goes away.
        await asyncio.sleep(0)

    def statistics(self) -> Dict[str, Any]:
        """Wire counters, shaped like the simulator's ``statistics()``."""
        return {
            "time": self.now,
            "live_nodes": len(self._endpoints),
            "sent_datagrams": self.sent_datagrams,
            "sent_bytes": self.sent_bytes,
            "dropped_datagrams": self.dropped_datagrams,
            "delivered_datagrams": self.delivered_datagrams,
            "quarantined_datagrams": self.quarantined_datagrams,
            "delivery_errors": self.delivery_errors,
            "sent_frames": self.sent_frames,
            "dropped_frames": self.dropped_frames,
            "oversize_frames": self.oversize_frames,
            "delivered_frames": self.delivered_frames,
        }
