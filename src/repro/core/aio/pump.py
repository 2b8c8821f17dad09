"""Socket tuning and the adaptive relay pump for the live data plane.

GridFTP-style tuning work (NorduGrid, Pamela) shows that buffer sizing
dominates user-level relay throughput, so the live pump:

* grows its read size from ``MIN_CHUNK`` (4 KB) toward ``MAX_CHUNK``
  (256 KB) while the writer stays un-backpressured, and shrinks it
  again when backpressure appears;
* only awaits ``drain()`` when the transport's write buffer has
  actually crossed its high-water mark (``drain()`` is a no-op wait
  below the mark, but the await itself costs a scheduling round-trip
  per chunk — the dominant per-chunk cost on loopback);
* sets ``TCP_NODELAY`` on every relay socket and widens the
  transport's write-buffer limits, so latency-sensitive control
  round-trips never ride Nagle defaults.

``pump()`` is a stream-to-stream copy loop that no relay path runs
any more (every leg is protocol-swapped; the contract benchmark's
probes still time it).  The relay runs on the *zero-copy* primitives:

* :func:`send_segments` — scatter-gather writes: when the transport's
  buffer is empty the segment list goes straight to the kernel with
  one ``socket.sendmsg``, so frame headers ride alongside payload
  ``memoryview``\\ s without ever being concatenated; only the
  backpressured remainder is copied into the transport.
* :class:`SegmentBatcher` — per-connection small-frame coalescing:
  frames queued in one event-loop tick are flushed together (one
  ``sendmsg`` per drain), bounded by the coalesce budget.
* :func:`relay_sockets_zero_copy` — swaps an established
  socket↔socket relay leg from stream pumps to a pair of
  ``asyncio.BufferedProtocol`` ends whose reads land in one
  ``MAX_CHUNK`` buffer shared by every end on the event-loop thread
  (``recv_into`` instead of ``recv``) and are forwarded inside the
  read callback — no per-chunk task wake-up, no StreamReader
  buffering, no buffer per chain, and no copy at all when the
  destination socket takes the bytes immediately.  Sharing is safe
  because a read callback is done with the buffer before it returns.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import socket as _socket
import threading
from typing import Callable, List, Optional, Sequence, Union

from repro.core.aio.protocol import adopt
from repro.obs import spans as _obs

__all__ = [
    "MIN_CHUNK",
    "MAX_CHUNK",
    "STREAM_LIMIT",
    "WRITE_HIGH_WATER",
    "COALESCE_BUDGET",
    "AdaptiveChunker",
    "SegmentBatcher",
    "tune_stream",
    "writer_backpressured",
    "maybe_drain",
    "pump",
    "segment_nbytes",
    "send_segments",
    "write_direct",
    "relay_sockets_zero_copy",
]

#: Starting relay read size.
MIN_CHUNK = 4096
#: Ceiling the adaptive pump grows toward.
MAX_CHUNK = 256 * 1024
#: ``limit=`` for every StreamReader the relay creates — one full-size
#: adaptive chunk can be buffered without forcing a short read.
STREAM_LIMIT = 2 * MAX_CHUNK
#: Write-buffer high-water mark for relay transports.
WRITE_HIGH_WATER = 2 * MAX_CHUNK
#: Coalesce budget: once this many bytes are pending in a
#: :class:`SegmentBatcher` the batch is flushed immediately instead of
#: waiting for the end of the event-loop tick.
COALESCE_BUDGET = 64 * 1024
#: ``sendmsg`` vector-length cap (conservative portable IOV_MAX).
_IOV_MAX = 512

Segment = Union[bytes, bytearray, memoryview]


class AdaptiveChunker:
    """Multiplicative-increase read sizing for one pump direction.

    Doubles after every full-size un-backpressured read, halves on
    backpressure; clamped to ``[MIN_CHUNK, MAX_CHUNK]``.
    """

    __slots__ = ("size",)

    def __init__(self) -> None:
        self.size = MIN_CHUNK

    def on_read(self, nbytes: int) -> None:
        """Grow only when the read filled the current budget (the
        source is keeping up)."""
        if nbytes >= self.size:
            self.size = min(self.size * 2, MAX_CHUNK)

    def on_backpressure(self) -> None:
        self.size = max(self.size // 2, MIN_CHUNK)


def tune_stream(writer: asyncio.StreamWriter) -> None:
    """Apply relay socket tuning to a connected stream: ``TCP_NODELAY``
    and the :data:`WRITE_HIGH_WATER` write-buffer mark.

    Best-effort: transports without a raw socket (tests, TLS wrappers)
    are left alone rather than failed.
    """
    sock = writer.get_extra_info("socket")
    if sock is not None:
        with contextlib.suppress(OSError):
            sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
    with contextlib.suppress(Exception):
        writer.transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)


def writer_backpressured(writer: asyncio.StreamWriter) -> bool:
    """True when the transport's write buffer crossed its high-water
    mark — the only time ``drain()`` can actually wait."""
    transport = writer.transport
    try:
        high = transport.get_write_buffer_limits()[1]
        return transport.get_write_buffer_size() >= high
    except (AttributeError, NotImplementedError):
        # No flow-control introspection: fall back to always draining.
        return True


async def maybe_drain(writer: asyncio.StreamWriter) -> bool:
    """Drain only past the high-water mark; returns whether it drained."""
    if writer_backpressured(writer):
        await writer.drain()
        return True
    return False


async def pump(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    on_chunk: Optional[Callable[[int], None]] = None,
) -> int:
    """Copy ``reader`` → ``writer`` until EOF/error, read sizes set by
    an :class:`AdaptiveChunker`; half-close; return bytes moved."""
    moved = 0
    chunker = AdaptiveChunker()
    try:
        while True:
            data = await reader.read(chunker.size)
            if not data:
                break
            n = len(data)
            moved += n
            if on_chunk is not None:
                on_chunk(n)
            writer.write(data)
            if await maybe_drain(writer):
                chunker.on_backpressure()
                rec = _obs.RECORDER
                if rec is not None:
                    rec.wall_instant("pump", "backpressure", track="pump",
                                     chunk=chunker.size)
            else:
                chunker.on_read(n)
    except (ConnectionError, asyncio.IncompleteReadError, OSError):
        pass
    finally:
        # Satellite fix: drain *before* write_eof so the tail of a
        # write-then-close stream is flushed, not discarded with the
        # transport.
        with contextlib.suppress(Exception):
            await writer.drain()
        with contextlib.suppress(Exception):
            writer.write_eof()
    return moved


# ---------------------------------------------------------------------------
# Zero-copy write side: scatter-gather sends and frame coalescing.
# ---------------------------------------------------------------------------


def segment_nbytes(segments: Sequence[Segment]) -> int:
    """Total payload bytes across a segment list."""
    total = 0
    for seg in segments:
        total += seg.nbytes if isinstance(seg, memoryview) else len(seg)
    return total


def _queue_remainder(
    transport: asyncio.Transport, segments: Sequence[Segment], skip: int
) -> None:
    """Copy everything past the first ``skip`` bytes into the
    transport's write buffer (the one copy on the backpressure path)."""
    rem = bytearray()
    for seg in segments:
        n = seg.nbytes if isinstance(seg, memoryview) else len(seg)
        if skip >= n:
            skip -= n
            continue
        if skip:
            rem += memoryview(seg)[skip:]
            skip = 0
        else:
            rem += seg
    if rem:
        transport.write(bytes(rem))


#: ``os.writev`` is the scatter-gather syscall the direct path rides;
#: absent (non-POSIX) platforms fall back to transport writes.
_HAVE_WRITEV = hasattr(os, "writev")


def transport_fd(transport: asyncio.BaseTransport) -> Optional[int]:
    """The raw socket file descriptor behind a transport, or ``None``.

    asyncio wraps sockets in ``TransportSocket``, which hides the send
    methods — but the fd is enough for direct ``os.write``/``writev``.
    """
    sock = transport.get_extra_info("socket")
    if sock is None:
        return None
    try:
        fd = sock.fileno()
    except (OSError, ValueError):
        return None
    return fd if fd >= 0 else None


def _sendmsg_direct(
    transport: asyncio.Transport,
    fd: Optional[int],
    segments: Sequence[Segment],
    total: int,
) -> None:
    """Push a segment list out with one ``writev`` when the transport
    is idle, queueing only the unsent remainder.

    Ordering is safe exactly when the transport's own buffer is empty:
    nothing queued can be overtaken by the direct send.  Any error on
    the direct path falls back to the transport, whose own machinery
    surfaces the failure.
    """
    sent = 0
    if (
        fd is not None
        and _HAVE_WRITEV
        and not transport.is_closing()
        and transport.get_write_buffer_size() == 0
    ):
        vec = segments if len(segments) <= _IOV_MAX else segments[:_IOV_MAX]
        try:
            sent = os.writev(fd, vec)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            sent = 0
    if sent < total:
        _queue_remainder(transport, segments, sent)


def write_direct(transport: asyncio.Transport, fd: Optional[int], view: Segment) -> int:
    """Forward one received view: straight to the socket with
    ``os.write`` when the transport is idle (nothing queued can be
    overtaken), the unsent tail copied once into the transport.
    Returns the bytes that went direct, without any user-space copy.

    The tail copy is what lets callers reuse ``view``'s buffer the
    moment this returns: a transport may keep a view of what it is
    handed until the kernel takes it."""
    sent = 0
    if fd is not None and transport.get_write_buffer_size() == 0:
        try:
            sent = os.write(fd, view)
        except OSError:  # EAGAIN; a real error resurfaces from write()
            sent = 0
    if sent < len(view):
        transport.write(bytes(view[sent:]))
    return sent


def send_segments(writer: asyncio.StreamWriter, segments: Sequence[Segment]) -> int:
    """Scatter-gather write of header/payload segments.

    The zero-copy replacement for ``writer.write(header + payload)``:
    when the transport's write buffer is empty the segments go to the
    kernel in one ``writev`` without ever being joined; under
    backpressure the remainder is copied once into the transport, which
    keeps asyncio's flow control exact.  Returns the byte total.
    """
    total = segment_nbytes(segments)
    if total == 0:
        return 0
    _sendmsg_direct(
        writer.transport, transport_fd(writer.transport), segments, total
    )
    return total


class SegmentBatcher:
    """Small-frame coalescing for one connection.

    Frames queued within a single event-loop tick are flushed together
    with one :func:`send_segments` call (one ``sendmsg`` per drain), so
    a burst of small mux frames — WINDOW updates, tiny DATA frames from
    chatty chains — costs one syscall instead of one each.  A flush
    happens no later than the next loop iteration (``call_soon``), or
    immediately once the pending byte total reaches
    :data:`COALESCE_BUDGET`, which bounds both latency and the memory
    pinned by queued views.

    Segments must stay valid until flushed: callers hand in immutable
    ``bytes`` or views over buffers they will not recycle before the
    next loop tick.
    """

    __slots__ = (
        "_writer",
        "on_flush",
        "_segments",
        "_pending",
        "_scheduled",
        "_closed",
        "flushes",
        "bytes_flushed",
    )

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        *,
        on_flush: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self._writer = writer
        #: ``on_flush(nbytes, nsegments)`` fires once per non-empty flush.
        self.on_flush = on_flush
        self._segments: List[Segment] = []
        self._pending = 0
        self._scheduled = False
        self._closed = False
        self.flushes = 0
        self.bytes_flushed = 0

    @property
    def pending_bytes(self) -> int:
        return self._pending

    def add(self, *segments: Segment) -> None:
        """Queue segments for the next coalesced flush."""
        if self._closed:
            return
        for seg in segments:
            n = seg.nbytes if isinstance(seg, memoryview) else len(seg)
            if n:
                self._segments.append(seg)
                self._pending += n
        if self._pending >= COALESCE_BUDGET:
            self.flush()
        elif self._segments and not self._scheduled:
            self._scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_scheduled)

    def _flush_scheduled(self) -> None:
        self._scheduled = False
        if not self._closed:
            self.flush()

    def flush(self) -> int:
        """Send everything pending in one scatter-gather write; returns
        the byte count (0 for an empty flush, which sends nothing)."""
        if not self._segments:
            return 0
        segments, self._segments = self._segments, []
        nbytes, self._pending = self._pending, 0
        send_segments(self._writer, segments)
        self.flushes += 1
        self.bytes_flushed += nbytes
        if self.on_flush is not None:
            self.on_flush(nbytes, len(segments))
        return nbytes

    def close(self) -> None:
        """Drop pending segments and refuse further adds (teardown)."""
        self._closed = True
        self._segments.clear()
        self._pending = 0


# ---------------------------------------------------------------------------
# Zero-copy read side: BufferedProtocol relay ends (recv_into).
# ---------------------------------------------------------------------------


_thread = threading.local()


def _read_view() -> memoryview:
    """The one ``MAX_CHUNK`` read buffer of this thread's relay ends.

    One per thread, not per module: each event loop runs on its own
    thread, and a buffer is only safe to share between callbacks that
    can never interleave."""
    view = getattr(_thread, "view", None)
    if view is None:
        view = _thread.view = memoryview(bytearray(MAX_CHUNK))
    return view


class _RelayEnd(asyncio.BufferedProtocol):
    """One direction of a protocol-swapped socket↔socket relay.

    The event loop reads straight into the read buffer every end on
    this thread shares (``recv_into``), so an active chain costs no
    buffer of its own; ``buffer_updated`` forwards the filled view to
    the peer transport inside the read callback — directly to the peer
    socket when its transport is idle (no copy at all), otherwise one
    copy into the peer's write buffer.  Either way the view is dead
    when the callback returns, before the loop can read into it for
    another end.  asyncio's write-side flow control maps onto the
    peer's read side: ``pause_writing`` on this transport pauses the
    *peer's* reading.
    """

    __slots__ = (
        "transport",
        "fd",
        "peer",
        "moved",
        "direct_bytes",
        "_view",
        "_on_chunk",
        "_done",
        "_read_eof",
    )

    def __init__(
        self,
        done: "asyncio.Future[int]",
        on_chunk: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self.fd: Optional[int] = None
        self.peer: "_RelayEnd" = self  # re-pointed by the pairing code
        self.moved = 0
        #: Bytes that went peer-socket-direct without any userspace copy.
        self.direct_bytes = 0
        self._view = _read_view()
        self._on_chunk = on_chunk
        self._done = done
        self._read_eof = False

    def attach(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.fd = transport_fd(transport)

    # -- reads ------------------------------------------------------------

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view

    def buffer_updated(self, nbytes: int) -> None:
        self.moved += nbytes
        if self._on_chunk is not None:
            self._on_chunk(nbytes)
        peer_t = self.peer.transport
        if peer_t is None or peer_t.is_closing():
            return
        # write_direct copies the tail the socket does not take: the
        # next read on this thread, for any chain, overwrites the view.
        self.direct_bytes += write_direct(peer_t, self.peer.fd, self._view[:nbytes])

    def eof_received(self) -> bool:
        self._read_eof = True
        peer_t = self.peer.transport
        if peer_t is not None and not peer_t.is_closing():
            try:
                peer_t.write_eof()
            except (OSError, RuntimeError):
                peer_t.close()
        self._maybe_finish()
        # Keep our transport open: the peer may still send toward us.
        return True

    def _maybe_finish(self) -> None:
        """Both directions saw EOF → close both transports (close()
        flushes queued writes first)."""
        if self._read_eof and self.peer._read_eof:
            for end in (self, self.peer):
                t = end.transport
                if t is not None and not t.is_closing():
                    t.close()

    # -- write-side flow control → peer's read side ------------------------

    def pause_writing(self) -> None:
        pt = self.peer.transport
        if pt is not None:
            with contextlib.suppress(RuntimeError):
                pt.pause_reading()

    def resume_writing(self) -> None:
        pt = self.peer.transport
        if pt is not None:
            with contextlib.suppress(RuntimeError):
                pt.resume_reading()

    # -- lifecycle ---------------------------------------------------------

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.transport = None
        self.fd = None
        pt = self.peer.transport
        if pt is not None and not pt.is_closing():
            pt.close()
        if not self._done.done():
            self._done.set_result(self.moved)


async def relay_sockets_zero_copy(
    a_reader: asyncio.StreamReader,
    a_writer: asyncio.StreamWriter,
    b_reader: asyncio.StreamReader,
    b_writer: asyncio.StreamWriter,
    *,
    on_chunk: Optional[Callable[[int], None]] = None,
) -> "tuple[int, int]":
    """Bidirectional zero-copy relay between two established streams.

    Swaps both connections' protocols to :class:`_RelayEnd` buffered
    protocols, so from here on the event loop ``recv_into``\\ s the
    thread's shared read buffer and forwards inside the read callback
    — no StreamReader, no per-chunk task wake-up, no buffer per chain,
    no copy when the destination socket keeps up.  Any bytes the stream layer had
    already buffered (payload pipelined behind the control handshake)
    are forwarded first.

    Returns ``(a_to_b_bytes, b_to_a_bytes)`` after both directions
    complete; ``(0, 0)`` at once, both transports closed, when either
    stream had already failed or was closing.
    """
    loop = asyncio.get_running_loop()
    done_a: "asyncio.Future[int]" = loop.create_future()
    done_b: "asyncio.Future[int]" = loop.create_future()
    end_a = _RelayEnd(done_a, on_chunk)
    end_b = _RelayEnd(done_b, on_chunk)
    end_a.peer = end_b
    end_b.peer = end_a
    ta = a_writer.transport
    tb = b_writer.transport
    end_a.attach(ta)
    end_b.attach(tb)

    leftover_a = adopt(a_reader, a_writer, end_a)
    leftover_b = adopt(b_reader, b_writer, end_b) if leftover_a is not None else None
    if leftover_b is None:
        ta.close()
        tb.close()
        return 0, 0

    # Replay what the stream layer already consumed from each socket.
    for leftover, end, peer_t in (
        (leftover_a, end_a, tb),
        (leftover_b, end_b, ta),
    ):
        if leftover:
            end.moved += len(leftover)
            if on_chunk is not None:
                on_chunk(len(leftover))
            peer_t.write(leftover)
    for reader, end, peer_t in (
        (a_reader, end_a, tb),
        (b_reader, end_b, ta),
    ):
        if reader.at_eof():
            end._read_eof = True
            with contextlib.suppress(OSError, RuntimeError):
                peer_t.write_eof()
    end_a._maybe_finish()

    try:
        moved_a = await done_a
        moved_b = await done_b
    except asyncio.CancelledError:
        for t in (end_a.transport, end_b.transport):
            if t is not None:
                with contextlib.suppress(Exception):
                    t.abort()
        raise
    rec = _obs.RECORDER
    if rec is not None:
        rec.wall_instant(
            "pump", "zero_copy_done", track="pump",
            a_to_b=moved_a, b_to_a=moved_b,
            direct=end_a.direct_bytes + end_b.direct_bytes,
        )
    return moved_a, moved_b
