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
* widens the transport's write-buffer limits (``TCP_NODELAY``, so no
  control round-trip rides Nagle, is asyncio's own default).

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
* :func:`relay_sockets_zero_copy` — the Fig. 3 active leg, spliced:
  payload goes socket → pipe → socket inside the kernel
  (``splice(2)``, so the live relay is Linux-only); only a tail the
  destination socket does not take is copied, once, into its transport.
"""

from __future__ import annotations

import asyncio
import contextlib
import fcntl
import os
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
    """Give a connected stream the :data:`WRITE_HIGH_WATER` mark, where
    its transport has one.  ``TCP_NODELAY`` needs no call: asyncio's
    transport sets it on every TCP socket, one rebuilt from an fd too."""
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
            if writer_backpressured(writer):
                await writer.drain()
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
        # Drain *before* write_eof so the tail of a write-then-close
        # stream is flushed, not discarded with the transport.
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
        and not transport.is_closing()
        and transport.get_write_buffer_size() == 0
    ):
        vec = segments if len(segments) <= _IOV_MAX else segments[:_IOV_MAX]
        try:
            sent = os.writev(fd, vec)
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
# Active relay leg: splice(2) through one pipe per chain (Linux).
# ---------------------------------------------------------------------------


class _SpliceEnd(asyncio.Protocol):
    """One socket of a spliced socket↔socket relay leg.

    The transport keeps writes, write-side flow control and
    ``close()``/``abort()``, with its own reading paused: the end reads
    through ``loop.add_reader`` on a dup of the socket's fd (asyncio
    refuses a reader on a transport's own fd), splicing socket → pipe
    and, while the peer transport has nothing queued, pipe → peer
    socket.  What the peer socket does not take is copied once into the
    peer transport, whose ``pause_writing`` then pauses this end.  Every
    callback leaves the pipe empty, so a chain's two ends share one.
    """

    __slots__ = (
        "transport", "fd", "pipe", "peer", "moved", "direct_bytes",
        "read_eof", "paused", "done", "_on_chunk",
    )

    def __init__(
        self,
        done: "asyncio.Future[int]",
        on_chunk: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.transport: Optional[asyncio.Transport] = None
        #: This end's dup of its socket's fd, ``-1`` once released.
        self.fd = -1
        self.pipe = (-1, -1)
        self.peer: "_SpliceEnd" = self  # re-pointed by the pairing code
        self.moved = 0
        #: Bytes spliced on to the peer socket, never seen by Python.
        self.direct_bytes = 0
        self.read_eof = False
        self.paused = False
        self.done = done
        self._on_chunk = on_chunk

    def want_read(self) -> None:
        """(Un)register this end's reader to match its state."""
        if self.fd >= 0:
            loop = self.done.get_loop()
            if self.read_eof or self.paused:
                loop.remove_reader(self.fd)
            else:
                loop.add_reader(self.fd, self._read_ready)

    def release(self) -> None:
        """Drop the reader and close the dup (idempotent).  Until the
        dup is closed the socket outlives its transport's ``close()``."""
        if self.fd >= 0:
            self.done.get_loop().remove_reader(self.fd)
            os.close(self.fd)
            self.fd = -1

    # -- reads ------------------------------------------------------------

    def _read_ready(self) -> None:
        try:
            n = os.splice(self.fd, self.pipe[1], MAX_CHUNK, flags=os.SPLICE_F_NONBLOCK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:  # a reset: drop the chain, as a failed recv does
            self.release()
            self.transport.abort()
            return
        if n == 0:
            self.eof()
            return
        self.moved += n
        if self._on_chunk is not None:
            self._on_chunk(n)
        self._forward(n)

    def _forward(self, n: int) -> None:
        """Send the ``n`` bytes in the pipe on, leaving it empty."""
        peer = self.peer
        t = peer.transport
        if t is not None and t.is_closing():
            t = None  # peer gone: the bytes are dropped
        elif t is not None and not t.get_write_buffer_size():
            # Nothing queued that the direct splice could overtake.
            try:
                while n:
                    k = os.splice(self.pipe[0], peer.fd, n, flags=os.SPLICE_F_NONBLOCK)
                    n -= k
                    self.direct_bytes += k
            except OSError:  # EAGAIN; a real error resurfaces from write()
                pass
        if n:
            self._tail(t, n)

    def _tail(self, t: Optional[asyncio.Transport], n: int) -> None:
        """Move the ``n`` bytes the peer socket did not take out of the
        pipe into the peer transport ``t`` (``None``: dropped) — the
        relay's one user-space copy."""
        while n:
            data = os.read(self.pipe[0], n)
            n -= len(data)
            if t is not None:
                t.write(data)

    def eof(self) -> None:
        """This end's socket read EOF: half-close the peer, and close
        both once both directions are done (``close()`` flushes)."""
        self.read_eof = True
        self.want_read()
        pt = self.peer.transport
        if pt is not None and not pt.is_closing():
            try:
                pt.write_eof()
            except (OSError, RuntimeError):
                pt.close()
        if self.peer.read_eof:
            for end in (self, self.peer):
                if end.transport is not None and not end.transport.is_closing():
                    end.transport.close()

    # -- write-side flow control → peer's read side ------------------------

    def pause_writing(self) -> None:
        self.peer.paused = True
        self.peer.want_read()

    def resume_writing(self) -> None:
        self.peer.paused = False
        self.peer.want_read()

    # -- lifecycle ---------------------------------------------------------

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.release()
        self.transport = None
        pt = self.peer.transport
        if pt is not None and not pt.is_closing():
            pt.close()
        if not self.done.done():
            self.done.set_result(self.moved)


async def relay_sockets_zero_copy(
    a_reader: asyncio.StreamReader,
    a_writer: asyncio.StreamWriter,
    b_reader: asyncio.StreamReader,
    b_writer: asyncio.StreamWriter,
    *,
    on_chunk: Optional[Callable[[int], None]] = None,
) -> "tuple[int, int]":
    """Bidirectional spliced relay between two established streams.

    Swaps both connections' protocols to :class:`_SpliceEnd`\\ s and
    forwards first any bytes the stream layer had already buffered
    (payload pipelined behind the control handshake).  The chain holds
    four fds: a pipe, sized to ``MAX_CHUNK`` where the per-user
    pipe-page limit allows, and a dup of each socket.

    Returns ``(a_to_b_bytes, b_to_a_bytes)`` after both directions
    complete; ``(0, 0)`` at once, both transports closed, when either
    stream had already failed or was closing, or no fd was left for the
    chain.
    """
    loop = asyncio.get_running_loop()
    end_a = _SpliceEnd(loop.create_future(), on_chunk)
    end_b = _SpliceEnd(loop.create_future(), on_chunk)
    end_a.peer, end_b.peer = end_b, end_a
    ta, tb = a_writer.transport, b_writer.transport

    leftover_a = adopt(a_reader, a_writer, end_a)
    leftover_b = adopt(b_reader, b_writer, end_b) if leftover_a is not None else None
    fds: "list[int]" = []
    if leftover_b is not None:
        try:
            fds += os.pipe()
            for t in (ta, tb):
                fds.append(os.dup(t.get_extra_info("socket").fileno()))
        except OSError:  # out of fds: the chain fails like a dead stream
            for fd in fds:
                os.close(fd)
            leftover_b = None
    if leftover_b is None:
        ta.close()
        tb.close()
        return 0, 0
    pipe = (fds[0], fds[1])
    with contextlib.suppress(OSError):  # refused: keep the pipe we got
        fcntl.fcntl(pipe[1], fcntl.F_SETPIPE_SZ, MAX_CHUNK)
    for end, t, fd in ((end_a, ta, fds[2]), (end_b, tb, fds[3])):
        end.transport, end.fd, end.pipe = t, fd, pipe
        t.pause_reading()

    try:
        # Replay what the stream layer already consumed from each socket.
        for leftover, reader, end in (
            (leftover_a, a_reader, end_a),
            (leftover_b, b_reader, end_b),
        ):
            if leftover:
                end.moved += len(leftover)
                if on_chunk is not None:
                    on_chunk(len(leftover))
                end.peer.transport.write(leftover)
            if reader.at_eof():
                end.eof()
        end_a.want_read()
        end_b.want_read()
        moved_a = await end_a.done
        moved_b = await end_b.done
    except asyncio.CancelledError:
        for t in (end_a.transport, end_b.transport):
            if t is not None:
                t.abort()
        raise
    finally:
        end_a.release()
        end_b.release()
        os.close(pipe[0])
        os.close(pipe[1])
    rec = _obs.RECORDER
    if rec is not None:
        rec.wall_instant(
            "pump", "zero_copy_done", track="pump",
            a_to_b=moved_a, b_to_a=moved_b,
            direct=end_a.direct_bytes + end_b.direct_bytes,
        )
    return moved_a, moved_b
