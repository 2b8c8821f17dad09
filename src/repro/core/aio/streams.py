"""GridFTP-style parallel-stream bulk transfers (striping layer).

The NorduGrid and Pamela GridFTP evaluations (PAPERS.md) both find
that striping one logical transfer across *k* parallel TCP streams is
the single biggest lever for wide-area bulk throughput: each stream
ratchets its own congestion/flow-control window, so the aggregate is
no longer bounded by one window-per-RTT pipe.  This module layers the
same idea over relay chains: a logical transfer is split into
offset-tagged blocks sprayed over *k* independent connections (each
one a full relay chain through the nxport), with GridFTP-style
*restart markers* flowing back so a dying stream never restarts the
transfer from offset 0.

Wire format (per stream)
------------------------

Each stream begins with one newline-terminated JSON hello::

    {"stripe": 1, "xfer": ID, "stream": i, "streams": k,
     "total": N, "block": B}

after which both directions speak fixed 13-byte binary frames
(``!BQI`` — type u8, offset u64, length u32):

* ``BLOCK`` (sender→sink) — ``length`` payload bytes at ``offset``;
  sent with one scatter-gather :func:`~repro.core.aio.pump.send_segments`
  (header alongside a ``memoryview`` of the source buffer — zero-copy).
* ``END``   (sender→sink) — this stream will send no more blocks.
* ``MARK``  (sink→sender) — restart marker: every byte below
  ``offset`` has been received contiguously.  The sink emits one
  whenever its contiguous watermark advances, and immediately on any
  (re)joining stream, so a replacement stream learns the watermark
  before it sends a byte.

The sender requeues a dead stream's unacknowledged blocks (those at or
above the latest restart marker) onto its siblings and dials a
replacement stream (up to ``max_reconnects`` times) — the transfer
completes without retransmitting anything the sink already
acknowledged.  The sink reassembles out-of-order blocks in place in a
preallocated buffer, drops duplicates (a requeued block racing its
original) and hands that very buffer to its caller: a transfer costs
one allocation and no copy past the kernel's.

Every one of those decisions is made by two sans-io engines,
:class:`StripeSender` and :class:`StripeReceiver`.  After its hello a
stream is a protocol that feeds its engine events (DESIGN §6.5), so no
task runs per stream — only dials and the sink's accept loop.
"""

from __future__ import annotations

import asyncio
import json
import struct
import uuid
from collections import deque
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple

from repro.core.aio.protocol import ProtocolError, parse_control_line, steal_reader_buffer
from repro.core.aio.pump import send_segments, tune_stream
from repro.obs import spans as _obs

__all__ = [
    "DEFAULT_BLOCK",
    "DEFAULT_STREAMS",
    "HELLO_TIMEOUT_S",
    "StripeError",
    "StripeSink",
    "send_striped",
    "recv_striped",
]

#: Default stripe block size.  Large enough that per-block framing and
#: restart markers are noise; small enough that k streams interleave.
DEFAULT_BLOCK = 256 * 1024
#: Default stream count (the GridFTP literature's sweet spot is 4-8).
DEFAULT_STREAMS = 4
#: Default per-stream inflight window, in blocks.  A stream stalls once
#: this many of its blocks sit above the sink's restart marker — the
#: stripe-level analogue of a TCP window, and the reason k streams beat
#: one: aggregate inflight scales with k while each stream's burst (and
#: the sink's reorder buffer per stream) stays bounded.
DEFAULT_WINDOW = 32
#: Deadline (seconds) for a stream's handshake: the sink closes a dial
#: whose hello is late, and the sender counts a late first restart
#: marker as stream death.
HELLO_TIMEOUT_S = 10.0
#: A :class:`StripeSink` keeps the final restart marker of this many
#: of its newest completed transfers.
SINK_REMEMBER = 64
#: How long :meth:`StripeSink.close` lets open streams flush their
#: final restart markers before aborting them.
SINK_CLOSE_GRACE_S = 1.0

#: Per-stream frame header: type, offset, length.
_FRAME = struct.Struct("!BQI")

_BLOCK = 1
_END = 2
_MARK = 3

ConnectFn = Callable[[], Awaitable[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]]


class StripeError(ConnectionError):
    """A striped transfer could not complete."""


def _hello_line(xfer: str, stream: int, streams: int, total: int, block: int) -> bytes:
    return (
        json.dumps(
            {"stripe": 1, "xfer": xfer, "stream": stream, "streams": streams,
             "total": total, "block": block},
            separators=(",", ":"),
        ).encode()
        + b"\n"
    )


def _parse_hello(line: bytes) -> Dict[str, Any]:
    """A validated stripe hello, or :class:`ProtocolError`."""
    hello = parse_control_line(line)
    total = hello.get("total")
    block = hello.get("block")
    if (
        hello.get("stripe") != 1
        or not isinstance(hello.get("xfer"), str)
        or type(total) is not int
        or total < 0
        or type(block) is not int
        or block < 1
    ):
        raise ProtocolError(f"bad stripe hello: {hello!r}")
    return hello


class StripeSender:
    """Send side of one transfer, without I/O.

    Events in: :meth:`stream_up`, :meth:`mark` (a restart marker),
    :meth:`stream_dead`.  Out: :meth:`next_block` (what stream ``j``
    sends next, if anything) and :attr:`done`.  Every unacknowledged
    offset sits either in ``pending`` or in exactly one stream's
    ``inflight`` set.
    """

    __slots__ = (
        "total", "block", "window", "pending", "inflight", "watermark",
        "bytes_sent", "blocks_sent", "requeued_blocks",
    )

    def __init__(self, total: int, block: int, window: int) -> None:
        self.total = total
        self.block = block
        self.window = window
        #: Offsets to send, ascending: the lowest unacknowledged first.
        self.pending: "deque[int]" = deque(range(0, total, block))
        #: Stream -> offsets it sent above the watermark.
        self.inflight: Dict[int, Set[int]] = {}
        #: Contiguous byte count acknowledged by the sink (max MARK seen).
        self.watermark = 0
        self.bytes_sent = 0
        self.blocks_sent = 0
        self.requeued_blocks = 0

    @property
    def done(self) -> bool:
        return self.watermark >= self.total

    def stream_up(self, j: int) -> None:
        self.inflight[j] = set()

    def mark(self, offset: int) -> bool:
        """Apply a restart marker; whether it advanced the watermark.
        Stale and repeated markers are no-ops; one off a block boundary
        is a :class:`ProtocolError`."""
        if offset > self.total or (offset % self.block and offset != self.total):
            raise ProtocolError(f"restart marker {offset} is not a block boundary")
        if offset <= self.watermark:
            return False
        self.watermark = offset
        # Acknowledged blocks need no tracking (never requeued).
        for offsets in self.inflight.values():
            offsets.difference_update([o for o in offsets if o < offset])
        return True

    def stream_dead(self, j: int) -> int:
        """Put stream ``j``'s unacknowledged blocks back in play; returns
        how many.

        Requeued offsets go AHEAD of everything still unsent: the sink's
        restart marker cannot advance past the lowest of them.  Behind
        the unsent backlog they deadlock the transfer once every
        surviving stream fills its window with post-gap blocks, because
        windows only drain when the watermark moves.
        """
        stale = self.inflight.pop(j, set())
        self.pending = deque(sorted(stale.union(self.pending)))
        self.requeued_blocks += len(stale)
        return len(stale)

    def next_block(self, j: int) -> Optional[Tuple[int, int]]:
        """``(offset, length)`` for stream ``j`` to send, or ``None``."""
        pending = self.pending
        while pending and pending[0] < self.watermark:
            pending.popleft()  # a requeued block whose first copy landed
        if not pending:
            return None
        # Window full or not, the block AT the watermark is sent (window
        # overrun of one, the gap rescue): the watermark -- the only
        # thing that drains a window -- cannot advance past it, so
        # parking on it deadlocks once every window holds post-gap blocks.
        if len(self.inflight[j]) >= self.window and pending[0] != self.watermark:
            return None
        offset = pending.popleft()
        length = min(self.block, self.total - offset)
        self.inflight[j].add(offset)
        self.bytes_sent += length
        self.blocks_sent += 1
        return offset, length


class StripeReceiver:
    """Receive side of one transfer, without I/O.

    Events in: :meth:`join` (a stream's hello), :meth:`claim` (a BLOCK
    header), :meth:`arrived` (that block's payload is in place).  Out:
    where each payload goes, :meth:`take_mark` (the marker due after a
    read) and :attr:`done`.
    """

    __slots__ = (
        "xfer", "total", "block", "buf", "watermark", "streams_seen",
        "duplicate_blocks", "marks_sent", "_landed", "_mark_due",
    )

    def __init__(self, xfer: str, total: int, block: int) -> None:
        self.xfer = xfer
        self.total = total
        self.block = block
        self.buf = bytearray(total)
        #: Contiguous byte count in place.
        self.watermark = 0
        self.streams_seen = 0
        self.duplicate_blocks = 0
        self.marks_sent = 0
        #: Offsets above the watermark whose payload is in place.
        self._landed: Set[int] = set()
        self._mark_due = False

    @property
    def done(self) -> bool:
        return self.watermark >= self.total

    def join(self) -> int:
        """A stream's immediate marker: a (re)joining stream resumes
        from the watermark, never from offset 0."""
        self.streams_seen += 1
        self.marks_sent += 1
        return self.watermark

    def claim(self, offset: int, length: int) -> Optional[memoryview]:
        """Where a block's payload goes: its place in ``buf``, or
        ``None`` (scratch) when a copy of it already landed."""
        if (
            offset % self.block
            or offset >= self.total
            or length != min(self.block, self.total - offset)
        ):
            raise ProtocolError(f"BLOCK ({offset}, {length}) is not a block of the transfer")
        if offset < self.watermark or offset in self._landed:
            self._duplicate()
            return None
        # Nothing is reserved here: a copy still being read on another
        # stream may never land (that stream may be dying while the
        # sender resends the block), so this copy is read in place too.
        # Both carry the same source bytes.
        return memoryview(self.buf)[offset:offset + length]

    def arrived(self, offset: int) -> bool:
        """A claimed payload is in place; whether this copy landed the
        block (one racing a concurrent copy that landed it is a duplicate)."""
        if offset < self.watermark or offset in self._landed:
            self._duplicate()
            return False
        self._landed.add(offset)
        if offset == self.watermark:  # else a gap below still stalls the watermark
            while self.watermark in self._landed:
                self._landed.remove(self.watermark)
                self.watermark = min(self.watermark + self.block, self.total)
            self._mark_due = True
        return True

    def _duplicate(self) -> None:
        # First copy wins.  A copy means the sender is behind (a marker
        # lost with a stream, a resend after completion): tell it.
        self.duplicate_blocks += 1
        self._mark_due = True

    def take_mark(self) -> Optional[int]:
        """Per read: the marker due (watermark advanced, or a duplicate)."""
        due = self._mark_due
        self._mark_due = False
        if not due:
            return None
        self.marks_sent += 1
        return self.watermark


class _SendStream(asyncio.Protocol):
    """One stream of a send after its hello: markers in, blocks out."""

    def __init__(self, send: "_Send", idx: int, writer: asyncio.StreamWriter) -> None:
        self.send = send
        self.idx = idx
        self.writer = writer
        self.transport = writer.transport
        self.paused = False
        #: A partial frame from the last read.
        self.stash = b""
        #: A silent sink: no first restart marker in time is stream death.
        self.deadline = asyncio.get_running_loop().call_later(
            HELLO_TIMEOUT_S, self.transport.abort
        )

    def data_received(self, data: bytes) -> None:
        data = self.stash + data
        whole = len(data) - len(data) % _FRAME.size
        self.stash = data[whole:]
        try:
            for ftype, offset, _length in _FRAME.iter_unpack(data[:whole]):
                if ftype != _MARK:
                    raise ProtocolError(f"unexpected frame type {ftype} from sink")
                self.deadline.cancel()
                self.send.on_mark(offset)
        except ProtocolError:
            self.transport.abort()

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.send.pump(self)

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.deadline.cancel()
        self.send.on_lost(self)


class _Send:
    """Dials, redials and live streams of one striped send."""

    def __init__(
        self,
        connect: ConnectFn,
        view: memoryview,
        streams: int,
        block: int,
        window: int,
        xfer: str,
        max_reconnects: int,
        on_block: Optional[Callable[[int, int, int], Any]],
    ) -> None:
        self.tx = StripeSender(view.nbytes, block, window)
        self.connect = connect
        self.view = view
        self.streams = streams
        self.xfer = xfer
        self.on_block = on_block
        #: Per stream index: redials (and failed dials) left.
        self.budget = [max_reconnects] * streams
        self.reconnects = 0
        self.live: Dict[int, _SendStream] = {}
        self.dials: Set[asyncio.Task] = set()
        self.errors: List[BaseException] = []
        self.finished: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()

    def dial(self, idx: int) -> None:
        task = asyncio.ensure_future(self._dial(idx))
        self.dials.add(task)
        task.add_done_callback(self._dial_done)

    def _dial_done(self, task: asyncio.Task) -> None:
        self.dials.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self.errors.append(task.exception())
        self._check_stuck()

    async def _dial(self, idx: int) -> None:
        while True:
            try:
                reader, writer = await self.connect()
                break
            except (ConnectionError, OSError) as exc:
                if self.budget[idx] <= 0:
                    raise StripeError(f"stream {idx}: dial failed: {exc}") from exc
                self.budget[idx] -= 1
                await asyncio.sleep(0.02)
        tune_stream(writer)
        writer.write(_hello_line(self.xfer, idx, self.streams, self.tx.total, self.tx.block))
        stream = _SendStream(self, idx, writer)
        writer.transport.set_protocol(stream)
        self.live[idx] = stream
        self.tx.stream_up(idx)
        stream.data_received(steal_reader_buffer(reader) or b"")
        if reader.at_eof() or reader.exception() is not None:
            # It ended before the swap: tell the new protocol.
            writer.transport.abort()
            stream.connection_lost(None)
            return
        self.pump(stream)

    def pump(self, stream: _SendStream) -> None:
        """Send what the engine hands ``stream`` while the transport takes it."""
        transport = stream.transport
        while not stream.paused and not transport.is_closing():
            nxt = self.tx.next_block(stream.idx)
            if nxt is None:
                return
            offset, length = nxt
            if self.on_block is not None:
                self.on_block(stream.idx, offset, length)
                if transport.is_closing():
                    return  # the hook killed it: the block is requeued with it
            send_segments(
                stream.writer,
                [_FRAME.pack(_BLOCK, offset, length), self.view[offset:offset + length]],
            )

    def on_mark(self, offset: int) -> None:
        advanced = self.tx.mark(offset)
        if self.finished.done():
            return
        if not self.tx.done:
            if advanced:
                for stream in list(self.live.values()):
                    self.pump(stream)
            return
        # The marker that completed the transfer, or the first marker
        # of an empty one.
        for stream in self.live.values():
            if not stream.transport.is_closing():
                stream.transport.write(_FRAME.pack(_END, offset, 0))
                stream.transport.close()
        if not self.finished.done():
            self.finished.set_result(None)

    def on_lost(self, stream: _SendStream) -> None:
        idx = stream.idx
        if self.live.get(idx) is not stream:
            return
        del self.live[idx]
        if self.finished.done():
            return
        self.tx.stream_dead(idx)
        if self.budget[idx] > 0:
            self.budget[idx] -= 1
            self.reconnects += 1
            rec = _obs.RECORDER
            if rec is not None:
                rec.wall_instant("stripe", "stream_reconnect",
                                 track=f"stripe:{self.xfer}", stream=idx)
            self.dial(idx)
        else:
            self.errors.append(StripeError(f"stream {idx} died and reconnect budget exhausted"))
        for sibling in list(self.live.values()):
            self.pump(sibling)
        self._check_stuck()

    def _check_stuck(self) -> None:
        if self.live or self.dials or self.finished.done():
            return
        exc = StripeError(
            f"striped transfer incomplete at watermark {self.tx.watermark}/"
            f"{self.tx.total} ({len(self.errors)}/{self.streams} streams failed)"
        )
        exc.__cause__ = self.errors[0] if self.errors else None
        self.finished.set_exception(exc)


async def send_striped(
    connect: ConnectFn,
    data: "bytes | bytearray | memoryview",
    *,
    streams: int = DEFAULT_STREAMS,
    block_bytes: int = DEFAULT_BLOCK,
    window_blocks: int = DEFAULT_WINDOW,
    xfer_id: Optional[str] = None,
    max_reconnects: int = 4,
    on_block: Optional[Callable[[int, int, int], Any]] = None,
) -> Dict[str, Any]:
    """Send ``data`` striped across ``streams`` parallel connections.

    ``connect`` is awaited once per stream (plus once per replacement)
    and must yield a fresh ``(reader, writer)`` to the sink — e.g. a
    relay-chain dial.  Blocks are offset-tagged, so streams need no
    mutual ordering.  A stream that dies, or whose first restart marker
    is later than :data:`HELLO_TIMEOUT_S`, has its unacknowledged
    blocks requeued onto its siblings and is re-dialed (up to
    ``max_reconnects`` times per stream), resuming from the sink's last
    restart marker rather than offset 0.  ``on_block(stream, offset,
    length)`` fires before each block send — a failure-injection and
    progress hook.

    Returns a report dict (bytes/blocks sent including retransmits,
    requeued block count, reconnect count, per-call stream count).

    Raises :class:`StripeError` when the transfer cannot complete
    (every stream dead and reconnect budget exhausted).
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    if block_bytes < 1:
        raise ValueError(f"block_bytes must be >= 1, got {block_bytes}")
    if window_blocks < 1:
        raise ValueError(f"window_blocks must be >= 1, got {window_blocks}")
    view = memoryview(data).cast("B")
    xfer = xfer_id or uuid.uuid4().hex[:16]
    rec = _obs.RECORDER
    t0 = rec.wall_ts() if rec is not None else 0.0
    send = _Send(connect, view, streams, block_bytes, window_blocks, xfer,
                 max_reconnects, on_block)
    for i in range(streams):
        send.dial(i)
    try:
        await send.finished
    finally:
        # No more redials; abort what a failed or cancelled send left.
        send.finished.cancel()
        for stream in list(send.live.values()):
            if not stream.transport.is_closing():
                stream.transport.abort()
        for task in send.dials:
            task.cancel()
        await asyncio.gather(*send.dials, return_exceptions=True)
    tx = send.tx
    if rec is not None:
        rec.wall_span_end("stripe", "send", t0, track=f"stripe:{xfer}",
                          bytes=tx.total, streams=streams,
                          reconnects=send.reconnects)
    return {
        "xfer": xfer,
        "streams": streams,
        "block_bytes": block_bytes,
        "window_blocks": window_blocks,
        "total_bytes": tx.total,
        "bytes_sent": tx.bytes_sent,
        "blocks_sent": tx.blocks_sent,
        "requeued_blocks": tx.requeued_blocks,
        "reconnects": send.reconnects,
    }


class _SinkStream(asyncio.BufferedProtocol):
    """One stream into a :class:`StripeSink` after its hello.

    Reads land in the 13-byte header slot, then directly in the
    reassembly buffer at the block's offset (one copy, kernel to final
    place); a duplicate's payload lands in a scratch buffer, and so
    does the rest of a block still being read when the transfer
    completes (the buffer is the caller's from then on).
    """

    def __init__(self, sink: "StripeSink", rx: StripeReceiver, writer: Any) -> None:
        self.sink = sink
        self.rx = rx
        # Kept: a collected StreamWriter closes its transport.
        self.writer = writer
        self.transport = writer.transport
        self.header = memoryview(bytearray(_FRAME.size))
        #: Where the next bytes go.
        self.dst = self.header
        #: The block being read in place (-1: none, or into scratch).
        self.offset = -1
        #: Payload bytes of the current block still to come.
        self.left = 0
        self.closed: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.dst

    def buffer_updated(self, nbytes: int, leftover: bytes = b"") -> None:
        """A read of ``nbytes`` into ``dst``, then ``leftover`` (bytes read
        past the hello) copied in as if read; at most one marker back."""
        view = memoryview(leftover)
        try:
            self._advance(nbytes)
            while view and not self.transport.is_closing():
                n = min(len(self.dst), len(view))
                self.dst[:n] = view[:n]
                view = view[n:]
                self._advance(n)
        except ProtocolError:
            self.transport.abort()
            return
        mark = self.rx.take_mark()
        if mark is not None and not self.transport.is_closing():
            self.transport.write(_FRAME.pack(_MARK, mark, 0))
        if self.rx.done:
            self.sink._complete(self.rx)

    def _advance(self, n: int) -> None:
        if self.left:
            self.left -= n
            self.dst = self.dst[n:]
            if not self.left:
                if self.offset >= 0:
                    self.rx.arrived(self.offset)
                self.offset = -1
                self.dst = self.header
            return
        filled = _FRAME.size - len(self.dst) + n
        if filled < _FRAME.size:
            self.dst = self.header[filled:]
            return
        self.dst = self.header
        ftype, offset, length = _FRAME.unpack(self.header)
        if ftype == _END:
            self.transport.close()
        elif ftype != _BLOCK:
            raise ProtocolError(f"unexpected frame type {ftype} from sender")
        else:
            view = self.rx.claim(offset, length)
            self.left = length
            if view is None:
                self.dst = memoryview(bytearray(length))
            else:
                self.offset = offset
                self.dst = view

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        if not self.closed.done():
            self.sink._streams.discard(self)
            self.closed.set_result(None)


class StripeSink:
    """Long-lived striped-transfer sink over one accept source.

    Owns the accept loop for its whole lifetime and serves any number
    of *sequential* transfers via :meth:`recv`.  Unlike the one-shot
    :func:`recv_striped` wrapper, the sink remembers the final
    watermark of every transfer it completed and answers a stream that
    (re)dials *after* its transfer already finished with that final
    restart marker.  Without that memory, a sender whose stream died
    in the same instant the last block landed (a drained relay worker
    aborting chains, say) redials into a sink that no longer knows the
    transfer and waits for a marker that never comes — so any caller
    whose senders can redial across a transfer boundary (worker drains,
    sequential sub-transfers on one listener) must hold a sink open
    until the *senders* report completion, not merely until the payload
    arrives.  A dial that sends no hello within :data:`HELLO_TIMEOUT_S`
    is closed.
    """

    def __init__(self, accept: ConnectFn) -> None:
        self._accept = accept
        #: xfer id -> final watermark of transfers served to completion
        #: (insertion-ordered; trimmed to the :data:`SINK_REMEMBER` newest).
        self._completed: Dict[str, int] = {}
        self._rx: Optional[StripeReceiver] = None
        #: Set while a recv() waits; resolves when its transfer completes.
        self._done: "Optional[asyncio.Future[None]]" = None
        self._hellos: Set[asyncio.Task] = set()
        self._streams: Set[_SinkStream] = set()
        self._acceptor = asyncio.ensure_future(self._accept_loop())

    async def _accept_loop(self) -> None:
        while True:
            reader, writer = await self._accept()
            task = asyncio.ensure_future(self._hello(reader, writer))
            self._hellos.add(task)
            task.add_done_callback(self._hellos.discard)

    async def _hello(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        tune_stream(writer)
        try:
            line = await asyncio.wait_for(reader.readline(), HELLO_TIMEOUT_S)
            hello = _parse_hello(line)
            xfer = hello["xfer"]
            if xfer in self._completed:
                # Redial raced transfer completion: hand the sender
                # the final marker so it observes the full watermark.
                writer.write(_FRAME.pack(_MARK, self._completed[xfer], 0))
            elif self._rx is not None or (self._done is not None and not self._done.done()):
                if self._rx is None:
                    self._rx = StripeReceiver(xfer, hello["total"], hello["block"])
                elif xfer != self._rx.xfer:
                    raise ProtocolError(f"stream for foreign transfer {xfer!r}")
                self._adopt(reader, writer, self._rx)
                return
            # Else no recv() is pending: a stray stream for a transfer
            # nobody is (or will be) assembling.  Closing it reads as
            # stream death on the sender.
        except (ProtocolError, ValueError, TypeError) as exc:
            if self._rx is None and self._done is not None and not self._done.done():
                self._done.set_exception(StripeError(str(exc)))
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass  # no hello in time, or the dial died
        writer.close()

    def _adopt(self, reader: asyncio.StreamReader, writer: Any, rx: StripeReceiver) -> None:
        stream = _SinkStream(self, rx, writer)
        writer.transport.set_protocol(stream)
        writer.transport.resume_reading()
        self._streams.add(stream)
        writer.write(_FRAME.pack(_MARK, rx.join(), 0))
        stream.buffer_updated(0, steal_reader_buffer(reader) or b"")
        if reader.at_eof() or reader.exception() is not None:
            # It ended before the swap: tell the new protocol.
            writer.transport.abort()
            stream.connection_lost(None)

    def _complete(self, rx: StripeReceiver) -> None:
        if rx is self._rx and self._done is not None and not self._done.done():
            # A straggler still reading a copy of a landed block in
            # place reads the rest into scratch: it ends a duplicate,
            # and the buffer goes to the caller with no view on it.
            for stream in self._streams:
                if stream.rx is rx and stream.offset >= 0:
                    stream.dst = memoryview(bytearray(len(stream.dst)))
            self._done.set_result(None)

    async def recv(self) -> Tuple[bytearray, Dict[str, Any]]:
        """Receive the next striped transfer; returns ``(data, report)``.

        The first stream's hello sizes the reassembly buffer; streams
        may join (and rejoin after a reconnect) at any point until the
        transfer completes.  ``data`` is that buffer itself, not a
        copy: the sink keeps no reference to it, so the caller may
        resize or reuse it.
        """
        if self._acceptor.done():
            raise StripeError("stripe sink is closed")
        if self._done is not None:
            raise StripeError("a recv() is already in progress")
        self._done = asyncio.get_running_loop().create_future()
        try:
            await self._done
            rx = self._rx
        finally:
            self._done = None
            self._rx = None
        self._completed[rx.xfer] = rx.watermark
        while len(self._completed) > SINK_REMEMBER:
            del self._completed[next(iter(self._completed))]
        report = {
            "xfer": rx.xfer,
            "total_bytes": rx.total,
            "streams_seen": rx.streams_seen,
            "duplicate_blocks": rx.duplicate_blocks,
            "marks_sent": rx.marks_sent,
        }
        data, rx.buf = rx.buf, bytearray()
        return data, report

    async def close(self) -> None:
        """Stop accepting; give open streams :data:`SINK_CLOSE_GRACE_S`
        to flush their final restart markers and end, then abort the
        stragglers."""
        for task in (self._acceptor, *self._hellos):
            task.cancel()
        await asyncio.gather(self._acceptor, *self._hellos, return_exceptions=True)
        if self._streams:
            closed = [stream.closed for stream in self._streams]
            await asyncio.wait(closed, timeout=SINK_CLOSE_GRACE_S)
            for stream in list(self._streams):
                stream.transport.abort()
            await asyncio.wait(closed)


async def recv_striped(accept: ConnectFn) -> Tuple[bytearray, Dict[str, Any]]:
    """Receive one striped transfer; returns ``(data, report)``, with
    ``data`` the reassembly buffer itself (see :meth:`StripeSink.recv`).

    ``accept`` is awaited repeatedly and must yield the next inbound
    ``(reader, writer)`` stream — e.g. ``listener.accept``.  The first
    stream's hello sizes the reassembly buffer; streams may join (and
    rejoin after a reconnect) at any point until the transfer
    completes.

    One-shot: accepting stops the moment the payload is complete, so a
    sender stream that redials *after* that point gets no restart
    marker, and the sender counts it dead after :data:`HELLO_TIMEOUT_S`.
    When senders can
    redial across the completion boundary (relay-worker drains,
    back-to-back transfers on one listener), use :class:`StripeSink`
    and keep it open until the sender reports completion.
    """
    sink = StripeSink(accept)
    try:
        return await sink.recv()
    finally:
        await sink.close()
