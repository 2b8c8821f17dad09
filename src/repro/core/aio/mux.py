"""Frame-multiplexed outer↔inner nxport link.

The paper's firewall argument (§4, Fig. 4) is that the Nexus Proxy
needs exactly **one** inbound pinhole: outer server → inner server on
the nxport.  This module multiplexes all passive chains of one
outer↔inner pair onto a single persistent TCP connection carrying
NXMUX/1 frames (format and sans-io decoder:
:mod:`repro.core.aio.protocol`).

Each chain direction has a byte window (``DEFAULT_WINDOW``): DATA
consumes credit at the sender, and the receiver returns it only once
the bytes are written toward the destination socket *and* that
socket's transport is below its high-water mark, so one stalled chain
backpressures *its* sender without starving siblings, and relay memory
per chain stays within window + high-water.

The data path is protocol-driven (DESIGN §6.5): the session is the
``BufferedProtocol`` of the link, every :class:`MuxChain` the one of
its local socket; no StreamReader and no pump task touches a byte.

The outer side (:class:`MuxConnector`) owns the link lifecycle:
connects lazily, re-dials with exponential backoff when the link drops
(in-flight chains die, as their TCP connections would).  The inner
side is :func:`serve_mux_session`, entered when a nxport connection
opens with :data:`MUX_MAGIC` instead of a JSON control line.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import socket
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.core.aio.protocol import (
    FRAME_HEADER,
    MAX_CONTROL_PAYLOAD,
    MAX_FRAME_PAYLOAD,
    MUX_MAGIC,
    U32,
    ChainReset,
    FrameDecoder,
    FrameType,
    MuxError,
    adopt,
    require_port,
)
from repro.core.aio.pump import (
    COALESCE_BUDGET,
    MAX_CHUNK,
    STREAM_LIMIT,
    WRITE_HIGH_WATER,
    SegmentBatcher,
    transport_fd,
    tune_stream,
    write_direct,
)
from repro.obs import spans as _obs
from repro.obs import trace as _trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.aio.relay import AioRelayStats

__all__ = [
    "MUX_MAGIC",
    "DEFAULT_WINDOW",
    "DIAL_TIMEOUT_S",
    "FrameType",
    "FrameDecoder",
    "ChainReset",
    "MuxError",
    "MuxChain",
    "MuxConnector",
    "keep_link_alive",
    "serve_mux_session",
]

log = logging.getLogger("repro.nexus_proxy.mux")

#: Deadline (seconds) for a relay's onward dial — the outer's active
#: ``connect`` and the inner's passive OPEN: a destination that drops
#: SYNs gets a typed error instead of pinning the chain until the
#: kernel gives up.
DIAL_TIMEOUT_S = 10.0

#: Per-chain, per-direction flow-control window in bytes.  Both ends
#: read this one constant: a DATA frame beyond it is a protocol
#: violation, so the two ends of a link must agree on it.
DEFAULT_WINDOW = 256 * 1024
#: Consumed bytes are returned as credit once this many accumulate.
_CREDIT_BATCH = DEFAULT_WINDOW // 4
#: The connector's redial backoff: first delay, doubling up to the cap.
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 2.0
#: Deadline for a chain's OPEN: waiting for the link (re)dial, then
#: for the inner server's OPEN_OK/OPEN_ERR.
OPEN_TIMEOUT_S = 10.0
#: TCP keepalive on both ends of the link: the first probe after this
#: many idle seconds, then one every interval; after the last
#: unanswered probe the kernel resets the link, so a link whose peer
#: vanished while idle dies in about a minute and the connector
#: redials.
KEEPALIVE_IDLE_S = 30
KEEPALIVE_INTERVAL_S = 10
KEEPALIVE_PROBES = 3


def keep_link_alive(writer: asyncio.StreamWriter) -> None:
    """Turn on TCP keepalive for a mux link socket, with the
    :data:`KEEPALIVE_IDLE_S` / ``_INTERVAL_S`` / ``_PROBES`` timing
    where the platform names those options.  Best-effort, like
    :func:`tune_stream`: a transport without a raw socket is skipped."""
    sock = writer.get_extra_info("socket")
    if sock is None:
        return
    with contextlib.suppress(OSError):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        for name, value in (
            ("TCP_KEEPIDLE", KEEPALIVE_IDLE_S),
            ("TCP_KEEPINTVL", KEEPALIVE_INTERVAL_S),
            ("TCP_KEEPCNT", KEEPALIVE_PROBES),
        ):
            if hasattr(socket, name):
                sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, name), value)


class MuxChain(asyncio.BufferedProtocol):
    """One logical byte stream inside a mux session, and the protocol
    of its local socket from the moment that socket connects: a client
    accepted on a bind's public port (outer), the onward dial (inner).

    Outbound, the event loop reads into the session's shared buffer,
    clipped to the send window, and ``buffer_updated`` frames the view;
    an exhausted window, a backpressured link or an unframed backlog
    is ``pause_reading()``.  Inbound, the session hands DATA spans to
    :meth:`deliver`, which writes them straight to the socket.

    An outer chain (``link`` set) OPENs toward ``dest`` from
    ``connection_made``; its causal context ``ctx``, if any, rides the
    OPEN as an extra JSON key and its ``mux/chain`` span anchors it.
    ``conns`` holds the owning daemon's live transports, for ``stop()``.
    """

    def __init__(self, session: "Optional[_MuxSession]", chain_id: int = 0, *,
                 link: "Optional[MuxConnector]" = None,
                 dest: "Tuple[str, int]" = ("", 0),
                 ctx: "Optional[_trace.TraceContext]" = None,
                 conns: "Optional[set[asyncio.BaseTransport]]" = None) -> None:
        self._session = session
        self.chain_id = chain_id
        self._link = link
        self._dest = dest
        self._conns = conns if conns is not None else set()
        self.stats = (session or link).stats
        self.transport: Optional[asyncio.Transport] = None
        self.fd: Optional[int] = None
        self._send_window = DEFAULT_WINDOW
        #: What the peer may still send before it must wait for credit.
        self._recv_credit = DEFAULT_WINDOW
        #: Consumed bytes not yet returned as credit (see ``consumed``).
        self._pending_credit = 0
        self._write_paused = False
        #: Bytes the stream layer had read before ``relay_chain``
        #: adopted the socket (may exceed the window); framed under it.
        self._backlog = memoryview(b"")
        #: The read buffer of a socket that reads before the link is up.
        self._held = bytearray()
        #: DATA that arrived before the local socket was attached.
        self._inbox: "list[bytes]" = []
        self._stall_t0: Optional[float] = None
        self._reset: Optional[BaseException] = None
        self._local_eof = self._sent_eof = self._recv_eof = False
        self._born = asyncio.get_running_loop().time()
        #: The pending OPEN's timer; recorder time the socket connected.
        self._deadline: Optional[asyncio.TimerHandle] = None
        self._t0 = 0.0
        #: ``relay_chain``'s end of chain, ``open_chain``'s OPEN reply.
        self.done: "Optional[asyncio.Future[None]]" = None
        self.open_reply: Optional[asyncio.Future] = None
        #: Bytes sent + received over this chain (stats).
        self.bytes_moved = 0
        self._ctx = ctx
        #: Causal trace context (wire form) when the OPEN carried one.
        self.tctx = ctx.to_wire() if ctx is not None else None

    # -- local socket → link --------------------------------------------------

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._session is None:  # the link is not up: one read, held
            self._held = bytearray(DEFAULT_WINDOW)
            return memoryview(self._held)
        return self._session.rview[:self._send_window]

    def buffer_updated(self, nbytes: int) -> None:
        if self._session is None:  # framed by ``_open``, under the window
            held, self._held = self._held, bytearray()
            self._backlog = memoryview(bytes(self._backlog) + held[:nbytes])
            self.transport.pause_reading()
            return
        payload = self._session.rview[:nbytes]
        batcher = self._session.batcher
        if batcher.pending_bytes + FRAME_HEADER.size + nbytes < COALESCE_BUDGET:
            # Small: copied, so it can wait out the tick and coalesce.
            # Anything larger is flushed inside send_frame, so the view
            # of the shared buffer is never retained.
            payload = bytes(payload)
        self._send(payload)
        self._update_reading()

    def eof_received(self) -> bool:
        self._local_eof = True
        if self._session is not None:  # else ``_open`` sends the EOF
            self._pump()
        return True  # keep the socket open: the peer may still send to us

    def _send(self, payload: "bytes | memoryview") -> None:
        n = len(payload)
        self._send_window -= n
        self.bytes_moved += n
        self._session.stats.on_chunk(n)
        self._session.send_frame(self.chain_id, FrameType.DATA, payload)
        if self._send_window <= 0 and self._stall_t0 is None:
            self._session.stats.mux_window_stalls += 1
            rec = _obs.RECORDER
            self._stall_t0 = rec.wall_ts() if rec is not None else 0.0

    def _pump(self) -> None:
        """Frame what the window admits of the backlog, then a pending
        EOF, then let the socket read again."""
        while (self._backlog and self._send_window > 0
               and not self._session.link_paused and self._reset is None):
            n = min(len(self._backlog), self._send_window, MAX_FRAME_PAYLOAD)
            self._send(self._backlog[:n])
            self._backlog = self._backlog[n:]
        if (self._local_eof and not self._backlog and not self._sent_eof
                and self._reset is None):
            self._sent_eof = True
            self._session.send_frame(self.chain_id, FrameType.EOF)
            self._maybe_finish()
        self._update_reading()

    def _update_reading(self) -> None:
        t = self.transport
        if t is None or t.is_closing() or self._local_eof:
            return
        want = (self._send_window > 0 and not self._backlog
                and not self._session.link_paused)
        if want != t.is_reading():
            (t.resume_reading if want else t.pause_reading)()

    def _end_stall(self) -> None:
        t0, self._stall_t0 = self._stall_t0, None
        rec = _obs.RECORDER
        if t0 is not None and rec is not None:
            rec.wall_span_end("mux", "window_stall", t0,
                              track=f"chain:{self.chain_id}",
                              **_trace.wire_args(self.tctx))

    def send_rst(self, exc: Optional[BaseException] = None) -> None:
        if self._session is not None:  # None: still waiting for the link
            self._session.chains.pop(self.chain_id, None)
            with contextlib.suppress(Exception):
                self._session.send_frame(self.chain_id, FrameType.RST)
        self.abort(exc or ChainReset(f"chain {self.chain_id} reset locally"))

    def add_credit(self, nbytes: int) -> None:
        if self._send_window + nbytes > DEFAULT_WINDOW:
            raise MuxError(f"chain {self.chain_id}: credit beyond the window")
        self._send_window += nbytes
        if self._send_window > 0:
            self._end_stall()
        self._pump()

    # -- link → local socket --------------------------------------------------

    def deliver(self, view: "bytes | memoryview") -> None:
        """One span of a DATA payload, in arrival order."""
        n = len(view)
        self.bytes_moved += n
        self._recv_credit -= n
        if self._recv_credit < 0:
            raise MuxError(f"chain {self.chain_id}: DATA beyond the window")
        if self._recv_eof or self._reset is not None:
            return
        self._session.stats.on_chunk(n)
        if self.transport is None:
            self._inbox.append(bytes(view))
        else:
            self._write(view)

    def _write(self, view: "bytes | memoryview") -> None:
        write_direct(self.transport, self.fd, view)
        self.consumed(len(view))

    def on_eof(self) -> None:
        self._recv_eof = True
        t = self.transport
        if t is not None:
            try:
                t.write_eof()
            except (OSError, RuntimeError):
                t.close()
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        """Both directions saw EOF → forget the chain (its close sends no
        RST; a late WINDOW is dropped) and close (flushes queued writes)."""
        if self._sent_eof and self._recv_eof and self.transport is not None:
            self._session.chains.pop(self.chain_id, None)
            self.transport.close()

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self.consumed(0)

    def consumed(self, nbytes: int) -> None:
        """``nbytes`` went toward the local socket: return them as
        credit, one WINDOW frame per quarter-window and none while the
        socket is past high-water.  Live because a sender stalled at
        zero window implies a full window un-credited here."""
        self._pending_credit += nbytes
        if (self._pending_credit >= _CREDIT_BATCH
                and not self._write_paused and self._reset is None):
            credit, self._pending_credit = self._pending_credit, 0
            self._recv_credit += credit
            self._session.send_frame(
                self.chain_id, FrameType.WINDOW, U32.pack(credit))

    # -- lifecycle ------------------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.fd = transport_fd(transport)
        transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)
        self._conns.add(transport)
        rec = _obs.RECORDER
        self._t0 = rec.wall_ts() if rec is not None else 0.0
        if self._reset is not None:  # inner: RST, link loss or deadline beat the dial
            transport.close()
        elif self._link is not None:
            self._link.begin(self)
        else:  # inner: the onward dial landed
            self.stats.passive_chains += 1
            self._session.send_frame(self.chain_id, FrameType.OPEN_OK)
            inbox, self._inbox = self._inbox, []
            for data in inbox:
                self._write(data)
            if self._recv_eof:
                self.on_eof()
            self._pump()

    def _open(self, session: "_MuxSession") -> None:
        """Send OPEN and frame what the socket sends right behind it:
        the inner queues DATA that beats its dial, within the window."""
        self._session = session
        self.chain_id = self._link._next_chain_id
        self._link._next_chain_id += 1
        session.chains[self.chain_id] = self
        host, port = self._dest
        req = {"host": host, "port": port}
        if self.tctx is not None:
            req["tctx"] = self.tctx
        session.send_frame(self.chain_id, FrameType.OPEN, json.dumps(req).encode())
        self._pump()
        session.batcher.flush()

    def _settle(self, exc: Optional[BaseException]) -> None:
        """The pending OPEN, if any, succeeded (``exc`` None) or failed."""
        timer, self._deadline = self._deadline, None
        if timer is None:
            return
        timer.cancel()
        if exc is None:
            self.stats.passive_chains += 1
            self.stats.chain_setup_us.record(
                int((asyncio.get_running_loop().time() - self._born) * 1e6))
        else:
            self._link._waiting.pop(self, None)
            self.stats.failed_requests += 1
            log.warning("mux passive chain failed: %s", exc)
        reply = self.open_reply
        if reply is not None and not reply.done():
            if exc is None:
                reply.set_result(None)
            else:
                reply.set_exception(exc)

    def refuse(self, reason: str) -> None:
        """Answer the OPEN that made this (inner) chain with OPEN_ERR."""
        self.stats.failed_requests += 1
        self._session.chains.pop(self.chain_id, None)
        self.abort(ChainReset(reason))
        with contextlib.suppress(Exception):
            self._session.send_frame(self.chain_id, FrameType.OPEN_ERR,
                                     reason.encode()[:MAX_CONTROL_PAYLOAD])

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        transport, self.transport, self.fd = self.transport, None, None
        self.abort(ChainReset(f"chain {self.chain_id}: local socket closed"))
        session = self._session
        if session is not None and session.alive and self.chain_id in session.chains:
            self.send_rst()
        self._conns.discard(transport)
        self.stats.chain_bytes.record(self.bytes_moved)
        rec = _obs.RECORDER
        if rec is not None:
            rec.wall_span_end(
                "mux", "chain", self._t0, track=f"chain:{self.chain_id}",
                dest="%s:%d" % self._dest, bytes=self.bytes_moved,
                **(_trace.span_args(self._ctx) if self._ctx is not None
                   else _trace.wire_args(self.tctx)),
            )
        if self.done is not None and not self.done.done():
            self.done.set_result(None)

    def abort(self, exc: BaseException) -> None:
        """Tear this chain down locally (RST, link loss, OPEN failure)."""
        if self._reset is not None:
            return
        self._reset = exc
        self._end_stall()
        self._inbox.clear()
        self._settle(exc)
        if self.transport is not None:
            self.transport.close()


class _MuxSession(asyncio.BufferedProtocol):
    """One live mux connection (either side) and its link protocol,
    taken over from the stream layer, frames it already read included.

    ``send_frame`` hands header and payload to a ``SegmentBatcher``:
    frames queued within one event-loop tick leave in a single
    ``writev``, a batch that reaches the coalesce budget at once.
    Inbound frames are dispatched inside the read callback.  ``closed``
    resolves (to the cause) when the link ends.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 stats: "AioRelayStats",
                 on_open: "Optional[Callable[[MuxChain, bytes], None]]" = None) -> None:
        self.writer = writer
        self.stats = stats
        self.chains: Dict[int, MuxChain] = {}
        self.alive = True
        #: A frame has arrived, so the peer speaks NXMUX/1.
        self.heard = False
        #: The link transport is past its high-water mark: no chain reads.
        self.link_paused = False
        self.batcher = SegmentBatcher(writer, on_flush=self._on_flush)
        self.decoder = FrameDecoder()
        self._on_open = on_open
        self._link_view = memoryview(bytearray(MAX_CHUNK))
        #: The one receive buffer every chain's local socket reads into.
        self.rview = memoryview(bytearray(MAX_CHUNK))
        self.closed: "asyncio.Future[BaseException]" = (
            asyncio.get_running_loop().create_future())
        leftover = adopt(reader, writer, self)
        if leftover is None or reader.at_eof():
            self.shutdown(MuxError("mux link closed before it was adopted"))
            return
        self._feed(leftover)

    def _on_flush(self, nbytes: int, nsegments: int) -> None:
        self.stats.coalesced_flushes += 1
        self.stats.coalesce_bytes.record(nbytes)

    def send_frame(self, chain_id: int, ftype: int, payload: "bytes | memoryview" = b"") -> None:
        if not self.alive:
            raise MuxError("mux link is down")
        self.batcher.add(FRAME_HEADER.pack(chain_id, ftype, len(payload)), payload)
        self.stats.mux_frames += 1

    # -- link protocol --------------------------------------------------------

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._link_view

    def buffer_updated(self, nbytes: int) -> None:
        self._feed(self._link_view[:nbytes])

    def _feed(self, data: "bytes | memoryview") -> None:
        if not self.alive:
            return
        try:
            for chain_id, ftype, payload in self.decoder.feed(data):
                self.dispatch(chain_id, ftype, payload)
            # What this read provoked (WINDOW credit, mostly) leaves in
            # one writev now, not a loop iteration later.
            self.batcher.flush()
        except Exception as exc:
            # Whatever escapes the read path must not strand the chains.
            if not isinstance(exc, MuxError):
                log.exception("mux link read path failed")
            self.shutdown(exc)

    def eof_received(self) -> bool:
        self.shutdown(MuxError("mux link closed by peer"))
        return False

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.shutdown(exc or MuxError("mux link closed"))

    def pause_writing(self) -> None:
        self.link_paused = True
        for chain in self.chains.values():
            chain._update_reading()

    def resume_writing(self) -> None:
        self.link_paused = False
        for chain in list(self.chains.values()):
            chain._pump()

    def dispatch(self, chain_id: int, ftype: int, payload: "bytes | memoryview") -> None:
        """Route one frame to its chain; one for an unknown chain —
        normal after a local RST raced in-flight frames — is dropped."""
        self.heard = True
        chain = self.chains.get(chain_id)
        if ftype == FrameType.OPEN and self._on_open is not None:
            if chain is not None:
                raise MuxError(f"duplicate OPEN for chain {chain_id}")
            chain = self.chains[chain_id] = MuxChain(self, chain_id)
            self._on_open(chain, payload)
        elif chain is None:
            return
        elif ftype == FrameType.DATA:
            chain.deliver(payload)
        elif ftype == FrameType.EOF:
            chain.on_eof()
        elif ftype == FrameType.WINDOW:
            chain.add_credit(U32.unpack(payload)[0])
        elif ftype == FrameType.RST:
            del self.chains[chain_id]
            chain.abort(ChainReset(f"chain {chain_id} reset by peer"))
        elif chain._deadline is None:  # no OPEN of ours is pending
            return
        elif ftype == FrameType.OPEN_OK:
            chain._settle(None)
        elif ftype == FrameType.OPEN_ERR:
            del self.chains[chain_id]
            chain.abort(ChainReset(payload.decode("utf-8", "replace") or "refused"))

    def shutdown(self, exc: BaseException) -> None:
        """Link died: abort every chain (their TCP connections would
        have died with a real single-connection pinhole too)."""
        if not self.alive:
            return
        self.alive = False
        self.batcher.close()
        chains, self.chains = self.chains, {}
        for chain in chains.values():
            chain.abort(ChainReset(f"mux link dropped: {exc}"))
        with contextlib.suppress(Exception):
            self.writer.close()
        if not self.closed.done():  # a cancelled waiter cancels it
            self.closed.set_result(exc)


class MuxConnector:
    """The outer server's end of one outer↔inner mux link.

    Lazily connects on the first chain.  When the link drops, every
    live chain is aborted and the connector re-dials; a failed dial, or
    a link that closed before any frame arrived, waits first, with
    exponential backoff (:data:`BACKOFF_BASE_S` doubling up to
    :data:`BACKOFF_MAX_S`).  Chains that arrive meanwhile wait for the
    next successful dial (bounded by :data:`OPEN_TIMEOUT_S`).
    """

    def __init__(self, inner_host: str, inner_port: int, stats: "AioRelayStats") -> None:
        self.inner_host = inner_host
        self.inner_port = inner_port
        self.stats = stats
        self._session: Optional[_MuxSession] = None
        self._run_task: Optional[asyncio.Task] = None
        #: Chains waiting for the link to come up.
        self._waiting: Dict[MuxChain, None] = {}
        self._next_chain_id = 1
        self._closed = False
        #: Successful link (re-)establishments; 1 after first connect.
        self.connects = 0

    async def _run(self) -> None:
        """Connect / serve / reconnect loop."""
        backoff = BACKOFF_BASE_S
        peer = f"{self.inner_host}:{self.inner_port}"
        while not self._closed:
            try:
                reader, writer = await asyncio.open_connection(
                    self.inner_host, self.inner_port, limit=STREAM_LIMIT
                )
            except OSError as exc:
                log.warning("mux dial to %s failed (%s); retrying in %.2fs",
                            peer, exc, backoff)
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, BACKOFF_MAX_S)
                continue
            tune_stream(writer)
            keep_link_alive(writer)
            writer.write(MUX_MAGIC)
            session = self._session = _MuxSession(reader, writer, self.stats)
            self.connects += 1
            if self.connects > 1:
                self.stats.mux_reconnects += 1
            if session.alive:
                waiting, self._waiting = self._waiting, {}
                for chain in waiting:
                    chain._open(session)
            log.info("mux link up to %s (connect #%d)", peer, self.connects)
            try:
                exc = await session.closed
            finally:
                self._session = None
                session.shutdown(ChainReset("mux connector stopped"))
            if self._closed:
                return
            # Only a frame proves the inner speaks NXMUX/1: a link that
            # carried none (a refusing inner takes the connect and
            # closes it) backs off like a failed dial, not in a hot loop.
            if session.heard:
                log.warning("mux link to %s dropped: %s", peer, exc)
                backoff = BACKOFF_BASE_S
            else:
                log.warning("mux link to %s closed before any frame (%s); "
                            "retrying in %.2fs", peer, exc, backoff)
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, BACKOFF_MAX_S)

    def begin(self, chain: MuxChain) -> None:
        """OPEN ``chain`` now if the link is up, else (no task) once it is;
        no OPEN_OK within :data:`OPEN_TIMEOUT_S` resets it.  A waiting
        socket's first read is held and pauses it (see ``get_buffer``):
        Python 3.10 and early 3.11 start reading a socket even when
        ``connection_made`` paused it."""
        if self._run_task is None or self._run_task.done():
            self._run_task = asyncio.ensure_future(self._run())
        chain._deadline = asyncio.get_running_loop().call_later(
            OPEN_TIMEOUT_S, chain.send_rst, asyncio.TimeoutError("no OPEN_OK in time"))
        session = self._session
        if session is not None and session.alive:
            chain._open(session)
        else:
            self._waiting[chain] = None

    async def stop(self) -> None:
        self._closed = True
        for chain in list(self._waiting):
            chain.abort(ChainReset("mux connector stopped"))
        if self._run_task is not None:
            self._run_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._run_task
            self._run_task = None

    async def drop_link(self) -> None:
        """Abort the live TCP link (chaos hook for tests): chains die,
        the connector re-dials automatically."""
        session = self._session
        if session is not None:
            with contextlib.suppress(Exception):
                session.writer.transport.abort()

    async def open_chain(
        self, host: str, port: int, tctx: Optional[str] = None
    ) -> "tuple[MuxChain, _MuxSession]":
        """OPEN a chain with no local socket and wait for the reply:
        :class:`ChainReset` on OPEN_ERR, else a timeout when none comes.
        Counted in ``stats`` like a public-port chain: ``passive_chains``
        and ``chain_setup_us`` on OPEN_OK, ``failed_requests`` on failure.
        ``tctx`` (wire form) is the caller's context: the chain's is its
        child, sent in the OPEN payload (seed-era inner servers ignore it)."""
        chain = MuxChain(None, link=self, dest=(host, port),
                         ctx=_trace.child(_trace.TraceContext.from_wire(tctx)))
        chain.open_reply = asyncio.get_running_loop().create_future()
        self.begin(chain)
        await chain.open_reply
        return chain, chain._session

    async def relay_chain(self, host: str, port: int,
                          sock_reader: asyncio.StreamReader,
                          sock_writer: asyncio.StreamWriter,
                          tctx: Optional[str] = None) -> None:
        """Bridge a chain to an accepted stream until both directions
        finish: the chain adopts the stream's transport as if connected.
        A failed OPEN closes the stream, then raises as :meth:`open_chain`
        does; ``stats`` and ``tctx`` as :meth:`open_chain` says."""
        chain = MuxChain(None, link=self, dest=(host, port),
                         ctx=_trace.child(_trace.TraceContext.from_wire(tctx)))
        leftover = adopt(sock_reader, sock_writer, chain)
        if leftover is None:
            sock_writer.close()
            return
        chain._backlog = memoryview(leftover)
        chain._local_eof = sock_reader.at_eof()
        loop = asyncio.get_running_loop()
        chain.open_reply, chain.done = loop.create_future(), loop.create_future()
        chain.connection_made(sock_writer.transport)
        await chain.done
        await chain.open_reply  # settled by then: OPEN_OK, or the failure


async def serve_mux_session(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    stats: "AioRelayStats",
    *,
    conns: "Optional[set[asyncio.BaseTransport]]" = None,
) -> None:
    """Inner-server end of a mux link (the caller has consumed the
    ``MUX_MAGIC`` line).  Serves OPEN requests until the link closes.
    Each chain's onward socket joins ``conns``, the owning daemon's
    live transports, so its shutdown aborts chains still mid-transfer."""
    loop = asyncio.get_running_loop()
    dials: set[asyncio.Task] = set()

    def dial_timed_out(chain: MuxChain, dial: asyncio.Task) -> None:
        if chain.transport is None:  # a connected chain is past its dial
            chain.refuse("connect timed out")
            dial.cancel()

    async def dial(chain: MuxChain, host: str, port: int) -> None:
        # ``chain`` replies OPEN_OK from its ``connection_made``.
        timer = loop.call_later(DIAL_TIMEOUT_S, dial_timed_out, chain,
                                asyncio.current_task())
        try:
            await loop.create_connection(lambda: chain, host, port)
        except (OSError, ValueError, TypeError) as exc:
            chain.refuse(str(exc))
        finally:
            timer.cancel()

    def on_open(chain: MuxChain, payload: bytes) -> None:
        try:
            req = json.loads(payload)
            host, port = req["host"], require_port(req["port"])
        except (ValueError, KeyError, TypeError) as exc:
            chain.refuse(str(exc))
            return
        chain._dest = (host, port)
        if conns is not None:
            chain._conns = conns
        # Optional causal trace tag; absent from seed-era peers.
        wire = req.get("tctx")
        if isinstance(wire, str):
            chain.tctx = wire
            ctx = _trace.accept(wire)
            rec = _obs.RECORDER
            if rec is not None and ctx is not None:
                rec.wall_instant("mux", "chain_open", track=f"chain:{chain.chain_id}",
                                 dest=f"{host}:{port}", **_trace.span_args(ctx))
        task = loop.create_task(dial(chain, host, port))
        dials.add(task)
        task.add_done_callback(dials.discard)

    # OPENs read behind the magic are dispatched in here.
    session = _MuxSession(reader, writer, stats, on_open)
    try:
        await session.closed
    finally:
        session.shutdown(ChainReset("mux link closed"))
        for task in list(dials):
            task.cancel()
        if dials:
            await asyncio.gather(*dials, return_exceptions=True)
