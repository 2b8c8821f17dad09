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
from typing import TYPE_CHECKING, Callable, Dict, Optional

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
    require_port,
    steal_reader_buffer,
)
from repro.core.aio.pump import (
    COALESCE_BUDGET,
    MAX_CHUNK,
    STREAM_LIMIT,
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


class MuxChain(asyncio.BufferedProtocol):
    """One logical byte stream inside a mux session, and the protocol
    of the local socket :meth:`run` bridges it to.

    Outbound, the event loop reads into the session's shared buffer,
    clipped to the send window, and ``buffer_updated`` frames the view;
    an exhausted window, a backpressured link or an unframed backlog
    is ``pause_reading()``.  Inbound, the session hands DATA spans to
    :meth:`deliver`, which writes them straight to the socket.
    """

    def __init__(self, session: "_MuxSession", chain_id: int) -> None:
        self._session = session
        self.chain_id = chain_id
        self.transport: Optional[asyncio.Transport] = None
        self.fd: Optional[int] = None
        self._send_window = DEFAULT_WINDOW
        #: What the peer may still send before it must wait for credit.
        self._recv_credit = DEFAULT_WINDOW
        #: Consumed bytes not yet returned as credit (see ``consumed``).
        self._pending_credit = 0
        self._write_paused = False
        #: Bytes the stream layer had read before :meth:`run` adopted
        #: the socket (may exceed the window); framed under the window.
        self._backlog = memoryview(b"")
        #: DATA that arrived before the local socket was attached.
        self._inbox: "list[bytes]" = []
        self._stall_t0: Optional[float] = None
        self._reset: Optional[BaseException] = None
        self._local_eof = self._sent_eof = self._recv_eof = False
        self._done: "Optional[asyncio.Future[None]]" = None
        #: Set by the opening side while waiting for OPEN_OK/OPEN_ERR.
        self.open_reply: Optional[asyncio.Future] = None
        #: Bytes sent + received over this chain (stats).
        self.bytes_moved = 0
        #: Causal trace context (wire form) when the OPEN carried one.
        self.tctx: Optional[str] = None

    # -- local socket → link --------------------------------------------------

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._session.rview[:self._send_window]

    def buffer_updated(self, nbytes: int) -> None:
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

    def send_rst(self) -> None:
        with contextlib.suppress(Exception):
            self._session.send_frame(self.chain_id, FrameType.RST)
        self.abort(ChainReset(f"chain {self.chain_id} reset locally"))

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
        """Both directions saw EOF → close (flushes queued writes)."""
        if self._sent_eof and self._recv_eof and self.transport is not None:
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

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.transport = self.fd = None
        self.abort(ChainReset(f"chain {self.chain_id}: local socket closed"))
        if not self._done.done():
            self._done.set_result(None)

    def abort(self, exc: BaseException) -> None:
        """Tear this chain down locally (RST received or link died)."""
        if self._reset is not None:
            return
        self._reset = exc
        self._end_stall()
        self._inbox.clear()
        if self.open_reply is not None and not self.open_reply.done():
            self.open_reply.set_exception(ChainReset(str(exc)))
        if self.transport is not None:
            self.transport.close()

    async def run(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Bridge this established chain to its local TCP socket, both
        directions, until it ends; then clean up."""
        session = self._session
        rec = _obs.RECORDER
        t0 = rec.wall_ts() if rec is not None else 0.0
        self._done = asyncio.get_running_loop().create_future()
        try:
            leftover = steal_reader_buffer(reader)
            if self._reset is None and not writer.transport.is_closing():
                self.transport = writer.transport
                self.fd = transport_fd(self.transport)
                self.transport.set_protocol(self)
                self._backlog = memoryview(leftover)
                self._local_eof = reader.at_eof()
                inbox, self._inbox = self._inbox, []
                for data in inbox:
                    self._write(data)
                if self._recv_eof:
                    self.on_eof()
                self._pump()
                await self._done
        finally:
            session.stats.chain_bytes.record(self.bytes_moved)
            # In ``finally`` so an aborted chain never leaks an open span.
            if rec is not None:
                rec.wall_span_end(
                    "mux", "chain", t0, track=f"chain:{self.chain_id}",
                    bytes=self.bytes_moved, **_trace.wire_args(self.tctx),
                )
            with contextlib.suppress(Exception):
                writer.close()
            if session.chains.pop(self.chain_id, None) is not None and session.alive:
                self.send_rst()


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
        leftover = steal_reader_buffer(reader)
        if reader.at_eof() or writer.transport.is_closing():
            self.shutdown(MuxError("mux link closed before it was adopted"))
            return
        writer.transport.set_protocol(self)
        writer.transport.resume_reading()
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
        elif chain.open_reply is not None and not chain.open_reply.done():
            if ftype == FrameType.OPEN_OK:
                chain.open_reply.set_result(None)
            elif ftype == FrameType.OPEN_ERR:
                chain.open_reply.set_exception(
                    ChainReset(payload.decode("utf-8", "replace") or "refused"))

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

    Lazily connects on first :meth:`open_chain`.  When the link drops,
    every live chain is aborted and the connector re-dials with
    exponential backoff (:data:`BACKOFF_BASE_S` doubling up to
    :data:`BACKOFF_MAX_S`); chains requested meanwhile wait for the
    next successful dial (bounded by :data:`OPEN_TIMEOUT_S`).
    """

    def __init__(self, inner_host: str, inner_port: int, stats: "AioRelayStats") -> None:
        self.inner_host = inner_host
        self.inner_port = inner_port
        self.stats = stats
        self._session: Optional[_MuxSession] = None
        self._session_ready = asyncio.Event()
        self._run_task: Optional[asyncio.Task] = None
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
            writer.write(MUX_MAGIC)
            session = self._session = _MuxSession(reader, writer, self.stats)
            self.connects += 1
            if self.connects > 1:
                self.stats.mux_reconnects += 1
            self._session_ready.set()
            backoff = BACKOFF_BASE_S
            log.info("mux link up to %s (connect #%d)", peer, self.connects)
            try:
                exc = await session.closed
            finally:
                self._session_ready.clear()
                self._session = None
                session.shutdown(ChainReset("mux connector stopped"))
            if not self._closed:
                log.warning("mux link to %s dropped: %s", peer, exc)

    async def _current_session(self) -> _MuxSession:
        if self._run_task is None or self._run_task.done():
            self._run_task = asyncio.ensure_future(self._run())

        async def wait_for_link() -> _MuxSession:
            while True:
                await self._session_ready.wait()
                session = self._session
                if session is not None and session.alive:
                    return session
                await asyncio.sleep(0.01)  # link flapped; wait for redial

        # wait_for (not asyncio.timeout) — the latter is 3.11+.
        return await asyncio.wait_for(wait_for_link(), OPEN_TIMEOUT_S)

    async def stop(self) -> None:
        self._closed = True
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
        """OPEN a new chain toward the firewalled client at
        ``host:port``; returns when the inner server confirmed.
        ``tctx`` (wire form) rides the OPEN payload as an extra JSON
        key, which seed-era inner servers ignore."""
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        session = await self._current_session()
        chain_id = self._next_chain_id
        self._next_chain_id += 1
        chain = MuxChain(session, chain_id)
        chain.tctx = tctx
        chain.open_reply = loop.create_future()
        session.chains[chain_id] = chain
        open_req = {"host": host, "port": port}
        if tctx is not None:
            open_req["tctx"] = tctx
        session.send_frame(chain_id, FrameType.OPEN, json.dumps(open_req).encode())
        session.batcher.flush()
        try:
            await asyncio.wait_for(asyncio.shield(chain.open_reply), OPEN_TIMEOUT_S)
        except (ChainReset, asyncio.TimeoutError):
            session.chains.pop(chain_id, None)
            raise
        finally:
            chain.open_reply = None
        self.stats.chain_setup_us.record(int((loop.time() - t0) * 1e6))
        return chain, session

    async def relay_chain(self, host: str, port: int,
                          sock_reader: asyncio.StreamReader,
                          sock_writer: asyncio.StreamWriter,
                          tctx: Optional[str] = None) -> None:
        """Establish a chain and bridge it to an accepted peer socket
        until both directions finish."""
        chain, _session = await self.open_chain(host, port, tctx=tctx)
        self.stats.passive_chains += 1
        await chain.run(sock_reader, sock_writer)


async def serve_mux_session(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    stats: "AioRelayStats",
    *,
    adopt=None,
    disown=None,
) -> None:
    """Inner-server end of a mux link (the caller has consumed the
    ``MUX_MAGIC`` line).  Serves OPEN requests until the link closes.
    ``adopt``/``disown`` register each chain's onward socket with the
    owning daemon, so its shutdown aborts chains still mid-transfer."""
    tasks: set[asyncio.Task] = set()

    async def handle_open(chain: MuxChain, payload: bytes) -> None:
        chain_id = chain.chain_id
        try:
            req = json.loads(payload)
            host, port = req["host"], require_port(req["port"])
            onward_r, onward_w = await asyncio.wait_for(
                asyncio.open_connection(host, port, limit=STREAM_LIMIT),
                DIAL_TIMEOUT_S,
            )
        except (OSError, ValueError, KeyError, TypeError,
                asyncio.TimeoutError) as exc:
            stats.failed_requests += 1
            session.chains.pop(chain_id, None)
            with contextlib.suppress(Exception):
                reason = ("connect timed out"
                          if isinstance(exc, asyncio.TimeoutError) else str(exc))
                session.send_frame(chain_id, FrameType.OPEN_ERR,
                                   reason.encode()[:MAX_CONTROL_PAYLOAD])
            return
        if chain._reset is not None:  # RST or link loss raced the dial
            onward_w.close()
            return
        tune_stream(onward_w)
        if adopt is not None:
            adopt(onward_w)
        stats.passive_chains += 1
        # Optional causal trace tag; absent from seed-era peers.
        wire = req.get("tctx")
        if isinstance(wire, str):
            chain.tctx = wire
            ctx = _trace.accept(wire)
            rec = _obs.RECORDER
            if rec is not None and ctx is not None:
                rec.wall_instant("mux", "chain_open", track=f"chain:{chain_id}",
                                 dest=f"{host}:{port}", **_trace.span_args(ctx))
        try:
            session.send_frame(chain_id, FrameType.OPEN_OK)
            await chain.run(onward_r, onward_w)
        finally:
            if disown is not None:
                disown(onward_w)

    def on_open(chain: MuxChain, payload: bytes) -> None:
        task = asyncio.ensure_future(handle_open(chain, payload))
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    # OPENs read behind the magic are dispatched in here; their
    # handlers first run once ``session`` is bound.
    session = _MuxSession(reader, writer, stats, on_open)
    try:
        await session.closed
    finally:
        session.shutdown(ChainReset("mux link closed"))
        for task in list(tasks):
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
