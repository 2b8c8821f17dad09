"""The live relay daemons (outer and inner servers) on asyncio.

Structurally identical to the simulated servers in
:mod:`repro.core.outer` / :mod:`repro.core.inner`: the outer server
answers ``connect`` and ``bind`` requests on its control port; the
inner server answers the nxport.  There is one data plane:

* **passive chains** (Fig. 4): all chains of one outer↔inner pair
  share a single persistent frame-multiplexed nxport connection
  (:mod:`repro.core.aio.mux`) — the paper's one-pinhole firewall
  story, with exactly one outer→inner TCP connection.
* **active chains** (Fig. 3): the two sockets are protocol-swapped
  (:func:`~repro.core.aio.protocol.adopt`) onto the spliced relay of
  :mod:`repro.core.aio.pump`; a stream that failed before the swap
  ends the chain.

Every relay socket runs with ``TCP_NODELAY`` (asyncio's default).
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.aio.mux import (
    DIAL_TIMEOUT_S,
    MUX_MAGIC,
    MuxChain,
    MuxConnector,
    keep_link_alive,
    serve_mux_session,
)
from repro.core.aio.protocol import (
    ProtocolError,
    error_reply,
    ok_reply,
    read_control,
    require_fields,
    require_host,
    require_port,
    write_control,
)
from repro.core.aio.pump import (
    STREAM_LIMIT,
    relay_sockets_zero_copy,
    tune_stream,
)
from repro.obs import spans as _obs
from repro.obs import trace as _trace
from repro.obs.metrics import LogHistogram

__all__ = [
    "AioRelayStats",
    "AioOuterServer",
    "AioInnerServer",
]

log = logging.getLogger("repro.nexus_proxy")

#: Deadline (seconds) for the first line on the control port and on the
#: nxport: a connection that sends nothing is refused instead of
#: pinning its handler (and, in a fleet, a worker chain slot) forever.
FIRST_LINE_TIMEOUT_S = 10.0


@dataclass
class AioRelayStats:
    """Forwarding counters of one live relay daemon."""

    active_connects: int = 0
    passive_binds: int = 0
    passive_chains: int = 0
    chunks_relayed: int = 0
    bytes_relayed: int = 0
    failed_requests: int = 0
    #: TCP connections accepted on the nxport (inner server only).
    #: With the mux plane this stays at 1 per outer server regardless
    #: of how many chains are relayed — the single-pinhole assertion.
    nxport_connections: int = 0
    #: Mux frames sent by this daemon's sessions.
    mux_frames: int = 0
    #: Mux link re-establishments after a drop (outer server only).
    mux_reconnects: int = 0
    #: Times a mux chain sender blocked on an exhausted credit window.
    mux_window_stalls: int = 0
    #: Coalesced scatter-gather flushes (one ``sendmsg`` each).
    coalesced_flushes: int = 0
    #: Per-flush coalesced batch sizes (log2 buckets of bytes).
    coalesce_bytes: LogHistogram = field(default_factory=LogHistogram)
    #: Per-chunk forwarded-size histogram (log2 buckets of bytes).
    chunk_bytes: LogHistogram = field(default_factory=LogHistogram)
    #: Per-chain lifetime byte totals (log2 buckets of bytes).
    chain_bytes: LogHistogram = field(default_factory=LogHistogram)
    #: Chain establishment latency (log2 buckets of microseconds).
    chain_setup_us: LogHistogram = field(default_factory=LogHistogram)

    def on_chunk(self, nbytes: int) -> None:
        """One forwarded chunk — the pump hot path."""
        self.chunks_relayed += 1
        self.bytes_relayed += nbytes
        self.chunk_bytes.record(nbytes)

    def snapshot(self) -> "dict[str, object]":
        """Plain-data view of every counter and histogram.

        The key schema is shared verbatim with the *simulated* plane's
        :meth:`repro.core.outer.RelayStats.snapshot`, so Table 2 sim
        results and the contract benchmark's ``core.aio.relay.*`` metrics
        (``bytes_per_chunk``, ``failed_requests``) read the same keys.
        """
        return {
            "active_connects": self.active_connects,
            "passive_binds": self.passive_binds,
            "passive_chains": self.passive_chains,
            "chunks_relayed": self.chunks_relayed,
            "bytes_relayed": self.bytes_relayed,
            "failed_requests": self.failed_requests,
            "nxport_connections": self.nxport_connections,
            "mux_frames": self.mux_frames,
            "mux_reconnects": self.mux_reconnects,
            "mux_window_stalls": self.mux_window_stalls,
            "coalesced_flushes": self.coalesced_flushes,
            "coalesce_bytes_hist": self.coalesce_bytes.to_dict(),
            "chunk_bytes_hist": self.chunk_bytes.to_dict(),
            "chain_bytes_hist": self.chain_bytes.to_dict(),
            "chain_setup_us_hist": self.chain_setup_us.to_dict(),
        }


def graceful_handler(fn):
    """Wrap a connection handler so event-loop shutdown is quiet.

    When ``asyncio.run`` tears the loop down it cancels pending
    handler tasks; on Python 3.11 ``StreamReaderProtocol`` then logs a
    spurious "Exception in callback" for every cancelled handler.
    Exiting normally on cancellation (these handlers hold no state
    that outlives the connection) avoids the noise.
    """

    async def wrapper(self, reader, writer):
        # Satellite fix (ISSUE 6): every accepted connection is
        # registered for the daemon's lifetime so ``stop()`` can abort
        # sockets still mid-transfer, not just close the listeners.
        self._conns.add(writer.transport)
        try:
            await fn(self, reader, writer)
        except asyncio.CancelledError:
            with contextlib.suppress(Exception):
                writer.close()
        finally:
            self._conns.discard(writer.transport)

    return wrapper


def _span(name: str, track: str, ctx: "_trace.TraceContext | None", **args):
    """The ``relay`` wall span of one chain, or a null context when
    tracing is off."""
    rec = _obs.RECORDER
    if rec is None:
        return contextlib.nullcontext()
    return rec.wall_span("relay", name, track=track, **args,
                         **_trace.span_args(ctx))


class _Server:
    """Common lifecycle for the two daemons."""

    def __init__(self, host: str) -> None:
        self.host = host
        self.stats = AioRelayStats()
        self._server: Optional[asyncio.base_events.Server] = None
        #: Live transports, accepted and onward — aborted by ``stop()``.
        self._conns: "set[asyncio.BaseTransport]" = set()

    async def _reply(self, writer: asyncio.StreamWriter, msg: dict) -> bool:
        """Send a request's success reply.  A client already gone (a
        reset while the request was being served) makes it a failed
        request: ``False``, and the caller releases what it made."""
        try:
            write_control(writer, msg)
            await writer.drain()
        except OSError:
            self.stats.failed_requests += 1
            writer.close()
            return False
        return True

    async def _refuse(self, writer: asyncio.StreamWriter, reason: str) -> None:
        """Count a failed request, send one typed error reply, close."""
        self.stats.failed_requests += 1
        with contextlib.suppress(Exception):
            # Capped: a reason echoing hostile input must still fit a line.
            write_control(writer, error_reply(reason[:256]))
            await writer.drain()
        writer.close()

    @property
    def running(self) -> bool:
        return self._server is not None and self._server.is_serving()

    @property
    def bound_port(self) -> int:
        """The actually-bound port (resolves port 0)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        # Abort sockets still registered mid-transfer: closing only the
        # listeners would leave established relay/stream connections —
        # and their pump tasks — alive past daemon shutdown.  Emptied,
        # not replaced: mux chains hold this very set.
        conns = list(self._conns)
        self._conns.clear()
        for transport in conns:
            with contextlib.suppress(Exception):
                transport.abort()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


class AioOuterServer(_Server):
    """The live outer server: control port + dynamic public ports.

    All passive chains of one inner server ride a single persistent
    nxport connection (:class:`~repro.core.aio.mux.MuxConnector`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        control_port: int = 0,
        secret: "str | None" = None,
    ) -> None:
        super().__init__(host)
        self.control_port = control_port
        #: Optional shared secret every connect/bind request must carry.
        self.secret = secret
        self._public_servers: set[asyncio.base_events.Server] = set()
        #: One persistent mux link per (inner_host, inner_port).
        self._mux_links: Dict[Tuple[str, int], MuxConnector] = {}

    async def start(self) -> "AioOuterServer":
        self._server = await asyncio.start_server(
            self._handle_control, self.host, self.control_port,
            limit=STREAM_LIMIT,
        )
        self.control_port = self.bound_port
        log.info("outer server listening on %s:%d", self.host, self.control_port)
        return self

    async def stop(self) -> None:
        # Satellite fix: the seed close()d public servers without
        # wait_closed(), leaking their sockets into the next test.
        public, self._public_servers = list(self._public_servers), set()
        for srv in public:
            srv.close()
        for srv in public:
            with contextlib.suppress(Exception):
                await srv.wait_closed()
        links, self._mux_links = list(self._mux_links.values()), {}
        for link in links:
            await link.stop()
        await super().stop()

    def mux_link(self, inner_host: str, inner_port: int) -> MuxConnector:
        """The (lazily created) persistent link to one inner server."""
        key = (inner_host, inner_port)
        link = self._mux_links.get(key)
        if link is None:
            link = MuxConnector(inner_host, inner_port, self.stats)
            self._mux_links[key] = link
        return link

    # -- control handling ---------------------------------------------------

    @graceful_handler
    async def _handle_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tune_stream(writer)
        try:
            msg = await asyncio.wait_for(
                read_control(reader), FIRST_LINE_TIMEOUT_S
            )
        except ProtocolError as exc:
            await self._refuse(writer, str(exc))
            return
        except asyncio.TimeoutError:
            await self._refuse(writer, "no control line before deadline")
            return
        op = msg.get("op")
        if self.secret is not None and msg.get("secret") != self.secret:
            await self._refuse(writer, "authentication failed")
        elif op == "connect":
            await self._handle_connect(msg, reader, writer)
        elif op == "bind":
            await self._handle_bind(msg, reader, writer)
        else:
            await self._refuse(writer, f"unknown op {op!r}")

    async def _handle_connect(self, msg, reader, writer) -> None:
        try:
            require_fields(msg, "host", "port")
            host = require_host(msg["host"])
            port = require_port(msg["port"])
            onward_r, onward_w = await asyncio.wait_for(
                asyncio.open_connection(host, port, limit=STREAM_LIMIT),
                DIAL_TIMEOUT_S,
            )
        except asyncio.TimeoutError:  # before OSError: a subclass on 3.11+
            await self._refuse(writer, "connect timed out")
            return
        except (ProtocolError, OSError) as exc:
            await self._refuse(writer, f"connect failed: {exc}")
            return
        tune_stream(onward_w)
        self._conns.add(onward_w.transport)
        try:
            if not await self._reply(writer, ok_reply()):
                return
            self.stats.active_connects += 1
            ctx = _trace.accept(msg.get("tctx"))
            with _span("active_chain", f"outer:{self.host}", ctx,
                       dest=f"{host}:{port}"):
                await relay_sockets_zero_copy(
                    reader, writer, onward_r, onward_w,
                    on_chunk=self.stats.on_chunk,
                )
        finally:
            self._conns.discard(onward_w.transport)
            onward_w.close()
            writer.close()

    async def _handle_bind(self, msg, reader, writer) -> None:
        try:
            require_fields(msg, "client_host", "client_port", "inner_host", "inner_port")
            client_host = require_host(msg["client_host"])
            client_port = require_port(msg["client_port"])
            inner_host = require_host(msg["inner_host"])
            inner_port = require_port(msg["inner_port"])
        except ProtocolError as exc:
            await self._refuse(writer, str(exc))
            return
        bind_ctx = _trace.accept(msg.get("tctx"))
        if bind_ctx is not None:
            rec = _obs.RECORDER
            if rec is not None:
                # Anchor the bind's span id so every chain's parent
                # link resolves in an assembled trace.
                rec.wall_instant(
                    "relay", "passive_bind", track=f"outer:{self.host}",
                    client=f"{client_host}:{client_port}",
                    **_trace.span_args(bind_ctx),
                )

        link = self.mux_link(inner_host, inner_port)

        def chain_protocol() -> MuxChain:
            """One logical chain over the shared nxport link per peer."""
            return MuxChain(None, link=link, dest=(client_host, client_port),
                            ctx=_trace.child(bind_ctx), conns=self._conns)

        public = await asyncio.get_running_loop().create_server(
            chain_protocol, self.host, 0)
        self._public_servers.add(public)
        public_port = public.sockets[0].getsockname()[1]
        try:
            if not await self._reply(
                writer, ok_reply(proxy_host=self.host, proxy_port=public_port)
            ):
                return
            self.stats.passive_binds += 1
            log.info(
                "bound public port %d for %s:%d (via inner %s:%d)",
                public_port, client_host, client_port, inner_host, inner_port,
            )
            # The control connection's lifetime scopes the bind; a reset
            # ends it like an EOF.
            with contextlib.suppress(ConnectionError):
                while await reader.read(1024):
                    pass
        finally:
            public.close()
            with contextlib.suppress(Exception):
                await public.wait_closed()
            self._public_servers.discard(public)
            writer.close()
            log.info("released public port %d", public_port)


class AioInnerServer(_Server):
    """The live inner server, listening on the nxport.

    A nxport connection opens with ``NXMUX/1`` and becomes a persistent
    frame-multiplexed link carrying many chains; any other first line
    is refused with one error reply.

    ``allowed_peers`` is a defence-in-depth copy of the firewall
    pinhole: when set, connections whose source address is not listed
    are refused at the daemon even if the packet filter let them
    through (only the outer server should ever reach the nxport).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        nxport: int = 0,
        allowed_peers: "list[str] | None" = None,
    ) -> None:
        super().__init__(host)
        self.nxport = nxport
        self.allowed_peers = allowed_peers

    async def start(self) -> "AioInnerServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.nxport, limit=STREAM_LIMIT
        )
        self.nxport = self.bound_port
        log.info("inner server listening on %s:%d (nxport)", self.host, self.nxport)
        return self

    @graceful_handler
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.nxport_connections += 1
        rec = _obs.RECORDER
        if rec is not None:
            rec.wall_instant("relay", "nxport_connection",
                             track=f"inner:{self.host}",
                             total=self.stats.nxport_connections)
        tune_stream(writer)
        if self.allowed_peers is not None:
            peer = writer.get_extra_info("peername")
            if peer is None or peer[0] not in self.allowed_peers:
                log.warning("nxport connection from unexpected peer %r", peer)
                await self._refuse(writer, "source address not permitted")
                return
        try:
            line = await asyncio.wait_for(
                reader.readline(), FIRST_LINE_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            await self._refuse(writer, "no nxport line before deadline")
            return
        except (asyncio.LimitOverrunError, ValueError, ConnectionError, OSError):
            writer.close()
            return
        if line != MUX_MAGIC:
            await self._refuse(writer, "nxport speaks NXMUX/1 only")
            return
        keep_link_alive(writer)
        log.info("nxport connection switched to mux framing")
        await serve_mux_session(reader, writer, self.stats, conns=self._conns)
        with contextlib.suppress(Exception):
            writer.close()
