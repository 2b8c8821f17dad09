"""Live client library: Table 1 over real sockets.

:class:`AioProxyClient` mirrors :class:`repro.core.api.NexusProxyClient`
for asyncio streams: ``connect`` (``NXProxyConnect``) returns a
``(reader, writer)`` pair relayed through the outer server; ``bind``
(``NXProxyBind``) returns an :class:`AioProxiedListener` whose
``proxy_addr`` is the publicly reachable endpoint on the outer server
and whose ``accept`` (``NXProxyAccept``) yields chained-in peers.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Tuple

from repro.core.aio.mux import DIAL_TIMEOUT_S
from repro.core.aio.protocol import (
    ProtocolError,
    read_control,
    write_control,
)
from repro.core.aio.pump import STREAM_LIMIT, tune_stream
from repro.core.aio.streams import (
    DEFAULT_BLOCK,
    DEFAULT_STREAMS,
    DEFAULT_WINDOW,
    recv_striped,
    send_striped,
)
from repro.core.protocol import NXProxyError
from repro.obs import spans as _obs
from repro.obs import trace as _trace

__all__ = ["AioProxyClient", "AioProxiedListener"]

StreamPair = tuple[asyncio.StreamReader, asyncio.StreamWriter]

#: Deadline (seconds) for one control handshake with the outer server:
#: dial, request, reply.  Above :data:`DIAL_TIMEOUT_S`, because the
#: outer may spend that long on its onward dial before it answers a
#: ``connect``.
HANDSHAKE_TIMEOUT_S = DIAL_TIMEOUT_S + 5.0


class AioProxiedListener:
    """The live 'file descriptor' returned by ``NXProxyBind``."""

    def __init__(
        self,
        local_server: asyncio.base_events.Server,
        control_writer: asyncio.StreamWriter,
        proxy_host: str,
        proxy_port: int,
        queue: "asyncio.Queue[StreamPair]",
    ) -> None:
        self._local_server = local_server
        self._control_writer = control_writer
        self._queue = queue
        #: Publicly announced address, on the outer server.
        self.proxy_addr = (proxy_host, proxy_port)
        self.closed = False

    @property
    def local_addr(self) -> tuple[str, int]:
        sock = self._local_server.sockets[0]
        return sock.getsockname()[:2]

    async def accept(self, timeout: Optional[float] = None) -> StreamPair:
        """(``NXProxyAccept``) next peer chained in by the inner server."""
        if timeout is None:
            return await self._queue.get()
        return await asyncio.wait_for(self._queue.get(), timeout)

    # Table 1 spelling.
    NXProxyAccept = accept

    async def close(self) -> None:
        """Release the bind: the outer server drops the public port
        when the control connection closes."""
        if self.closed:
            return
        self.closed = True
        self._control_writer.close()
        self._local_server.close()
        await self._local_server.wait_closed()

    async def recv_striped(self) -> "Tuple[bytearray, Dict[str, Any]]":
        """Receive one GridFTP-style striped bulk transfer whose
        streams arrive as chained-in peers on this listener; returns
        ``(data, report)``, ``data`` a ``bytearray`` the caller owns
        (see :func:`repro.core.aio.streams.recv_striped`)."""
        return await recv_striped(self.accept)


class AioProxyClient:
    """Per-process handle to a live Nexus Proxy deployment."""

    def __init__(
        self,
        outer_addr: Optional[tuple[str, int]] = None,
        inner_addr: Optional[tuple[str, int]] = None,
        local_host: str = "127.0.0.1",
        secret: Optional[str] = None,
    ) -> None:
        self.outer_addr = outer_addr
        self.inner_addr = inner_addr
        #: Shared secret attached to control requests, when required.
        self.secret = secret
        #: Address this process's private listeners bind on (must be
        #: reachable from the inner server).
        self.local_host = local_host

    @property
    def enabled(self) -> bool:
        return self.outer_addr is not None

    async def _handshake(
        self, request: "Dict[str, Any]", what: str
    ) -> "Tuple[asyncio.StreamReader, asyncio.StreamWriter, Dict[str, Any]]":
        """Send one control request to the outer server and read its
        reply, all within :data:`HANDSHAKE_TIMEOUT_S`; the connection is
        closed unless this returns."""

        async def exchange():
            assert self.outer_addr is not None
            reader, writer = await asyncio.open_connection(
                *self.outer_addr, limit=STREAM_LIMIT
            )
            try:
                tune_stream(writer)
                write_control(writer, request)
                await writer.drain()
                return reader, writer, await read_control(reader)
            except BaseException:  # a failed read, or the deadline
                writer.close()
                raise

        try:
            return await asyncio.wait_for(exchange(), HANDSHAKE_TIMEOUT_S)
        except asyncio.TimeoutError:  # before OSError: a subclass on 3.11+
            raise NXProxyError(f"{what}: handshake timed out") from None
        except ProtocolError as exc:
            raise NXProxyError(f"{what}: {exc}") from exc

    # -- active open (Fig. 3) ------------------------------------------------

    async def connect(
        self, host: str, port: int,
        tctx: "Optional[_trace.TraceContext]" = None,
    ) -> StreamPair:
        """(``NXProxyConnect``) open a relayed — or, when no proxy is
        configured, direct — connection to ``host:port``.

        With causal tracing on, the connect is an origin: a fresh
        context is minted (or ``tctx``/the ambient task context is
        continued) and rides the control line, tagging every relay-side
        span of this chain.
        """
        if tctx is None and _trace.ENABLED:
            tctx = _trace.current()
            tctx = _trace.child(tctx) if tctx is not None else _trace.mint("connect")
        if not self.enabled:
            reader, writer = await asyncio.open_connection(
                host, port, limit=STREAM_LIMIT
            )
            tune_stream(writer)
            return reader, writer
        request = {"op": "connect", "host": host, "port": port}
        if self.secret is not None:
            request["secret"] = self.secret
        if tctx is not None:
            request["tctx"] = tctx.to_wire()
        what = f"NXProxyConnect({host}:{port})"
        reader, writer, reply = await self._handshake(request, what)
        if not reply.get("ok"):
            writer.close()
            raise NXProxyError(f"{what}: {reply.get('error', 'refused')}")
        if tctx is not None:
            rec = _obs.RECORDER
            if rec is not None:
                # Anchor the origin span so the relay-side hops'
                # parent links resolve in an assembled trace.
                rec.wall_instant("nxproxy", "connect", track="client",
                                 dest=f"{host}:{port}",
                                 **_trace.span_args(tctx))
        return reader, writer

    # Table 1 spelling.
    NXProxyConnect = connect

    async def send_striped(
        self,
        host: str,
        port: int,
        data: "bytes | bytearray | memoryview",
        *,
        streams: int = DEFAULT_STREAMS,
        block_bytes: int = DEFAULT_BLOCK,
        window_blocks: int = DEFAULT_WINDOW,
    ) -> "Dict[str, Any]":
        """Send ``data`` to ``host:port`` as a GridFTP-style striped
        bulk transfer over ``streams`` parallel relayed connections.

        Each stream is a full :meth:`connect` (its own relay chain);
        the receiving side must be draining the same transfer — e.g.
        :meth:`AioProxiedListener.recv_striped` behind a :meth:`bind`.
        Returns the sender report (see
        :func:`repro.core.aio.streams.send_striped`).
        """

        async def dial() -> StreamPair:
            return await self.connect(host, port)

        return await send_striped(
            dial, data,
            streams=streams, block_bytes=block_bytes,
            window_blocks=window_blocks,
        )

    # -- passive open (Fig. 4) --------------------------------------------------

    async def bind(
        self, tctx: "Optional[_trace.TraceContext]" = None
    ) -> AioProxiedListener:
        """(``NXProxyBind``) publish a listening endpoint on the outer
        server; peers that connect there are chained back here.

        With causal tracing on, the bind mints (or continues) a
        context; every chain the outer server later relays to this
        listener becomes a child of it.
        """
        if tctx is None and _trace.ENABLED:
            tctx = _trace.current()
            tctx = _trace.child(tctx) if tctx is not None else _trace.mint("bind")
        if not self.enabled:
            raise NXProxyError("NXProxyBind: no outer server configured")
        if self.inner_addr is None:
            raise NXProxyError(
                "NXProxyBind needs an inner server address "
                "(NEXUS_PROXY_INNER_SERVER undefined)"
            )
        queue: asyncio.Queue[StreamPair] = asyncio.Queue()

        async def on_chain(r: asyncio.StreamReader, w: asyncio.StreamWriter) -> None:
            tune_stream(w)
            await queue.put((r, w))

        local_server = await asyncio.start_server(
            on_chain, self.local_host, 0, limit=STREAM_LIMIT
        )
        local_port = local_server.sockets[0].getsockname()[1]

        request = {
            "op": "bind",
            "client_host": self.local_host,
            "client_port": local_port,
            "inner_host": self.inner_addr[0],
            "inner_port": self.inner_addr[1],
        }
        if self.secret is not None:
            request["secret"] = self.secret
        if tctx is not None:
            request["tctx"] = tctx.to_wire()
        try:
            reader, writer, reply = await self._handshake(request, "NXProxyBind")
        except BaseException:
            local_server.close()
            raise
        if not reply.get("ok"):
            writer.close()
            local_server.close()
            raise NXProxyError(f"NXProxyBind: {reply.get('error', 'refused')}")
        if tctx is not None:
            rec = _obs.RECORDER
            if rec is not None:
                rec.wall_instant("nxproxy", "bind", track="client",
                                 local=f"{self.local_host}:{local_port}",
                                 **_trace.span_args(tctx))
        return AioProxiedListener(
            local_server, writer, reply["proxy_host"], reply["proxy_port"], queue
        )

    # Table 1 spelling.
    NXProxyBind = bind
