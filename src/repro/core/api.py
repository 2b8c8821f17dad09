"""Client library: the Table 1 functions.

=====================  ======================================================
Function               Description (verbatim from the paper's Table 1)
=====================  ======================================================
``NXProxyConnect()``   Sends a connect request to the outer server and
                       returns a file descriptor on which the client can
                       communicate with the destination process.
``NXProxyBind()``      Sends a bind request to the outer server and returns
                       a file descriptor on which the client can listen for
                       requests.
``NXProxyAccept()``    Tries to accept a connection request.
=====================  ======================================================

:class:`NexusProxyClient` is the per-host handle, configured — like the
real library — with the outer/inner server addresses (the paper's
``NEXUS_PROXY_OUTER_SERVER`` / ``NEXUS_PROXY_INNER_SERVER`` environment
variables).  When no servers are configured the same calls fall back to
direct sockets, mirroring "Otherwise, the original communication is
done" (§3 end).

All returned connections speak chunk frames
(:class:`~repro.core.frames.FramedConnection`), so proxied and direct
endpoints interoperate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.config import DEFAULT_RELAY_CONFIG, RelayConfig
from repro.core.frames import FramedConnection
from repro.obs import spans as _obs
from repro.obs import trace as _trace
from repro.core.protocol import (
    CONTROL_MSG_BYTES,
    BindReply,
    BindRequest,
    ConnectRequest,
    NXProxyError,
    Reply,
)
from repro.simnet.host import Host
from repro.simnet.kernel import Event
from repro.simnet.socket import Address, Connection, ConnectionReset, ListenSocket, SocketError

__all__ = ["NexusProxyClient", "ProxiedListener", "DirectListener", "NXProxyError"]


def _as_addr(addr: "Address | tuple[str, int]") -> Address:
    return addr if isinstance(addr, Address) else Address(*addr)


class ProxiedListener:
    """The 'file descriptor' returned by ``NXProxyBind``.

    ``proxy_addr`` is the *publicly announced* address (on the outer
    server) that remote peers connect to; accepting happens on the
    client's private socket, to which the inner server chains incoming
    peers (Fig. 4 step 5).
    """

    def __init__(
        self,
        chunk_bytes: int,
        local_sock: ListenSocket,
        control: Connection,
        proxy_addr: Address,
    ) -> None:
        self.chunk_bytes = chunk_bytes
        self._local_sock = local_sock
        self._control = control
        #: Address remote processes should connect to.
        self.proxy_addr = proxy_addr
        self.closed = False

    @property
    def local_addr(self) -> Address:
        return self._local_sock.addr

    def accept(self, timeout: Optional[float] = None) -> Iterator[Event]:
        """Generator (``NXProxyAccept``): yields the next chained-in
        peer as a :class:`FramedConnection`."""
        conn = yield self._local_sock.accept(timeout=timeout)
        return FramedConnection(conn, self.chunk_bytes)

    # Table 1 spelling.
    NXProxyAccept = accept

    def close(self) -> None:
        """Release the bind: closes the private socket and the control
        connection, which makes the outer server drop the public port."""
        if self.closed:
            return
        self.closed = True
        self._local_sock.close()
        self._control.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProxiedListener public={self.proxy_addr} private={self.local_addr}>"


class NexusProxyClient:
    """Per-host handle to the Nexus Proxy system.

    ``outer_addr``/``inner_addr`` play the role of the environment
    variables; ``inner_addr`` is only needed for passive opens.
    """

    def __init__(
        self,
        host: Host,
        outer_addr: "Address | tuple[str, int] | None" = None,
        inner_addr: "Address | tuple[str, int] | None" = None,
        config: RelayConfig = DEFAULT_RELAY_CONFIG,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.outer_addr = _as_addr(outer_addr) if outer_addr is not None else None
        self.inner_addr = _as_addr(inner_addr) if inner_addr is not None else None
        self.config = config

    @property
    def enabled(self) -> bool:
        """Whether proxying is configured (the env-vars-defined check)."""
        return self.outer_addr is not None

    # -- active open --------------------------------------------------------

    def connect(
        self,
        dest: "Address | tuple[str, int]",
        timeout: Optional[float] = None,
        tctx: "Optional[_trace.TraceContext]" = None,
    ) -> Iterator[Event]:
        """Generator (``NXProxyConnect``): connect to ``dest`` through
        the outer server (Fig. 3), or directly when not configured.

        ``tctx`` joins this open to an existing causal trace; when
        omitted and tracing is on, the open is itself an origin and
        mints a fresh trace.
        """
        dest = _as_addr(dest)
        if tctx is None and _trace.ENABLED:
            tctx = _trace.mint("connect")
        if not self.enabled:
            conn = yield from self.host.connect(dest, timeout=timeout)
            return FramedConnection(conn, self.config.chunk_bytes)
        assert self.outer_addr is not None
        if dest.host == self.outer_addr.host:
            # The destination is a public port on the outer server
            # itself (a peer's NXProxyBind address).  Dialing it is an
            # ordinary *outbound* connection, so relaying through the
            # outer server a second time would only add a pointless
            # extra traversal — connect straight to the public port.
            conn = yield from self.host.connect(dest, timeout=timeout)
            return FramedConnection(conn, self.config.chunk_bytes)
        t0 = self.sim.now
        control = yield from self.host.connect(self.outer_addr, timeout=timeout)
        yield control.send(
            ConnectRequest(
                dest.host, dest.port, secret=self.config.secret,
                tctx=tctx.to_wire() if tctx is not None else None,
            ),
            nbytes=CONTROL_MSG_BYTES,
        )
        try:
            reply_msg = yield control.recv()
        except ConnectionReset:
            raise NXProxyError(f"outer server dropped connect request to {dest}")
        reply: Reply = reply_msg.payload
        reply.raise_for_error(f"NXProxyConnect({dest})")
        if tctx is not None:
            rec = _obs.RECORDER
            if rec is not None:
                rec.sim_span(
                    "nxproxy", "connect", t0, self.sim.now,
                    track=self.host.name, dest=str(dest),
                    **_trace.span_args(tctx),
                )
        return FramedConnection(control, self.config.chunk_bytes)

    # Table 1 spelling.
    NXProxyConnect = connect

    # -- passive open ----------------------------------------------------------

    def bind(
        self,
        timeout: Optional[float] = None,
        tctx: "Optional[_trace.TraceContext]" = None,
    ) -> Iterator[Event]:
        """Generator (``NXProxyBind``): returns a
        :class:`ProxiedListener` whose ``proxy_addr`` peers connect to.

        Without a configured proxy this degenerates to a plain
        listener-like object whose public and private addresses
        coincide.
        """
        if tctx is None and _trace.ENABLED:
            tctx = _trace.mint("bind")
        t0 = self.sim.now
        local_sock = self.host.listen()
        if not self.enabled:
            return DirectListener(local_sock, self.config.chunk_bytes)
        assert self.outer_addr is not None
        if self.inner_addr is None:
            local_sock.close()
            raise NXProxyError(
                "NXProxyBind needs an inner server address "
                "(NEXUS_PROXY_INNER_SERVER undefined)"
            )
        control = yield from self.host.connect(self.outer_addr, timeout=timeout)
        yield control.send(
            BindRequest(
                client_host=self.host.name,
                client_port=local_sock.port,
                inner_host=self.inner_addr.host,
                inner_port=self.inner_addr.port,
                secret=self.config.secret,
                tctx=tctx.to_wire() if tctx is not None else None,
            ),
            nbytes=CONTROL_MSG_BYTES,
        )
        try:
            reply_msg = yield control.recv()
        except ConnectionReset:
            local_sock.close()
            raise NXProxyError("outer server dropped bind request")
        reply: BindReply = reply_msg.payload
        if not reply.ok:
            local_sock.close()
            control.close()
        reply.raise_for_error("NXProxyBind")
        if tctx is not None:
            rec = _obs.RECORDER
            if rec is not None:
                # Anchor the bind origin so the relay's hop links
                # resolve when the trace is assembled.
                rec.sim_instant(
                    "nxproxy", "bind", t0, track=self.host.name,
                    proxy=f"{reply.proxy_host}:{reply.proxy_port}",
                    **_trace.span_args(tctx),
                )
        return ProxiedListener(
            self.config.chunk_bytes,
            local_sock,
            control,
            Address(reply.proxy_host, reply.proxy_port),
        )

    # Table 1 spelling.
    NXProxyBind = bind


class DirectListener(ProxiedListener):
    """Listener with no proxy behind it: the announced address is the
    real one.  Used for unconfigured clients and for the Globus 1.1
    port-range mode (see :mod:`repro.nexus.tcpproto`)."""

    def __init__(self, local_sock: ListenSocket, chunk_bytes: int) -> None:
        self.chunk_bytes = chunk_bytes
        self._local_sock = local_sock
        self._control = None  # type: ignore[assignment]
        self.proxy_addr = local_sock.addr
        self.closed = False

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._local_sock.close()
