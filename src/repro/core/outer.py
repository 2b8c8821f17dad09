"""The outer server: the relay daemon *outside* the firewall.

Handles two kinds of control request on its control port:

* :class:`~repro.core.protocol.ConnectRequest` — active open (Fig. 3):
  open an onward connection to the destination and relay both ways.
* :class:`~repro.core.protocol.BindRequest` — passive open (Fig. 4):
  bind a public port on behalf of the firewalled client; every peer
  connection arriving there is chained to the client through the inner
  server (``peer → outer → inner → client``).

The paper notes that binding the proxy to a privileged port requires
root and therefore *strengthens* security relative to the Globus 1.1
open-port-range workaround; we model the privilege boundary simply by
the relay owning its well-known ports.

Relay pumps pay CPU per forwarded chunk on the outer-server host and
contend for its cores, so concurrent relayed streams share the daemon
machine exactly as they would in deployment.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.config import DEFAULT_RELAY_CONFIG, RelayConfig
from repro.core.pump import relay_pump
from repro.obs import spans as _obs
from repro.obs import trace as _trace
from repro.obs.metrics import LogHistogram
from repro.core.protocol import (
    CONTROL_MSG_BYTES,
    REPLY_MSG_BYTES,
    BindReply,
    BindRequest,
    ConnectRequest,
    Reply,
    RelayTo,
)
from repro.simnet.host import Host
from repro.simnet.kernel import Event
from repro.simnet.socket import (
    Address,
    Connection,
    ConnectionReset,
    ListenSocket,
    SocketError,
)
from repro.simnet.service import Service

__all__ = ["OuterServer", "RelayStats"]


class RelayStats:
    """Forwarding counters for one simulated relay daemon.

    :meth:`snapshot` shares its key schema with the live plane's
    :meth:`repro.core.aio.relay.AioRelayStats.snapshot` — same names,
    same units — so the sim Table 2 path and the contract benchmark's
    ``core.aio.relay.*`` metrics read directly comparable counters.
    (The sim plane forwards *frames*; they land under the shared
    ``chunks_relayed`` key.  The mux and coalescing counters exist only
    so the schema matches; the sim data plane has no mux link and
    forwards one frame per wake-up, so they stay at zero.)
    """

    def __init__(self) -> None:
        self.active_connects = 0
        self.passive_binds = 0
        self.passive_chains = 0
        self.frames_relayed = 0
        self.bytes_relayed = 0
        self.failed_requests = 0
        #: Connections accepted on the nxport (inner server only).
        self.nxport_connections = 0
        self.mux_frames = 0
        self.mux_reconnects = 0
        self.mux_window_stalls = 0
        #: Forwarded-frame sizes (log2 buckets of bytes).
        self.chunk_bytes = LogHistogram()
        #: Per-pump lifetime byte totals (log2 buckets of bytes).
        self.chain_bytes = LogHistogram()
        #: Chain establishment latency (log2 buckets of simulated µs).
        self.chain_setup_us = LogHistogram()

    def snapshot(self) -> "dict[str, object]":
        """Plain-data view, key-compatible with the live plane."""
        return {
            "active_connects": self.active_connects,
            "passive_binds": self.passive_binds,
            "passive_chains": self.passive_chains,
            "chunks_relayed": self.frames_relayed,
            "bytes_relayed": self.bytes_relayed,
            "failed_requests": self.failed_requests,
            "nxport_connections": self.nxport_connections,
            "mux_frames": self.mux_frames,
            "mux_reconnects": self.mux_reconnects,
            "mux_window_stalls": self.mux_window_stalls,
            "coalesced_flushes": 0,
            "coalesce_bytes_hist": {},
            "chunk_bytes_hist": self.chunk_bytes.to_dict(),
            "chain_bytes_hist": self.chain_bytes.to_dict(),
            "chain_setup_us_hist": self.chain_setup_us.to_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RelayStats connects={self.active_connects} "
            f"binds={self.passive_binds} chains={self.passive_chains} "
            f"frames={self.frames_relayed} bytes={self.bytes_relayed}>"
        )


class _BindRegistration:
    """Book-keeping for one NXProxyBind."""

    def __init__(
        self,
        client_host: str,
        client_port: int,
        inner_host: str,
        inner_port: int,
        public_sock: ListenSocket,
        tctx: "Optional[_trace.TraceContext]" = None,
    ) -> None:
        self.client_host = client_host
        self.client_port = client_port
        self.inner_host = inner_host
        self.inner_port = inner_port
        self.public_sock = public_sock
        #: Trace context adopted from the bind request; chains through
        #: this registration parent to it.
        self.tctx = tctx


class OuterServer(Service):
    """The relay daemon running outside the firewall; it listens on
    the control port."""

    def __init__(self, host: Host, config: RelayConfig = DEFAULT_RELAY_CONFIG) -> None:
        config.validate()
        super().__init__(host, config.control_port, config.backlog)
        self.config = config
        self.stats = RelayStats()
        self._next_public_port = config.public_port_base
        self.bind_registrations: list[_BindRegistration] = []

    @property
    def control_addr(self) -> Address:
        return self.addr

    def stop(self) -> None:
        super().stop()
        for reg in self.bind_registrations:
            reg.public_sock.close()

    # -- control plane ----------------------------------------------------------

    def _session(self, conn: Connection) -> Iterator[Event]:
        try:
            first = yield conn.recv()
        except ConnectionReset:
            return
        request = first.payload
        yield from self.host.execute(self.config.request_cpu)
        if isinstance(request, (ConnectRequest, BindRequest)):
            if self.config.secret is not None and request.secret != self.config.secret:
                self.stats.failed_requests += 1
                yield conn.send(
                    Reply(ok=False, error="authentication failed"),
                    nbytes=REPLY_MSG_BYTES,
                )
                conn.close()
                return
        if isinstance(request, ConnectRequest):
            yield from self._handle_connect(conn, request)
        elif isinstance(request, BindRequest):
            yield from self._handle_bind(conn, request)
        else:
            self.stats.failed_requests += 1
            yield conn.send(
                Reply(ok=False, error=f"bad request {type(request).__name__}"),
                nbytes=REPLY_MSG_BYTES,
            )
            conn.close()

    # -- active open (Fig. 3) ---------------------------------------------------

    def _handle_connect(self, conn: Connection, req: ConnectRequest) -> Iterator[Event]:
        t0 = self.sim.now
        try:
            onward = yield from self.host.connect((req.dest_host, req.dest_port))
        except SocketError as exc:
            self.stats.failed_requests += 1
            yield conn.send(Reply(ok=False, error=str(exc)), nbytes=REPLY_MSG_BYTES)
            conn.close()
            return
        self.stats.active_connects += 1
        yield conn.send(Reply(ok=True), nbytes=REPLY_MSG_BYTES)
        self.stats.chain_setup_us.record(int((self.sim.now - t0) * 1e6))
        ctx = _trace.accept(req.tctx)
        rec = _obs.RECORDER
        if rec is not None:
            rec.sim_span("relay", "chain_setup", t0, self.sim.now,
                         track=f"outer:{self.host.name}", kind="active",
                         dest=f"{req.dest_host}:{req.dest_port}",
                         **_trace.span_args(ctx))
        self._start_pumps(conn, onward)

    # -- passive open (Fig. 4) ----------------------------------------------------

    def _handle_bind(self, conn: Connection, req: BindRequest) -> Iterator[Event]:
        try:
            public_sock = self.host.listen(
                self._allocate_public_port(), backlog=self.config.backlog
            )
        except SocketError as exc:
            self.stats.failed_requests += 1
            yield conn.send(
                BindReply(ok=False, error=str(exc)), nbytes=REPLY_MSG_BYTES
            )
            conn.close()
            return
        reg = _BindRegistration(
            req.client_host, req.client_port, req.inner_host, req.inner_port,
            public_sock, tctx=_trace.accept(req.tctx),
        )
        self.bind_registrations.append(reg)
        self.stats.passive_binds += 1
        rec = _obs.RECORDER
        if rec is not None:
            rec.sim_instant("relay", "bind", self.sim.now,
                            track=f"outer:{self.host.name}",
                            public_port=public_sock.port,
                            client=f"{req.client_host}:{req.client_port}",
                            **_trace.span_args(reg.tctx))
        yield conn.send(
            BindReply(ok=True, proxy_host=self.host.name, proxy_port=public_sock.port),
            nbytes=REPLY_MSG_BYTES,
        )
        self.sim.process(
            self._public_accept_loop(reg),
            name=f"outer-public:{public_sock.port}@{self.host.name}",
        )
        # The control connection's lifetime scopes the bind: when the
        # client closes it (listener closed), the public port dies.
        try:
            while True:
                yield conn.recv()
        except ConnectionReset:
            public_sock.close()
            if reg in self.bind_registrations:
                self.bind_registrations.remove(reg)

    def _allocate_public_port(self) -> int:
        while self.host.is_listening(self._next_public_port):
            self._next_public_port += 1
        port = self._next_public_port
        self._next_public_port += 1
        return port

    def _public_accept_loop(self, reg: _BindRegistration) -> Iterator[Event]:
        while True:
            try:
                peer = yield reg.public_sock.accept()
            except SocketError:
                return  # bind closed
            self.sim.process(
                self._passive_chain(peer, reg),
                name=f"outer-chain@{self.host.name}",
            )

    def _passive_chain(self, peer: Connection, reg: _BindRegistration) -> Iterator[Event]:
        """peer → outer → inner → client (Fig. 4 steps 4-1, 4-2)."""
        t0 = self.sim.now
        chain_ctx = _trace.child(reg.tctx)
        yield from self.host.execute(self.config.request_cpu)
        try:
            inner = yield from self.host.connect((reg.inner_host, reg.inner_port))
        except SocketError:
            self.stats.failed_requests += 1
            peer.close()
            return
        yield inner.send(
            RelayTo(
                reg.client_host, reg.client_port,
                tctx=chain_ctx.to_wire() if chain_ctx is not None else None,
            ),
            nbytes=CONTROL_MSG_BYTES,
        )
        try:
            reply_msg = yield inner.recv()
        except ConnectionReset:
            self.stats.failed_requests += 1
            peer.close()
            return
        reply: Reply = reply_msg.payload
        if not reply.ok:
            self.stats.failed_requests += 1
            peer.close()
            inner.close()
            return
        self.stats.passive_chains += 1
        self.stats.chain_setup_us.record(int((self.sim.now - t0) * 1e6))
        rec = _obs.RECORDER
        if rec is not None:
            rec.sim_span("relay", "chain_setup", t0, self.sim.now,
                         track=f"outer:{self.host.name}", kind="passive",
                         client=f"{reg.client_host}:{reg.client_port}",
                         **_trace.span_args(chain_ctx))
        self._start_pumps(peer, inner)

    # -- data plane -----------------------------------------------------------------

    def _start_pumps(self, a: Connection, b: Connection) -> None:
        self.sim.process(self._pump(a, b), name=f"pump@{self.host.name}")
        self.sim.process(self._pump(b, a), name=f"pump@{self.host.name}")

    def _pump(self, src: Connection, dst: Connection) -> Iterator[Event]:
        """Forward chunks src→dst until either side goes away (see
        :func:`repro.core.pump.relay_pump` for the cost model)."""
        yield from relay_pump(self.host, self.config, self.stats, src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return f"<OuterServer {self.control_addr} {state}>"
