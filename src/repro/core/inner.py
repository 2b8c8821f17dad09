"""The inner server: the relay daemon *inside* the firewall.

It listens on the **nxport** — the one inbound port the site firewall
must open, pinned to the outer server as the only permitted source
(§3: "only the communication port from the outer server to the inner
server must be opened in advance").

Each connection from the outer server starts with a
:class:`~repro.core.protocol.RelayTo` request naming an inside host and
port; the inner server opens that (intra-site, unfiltered) connection
and then pumps chunks both ways, completing the
``peer → outer → inner → client`` chain of a passive open (Fig. 4).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.config import DEFAULT_RELAY_CONFIG, RelayConfig
from repro.core.outer import RelayStats
from repro.core.pump import relay_pump
from repro.obs import spans as _obs
from repro.obs import trace as _trace
from repro.core.protocol import REPLY_MSG_BYTES, Reply, RelayTo
from repro.simnet.host import Host
from repro.simnet.kernel import Event
from repro.simnet.service import Service
from repro.simnet.socket import Connection, ConnectionReset, SocketError

__all__ = ["InnerServer"]


class InnerServer(Service):
    """The relay daemon running inside the firewall; it listens on the
    nxport."""

    def __init__(self, host: Host, config: RelayConfig = DEFAULT_RELAY_CONFIG) -> None:
        config.validate()
        super().__init__(host, config.nxport, config.backlog)
        self.config = config
        self.stats = RelayStats()

    def open_firewall_pinhole(self, outer_host_name: str) -> None:
        """Configure this site's firewall with the single nxport hole,
        pinned to the outer server (the deployment step of §3)."""
        site = self.host.site
        if site is None or site.firewall is None:
            return
        site.firewall.open_inbound_port(
            self.config.nxport,
            src_host=outer_host_name,
            dst_host=self.host.name,
            comment="nxport: outer server -> inner server",
        )

    # -- relay chains -------------------------------------------------------------

    def _session(self, conn: Connection) -> Iterator[Event]:
        t0 = self.sim.now
        self.stats.nxport_connections += 1
        rec = _obs.RECORDER
        if rec is not None:
            rec.sim_instant("relay", "nxport_connection", t0,
                            track=f"inner:{self.host.name}",
                            total=self.stats.nxport_connections)
        try:
            first = yield conn.recv()
        except ConnectionReset:
            return
        request = first.payload
        yield from self.host.execute(self.config.request_cpu)
        if not isinstance(request, RelayTo):
            self.stats.failed_requests += 1
            yield conn.send(
                Reply(ok=False, error=f"bad request {type(request).__name__}"),
                nbytes=REPLY_MSG_BYTES,
            )
            conn.close()
            return
        try:
            onward = yield from self.host.connect((request.dest_host, request.dest_port))
        except SocketError as exc:
            self.stats.failed_requests += 1
            yield conn.send(Reply(ok=False, error=str(exc)), nbytes=REPLY_MSG_BYTES)
            conn.close()
            return
        self.stats.passive_chains += 1
        yield conn.send(Reply(ok=True), nbytes=REPLY_MSG_BYTES)
        self.stats.chain_setup_us.record(int((self.sim.now - t0) * 1e6))
        ctx = _trace.accept(request.tctx)
        rec = _obs.RECORDER
        if rec is not None:
            rec.sim_span("relay", "chain_setup", t0, self.sim.now,
                         track=f"inner:{self.host.name}", kind="passive",
                         dest=f"{request.dest_host}:{request.dest_port}",
                         **_trace.span_args(ctx))
        self.sim.process(self._pump(conn, onward), name=f"pump@{self.host.name}")
        self.sim.process(self._pump(onward, conn), name=f"pump@{self.host.name}")

    def _pump(self, src: Connection, dst: Connection) -> Iterator[Event]:
        """Forward chunks src→dst until either side goes away (see
        :func:`repro.core.pump.relay_pump` for the cost model)."""
        yield from relay_pump(self.host, self.config, self.stats, src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return f"<InnerServer {self.addr} {state}>"
