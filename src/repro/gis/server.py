"""The directory daemon.

Holds records keyed by distinguished name, expires them by TTL, and
answers register/refresh/unregister/query requests over the simulated
network.  Deployed outside the firewall (like the gatekeeper) so that
any grid client can query it; the resources inside publish *outbound*,
which the deny-based firewall permits — the same asymmetry the whole
paper exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

from repro.gis.records import Filter, GISError, Record, parse_filter
from repro.simnet.host import Host
from repro.simnet.kernel import Event
from repro.simnet.service import Service
from repro.simnet.socket import Connection, ConnectionReset

__all__ = ["GISServer", "DEFAULT_GIS_PORT", "RegisterMsg", "QueryMsg", "GISReply"]

DEFAULT_GIS_PORT = 2135  # the historical MDS port
_CTRL_BYTES = 96


@dataclass(frozen=True)
class RegisterMsg:
    dn: str
    attributes: Mapping[str, Any]
    ttl: float = 300.0


@dataclass(frozen=True)
class UnregisterMsg:
    dn: str


@dataclass(frozen=True)
class QueryMsg:
    filter: str


@dataclass(frozen=True)
class GISReply:
    ok: bool
    records: tuple[Record, ...] = ()
    error: Optional[str] = None


class GISServer(Service):
    """The grid information directory."""

    error = GISError

    def __init__(self, host: Host, port: int = DEFAULT_GIS_PORT) -> None:
        super().__init__(host, port)
        self._records: dict[str, Record] = {}
        self.queries_served = 0
        self.registrations = 0

    # -- direct (in-process) API: usable without the network ------------

    def register(self, dn: str, attributes: Mapping[str, Any], ttl: float = 300.0) -> None:
        self._records[dn] = Record(
            dn=dn, attributes=dict(attributes),
            registered_at=self.sim.now, ttl=ttl,
        )
        self.registrations += 1

    def unregister(self, dn: str) -> bool:
        return self._records.pop(dn, None) is not None

    def query(self, filter_text: str) -> list[Record]:
        """Filtered search over live (non-expired) records."""
        flt: Filter = parse_filter(filter_text)
        self._sweep()
        self.queries_served += 1
        return sorted(
            (r for r in self._records.values() if flt.matches(r)),
            key=lambda r: r.dn,
        )

    def _sweep(self) -> None:
        now = self.sim.now
        dead = [dn for dn, r in self._records.items() if r.expired(now)]
        for dn in dead:
            del self._records[dn]

    def __len__(self) -> int:
        self._sweep()
        return len(self._records)

    # -- wire protocol ----------------------------------------------------

    def _session(self, conn: Connection) -> Iterator[Event]:
        while True:
            try:
                msg = yield conn.recv()
            except ConnectionReset:
                return
            request = msg.payload
            if isinstance(request, RegisterMsg):
                try:
                    self.register(request.dn, request.attributes, request.ttl)
                    reply = GISReply(ok=True)
                except GISError as exc:
                    reply = GISReply(ok=False, error=str(exc))
            elif isinstance(request, UnregisterMsg):
                reply = GISReply(ok=self.unregister(request.dn))
            elif isinstance(request, QueryMsg):
                try:
                    hits = tuple(self.query(request.filter))
                    reply = GISReply(ok=True, records=hits)
                except GISError as exc:
                    reply = GISReply(ok=False, error=str(exc))
            else:
                reply = GISReply(
                    ok=False, error=f"bad request {type(request).__name__}"
                )
            nbytes = _CTRL_BYTES + 128 * len(reply.records)
            yield conn.send(reply, nbytes=nbytes)
