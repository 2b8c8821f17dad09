"""Nexus Proxy control protocol.

The handshake messages exchanged between client libraries and the
relay servers, with their simulated wire sizes.  Mirrors §3 of the
paper:

* an **active** open (Fig. 3) sends a *connect request* to the outer
  server, which opens the onward connection and then relays;
* a **passive** open (Fig. 4) sends a *bind request*; the outer server
  binds a public port, and every peer that connects there is chained
  ``peer → outer → inner → client`` via a *relay-to* request on the
  nxport.

This module is shared by the simulated servers
(:mod:`repro.core.outer`, :mod:`repro.core.inner`); the real asyncio
implementation speaks a byte-level rendition of the same messages
(:mod:`repro.core.aio.protocol`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SocketError

__all__ = [
    "NXProxyError",
    "ConnectRequest",
    "BindRequest",
    "RelayTo",
    "Reply",
    "BindReply",
    "CONTROL_MSG_BYTES",
    "REPLY_MSG_BYTES",
]

#: Wire size of client→server control requests (host + port + opcode).
CONTROL_MSG_BYTES = 64
#: Wire size of server→client replies.
REPLY_MSG_BYTES = 16


class NXProxyError(SocketError):
    """A relay request failed (refused, unreachable, protocol error)."""


@dataclass(frozen=True, slots=True)
class ConnectRequest:
    """Active open: 'connect me to dest and relay' (Fig. 3 step 1)."""

    dest_host: str
    dest_port: int
    #: Shared secret, when the deployment requires one.
    secret: Optional[str] = None
    #: Optional causal trace context (wire form); ``None`` from
    #: untagged (seed) peers — servers must treat both alike.
    tctx: Optional[str] = None


@dataclass(frozen=True, slots=True)
class BindRequest:
    """Passive open: 'bind a public port for me' (Fig. 4 step 1).

    Carries everything the outer server needs to complete later
    chains: where the client privately listens, and which inner server
    can reach it.
    """

    client_host: str
    client_port: int
    inner_host: str
    inner_port: int
    #: Shared secret, when the deployment requires one.
    secret: Optional[str] = None
    #: Optional causal trace context (wire form).
    tctx: Optional[str] = None


@dataclass(frozen=True, slots=True)
class RelayTo:
    """Outer→inner: 'connect to this inside host and relay'
    (Fig. 4 step 4-1/4-2)."""

    dest_host: str
    dest_port: int
    #: Optional causal trace context (wire form), forwarded from the
    #: bind-time chain so the inner hop joins the same tree.
    tctx: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Reply:
    """Generic ok/error reply."""

    ok: bool
    error: Optional[str] = None

    def raise_for_error(self, context: str) -> None:
        if not self.ok:
            raise NXProxyError(f"{context}: {self.error or 'relay refused'}")


@dataclass(frozen=True, slots=True)
class BindReply:
    """Reply to a bind request: the publicly reachable proxy address."""

    ok: bool
    proxy_host: str = ""
    proxy_port: int = 0
    error: Optional[str] = None

    def raise_for_error(self, context: str) -> None:
        if not self.ok:
            raise NXProxyError(f"{context}: {self.error or 'bind refused'}")
