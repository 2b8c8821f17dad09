"""The lifecycle every simulated daemon shares: listen on one port,
accept forever with one process per connection, stop by closing the
listener.

A daemon (the relay servers, the RMF daemons, the GIS) writes only its
per-connection ``_session``, and extends :meth:`Service.start` /
:meth:`Service.stop` through ``super()`` when it runs more than the
accept loop.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.simnet.host import Host
from repro.simnet.kernel import Event
from repro.simnet.socket import Address, Connection, ListenSocket, SocketError

__all__ = ["Service"]


class Service:
    """One listening daemon on a simulated host."""

    #: Raised by a second :meth:`start`: the daemon family's own error.
    error: type = SocketError

    def __init__(self, host: Host, port: int, backlog: int = 128) -> None:
        self.host = host
        self.sim = host.sim
        self.port = port
        self.backlog = backlog
        self._sock: Optional[ListenSocket] = None

    @property
    def addr(self) -> Address:
        return Address(self.host.name, self.port)

    @property
    def running(self) -> bool:
        return self._sock is not None and not self._sock.closed

    def start(self):
        """Bind the port and begin accepting; returns self."""
        name = type(self).__name__
        if self.running:
            raise self.error(f"{name} on {self.host.name} already running")
        self._sock = self.host.listen(self.port, backlog=self.backlog)
        self.sim.process(self._accept_loop(), name=f"{name}@{self.host.name}")
        return self

    def stop(self) -> None:
        if self._sock is not None:
            self._sock.close()

    def _accept_loop(self) -> Iterator[Event]:
        name = f"{type(self).__name__}-session@{self.host.name}"
        while True:
            try:
                conn = yield self._sock.accept()
            except SocketError:
                return  # stopped
            self.sim.process(self._session(conn), name=name)

    def _session(self, conn: Connection) -> Iterator[Event]:
        raise NotImplementedError
