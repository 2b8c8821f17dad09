"""The resource allocator: RMF's placement daemon (inside the firewall).

"A resource allocator manages computing resources and runs as a daemon
process inside the firewall." (§2).  Q servers register themselves and
report load; Q clients ask it which resources should run a job
(Fig. 2 steps 3–4) and receive a list of ``(resource, host, port,
nprocs)`` assignments.

Placement policy: honour an explicit resource pin if the job carries
one; otherwise pack the request onto the least-loaded resources first
(load = running + queued jobs, ties broken by larger free CPU count,
then by registration order — deterministic by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.rmf.jobs import JobSpec, RMFError
from repro.simnet.host import Host
from repro.simnet.kernel import Event
from repro.simnet.service import Service
from repro.simnet.socket import Connection, ConnectionReset

__all__ = [
    "ResourceInfo",
    "Assignment",
    "AllocRequest",
    "AllocReply",
    "RegisterResource",
    "LoadReport",
    "ResourceAllocator",
    "DEFAULT_ALLOCATOR_PORT",
]

DEFAULT_ALLOCATOR_PORT = 7300
_CTRL_BYTES = 128


@dataclass
class ResourceInfo:
    """Allocator-side view of one computing resource."""

    name: str
    host: str
    port: int
    cpus: int
    cpu_speed: float = 1.0
    running: int = 0
    queued: int = 0
    order: int = 0
    #: Simulated time of the last registration or load report.
    last_seen: float = 0.0

    @property
    def load(self) -> int:
        return self.running + self.queued

    def alive(self, now: float, timeout: "Optional[float]") -> bool:
        return timeout is None or now - self.last_seen <= timeout


@dataclass(frozen=True, slots=True)
class Assignment:
    """One sub-job placement."""

    resource: str
    host: str
    port: int
    nprocs: int


@dataclass(frozen=True, slots=True)
class RegisterResource:
    name: str
    host: str
    port: int
    cpus: int
    cpu_speed: float = 1.0


@dataclass(frozen=True, slots=True)
class LoadReport:
    name: str
    running: int
    queued: int


@dataclass(frozen=True, slots=True)
class AllocRequest:
    spec: JobSpec


@dataclass(frozen=True, slots=True)
class AllocReply:
    ok: bool
    assignments: tuple[Assignment, ...] = ()
    error: Optional[str] = None


class ResourceAllocator(Service):
    """The placement daemon."""

    error = RMFError

    def __init__(
        self,
        host: Host,
        port: int = DEFAULT_ALLOCATOR_PORT,
        liveness_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(host, port)
        #: Resources silent for longer than this are not placed on
        #: (None disables liveness filtering — static deployments).
        self.liveness_timeout = liveness_timeout
        self.resources: dict[str, ResourceInfo] = {}
        self._order = 0
        self._sessions: list[Connection] = []
        self.requests_served = 0

    def stop(self) -> None:
        """Shut down: close the listener and every active session (so
        heartbeating Q servers observe the outage and reconnect)."""
        super().stop()
        for conn in self._sessions:
            if not conn.closed:
                conn.close()
        self._sessions.clear()

    # -- registration (also callable directly for static deployments) -----

    def add_resource(
        self, name: str, host: str, port: int, cpus: int, cpu_speed: float = 1.0
    ) -> None:
        if name in self.resources:
            raise RMFError(f"duplicate resource {name!r}")
        self.resources[name] = ResourceInfo(
            name=name, host=host, port=port, cpus=cpus,
            cpu_speed=cpu_speed, order=self._order,
            last_seen=self.sim.now,
        )
        self._order += 1

    # -- placement ------------------------------------------------------------

    def select(self, spec: JobSpec) -> list[Assignment]:
        """Pure placement decision (no I/O) — unit-testable."""
        if not self.resources:
            raise RMFError("no resources registered")
        now = self.sim.now
        if spec.resource is not None:
            info = self.resources.get(spec.resource)
            if info is None:
                raise RMFError(f"no such resource: {spec.resource!r}")
            if not info.alive(now, self.liveness_timeout):
                raise RMFError(f"resource {info.name!r} is not responding")
            if spec.count > info.cpus:
                raise RMFError(
                    f"resource {info.name!r} has {info.cpus} cpus, "
                    f"job wants {spec.count}"
                )
            return [Assignment(info.name, info.host, info.port, spec.count)]
        candidates = sorted(
            (
                r for r in self.resources.values()
                if r.alive(now, self.liveness_timeout)
            ),
            key=lambda r: (r.load, -r.cpus, r.order),
        )
        if not candidates:
            raise RMFError("no live resources")
        total_cpus = sum(r.cpus for r in candidates)
        if spec.count > total_cpus:
            raise RMFError(
                f"job wants {spec.count} processes, only {total_cpus} cpus exist"
            )
        assignments: list[Assignment] = []
        remaining = spec.count
        for info in candidates:
            if remaining <= 0:
                break
            take = min(remaining, info.cpus)
            assignments.append(Assignment(info.name, info.host, info.port, take))
            remaining -= take
        return assignments

    # -- wire protocol ---------------------------------------------------------

    def _session(self, conn: Connection) -> Iterator[Event]:
        self._sessions.append(conn)
        while True:
            try:
                msg = yield conn.recv()
            except ConnectionReset:
                return
            request = msg.payload
            if isinstance(request, RegisterResource):
                if request.name not in self.resources:
                    self.add_resource(
                        request.name, request.host, request.port,
                        request.cpus, request.cpu_speed,
                    )
                else:
                    self.resources[request.name].last_seen = self.sim.now
            elif isinstance(request, LoadReport):
                info = self.resources.get(request.name)
                if info is not None:
                    info.running = request.running
                    info.queued = request.queued
                    info.last_seen = self.sim.now
            elif isinstance(request, AllocRequest):
                self.requests_served += 1
                try:
                    assignments = tuple(self.select(request.spec))
                    reply = AllocReply(ok=True, assignments=assignments)
                    # Optimistically count the placement as queued load
                    # so concurrent requests spread out.
                    for a in assignments:
                        self.resources[a.resource].queued += 1
                except RMFError as exc:
                    reply = AllocReply(ok=False, error=str(exc))
                yield conn.send(reply, nbytes=_CTRL_BYTES)
            else:
                yield conn.send(
                    AllocReply(ok=False, error=f"bad request {type(request).__name__}"),
                    nbytes=_CTRL_BYTES,
                )
