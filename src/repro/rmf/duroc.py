"""DUROC-style co-allocation: multi-site MPI jobs via multiple GRAMs.

The paper's wide-area runs were started the Globus way: ``globusrun``
hands a multi-request to DUROC, which submits one GRAM sub-job per
site and synchronizes their startup with a barrier; MPICH-G then
exchanges endpoint addresses so ranks can talk.  This module
implements that path on top of RMF:

* :class:`RendezvousServer` — the startup barrier + address exchange:
  every rank of a co-allocated job registers its (index, endpoint
  address); once all are present, each registrant receives the full
  table.
* :func:`make_mpi_executable` — wraps a per-rank generator
  ``main(comm, *args)`` as an RMF executable: each sub-job builds its
  ranks' Nexus endpoints on the resource host, rendezvouses, and runs
  ``main`` with a fully wired :class:`~repro.mpi.communicator.Communicator`.
* :func:`co_allocate` — the ``globusrun`` moment: submit sub-jobs to
  several gatekeepers concurrently and gather their results.

The net effect, demonstrated in ``tests/rmf/test_duroc.py``: a single
client call starts an MPI world spanning resources behind different
gatekeepers — with the firewalled ranks publishing their endpoints
through the Nexus Proxy, exactly like the paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.mpi.communicator import Communicator
from repro.nexus.context import NexusContext
from repro.rmf.executables import ExecutionContext
from repro.rmf.gatekeeper import GramReply, submit_job
from repro.rmf.jobs import RMFError
from repro.simnet.host import Host
from repro.simnet.kernel import AllOf, Event
from repro.simnet.primitives import Channel
from repro.simnet.service import Service
from repro.simnet.socket import Address, Connection, ConnectionReset

__all__ = [
    "RendezvousServer",
    "DEFAULT_RENDEZVOUS_PORT",
    "SubJob",
    "co_allocate",
    "make_mpi_executable",
]

DEFAULT_RENDEZVOUS_PORT = 2112
_CTRL_BYTES = 96


@dataclass(frozen=True, slots=True)
class _Register:
    job_label: str
    rank: int
    world_size: int
    endpoint: Address


@dataclass(frozen=True, slots=True)
class _Table:
    ok: bool
    addrs: tuple[Address, ...] = ()
    error: Optional[str] = None


class _Barrier:
    """Collects one job's registrations until the world is complete."""

    def __init__(self, sim, world_size: int) -> None:
        self.world_size = world_size
        self.addrs: dict[int, Address] = {}
        self.waiters: list[tuple[int, Connection]] = []
        self.sim = sim


class RendezvousServer(Service):
    """The co-allocation barrier + bootstrap address exchange."""

    error = RMFError

    def __init__(self, host: Host, port: int = DEFAULT_RENDEZVOUS_PORT) -> None:
        super().__init__(host, port)
        self._barriers: dict[str, _Barrier] = {}
        self.jobs_completed = 0

    def _session(self, conn: Connection) -> Iterator[Event]:
        try:
            msg = yield conn.recv()
        except ConnectionReset:
            return
        req = msg.payload
        if not isinstance(req, _Register):
            yield conn.send(_Table(ok=False, error="bad request"), nbytes=_CTRL_BYTES)
            conn.close()
            return
        barrier = self._barriers.get(req.job_label)
        if barrier is None:
            barrier = _Barrier(self.sim, req.world_size)
            self._barriers[req.job_label] = barrier
        if barrier.world_size != req.world_size:
            yield conn.send(
                _Table(ok=False, error=(
                    f"world-size mismatch for {req.job_label!r}: "
                    f"{barrier.world_size} vs {req.world_size}")),
                nbytes=_CTRL_BYTES,
            )
            conn.close()
            return
        if req.rank in barrier.addrs:
            yield conn.send(
                _Table(ok=False, error=f"duplicate rank {req.rank}"),
                nbytes=_CTRL_BYTES,
            )
            conn.close()
            return
        barrier.addrs[req.rank] = req.endpoint
        barrier.waiters.append((req.rank, conn))
        if len(barrier.addrs) < barrier.world_size:
            return  # the connection stays open; the table comes later
        # Barrier complete: release everyone with the ordered table.
        table = _Table(
            ok=True,
            addrs=tuple(barrier.addrs[r] for r in range(barrier.world_size)),
        )
        nbytes = _CTRL_BYTES + 32 * barrier.world_size
        for _, waiter_conn in barrier.waiters:
            yield waiter_conn.send(table, nbytes=nbytes)
            waiter_conn.close()
        del self._barriers[req.job_label]
        self.jobs_completed += 1


def _rendezvous(
    host: Host,
    server_addr: tuple[str, int],
    job_label: str,
    rank: int,
    world_size: int,
    endpoint_addr: Address,
) -> Iterator[Event]:
    """Generator: register and block until the world table arrives."""
    conn = yield from host.connect(server_addr)
    yield conn.send(
        _Register(job_label, rank, world_size, endpoint_addr), nbytes=_CTRL_BYTES
    )
    try:
        msg = yield conn.recv()
    except ConnectionReset:
        raise RMFError(f"rendezvous {server_addr} dropped rank {rank}")
    table: _Table = msg.payload
    conn.close()
    if not table.ok:
        raise RMFError(f"rendezvous failed: {table.error}")
    return list(table.addrs)


def make_mpi_executable(
    rank_main: Callable[..., Iterator[Event]],
    rendezvous_addr: tuple[str, int],
    *args: Any,
    context_factory: Optional[Callable[[Host], NexusContext]] = None,
) -> Callable[[ExecutionContext], Iterator[Event]]:
    """Build an RMF executable that joins a co-allocated MPI world.

    RSL arguments: ``(arguments=<job_label> <world_size> <base_rank>)``
    — the sub-job contributes ranks ``base_rank .. base_rank+nprocs-1``.
    The executable's stdout records each rank's return value.

    ``context_factory(host)`` builds each rank's
    :class:`~repro.nexus.context.NexusContext`; supply one that wires
    the site's Nexus Proxy addresses for ranks on firewalled
    resources (the testbed's ``NEXUS_PROXY_*`` environment), otherwise
    plain direct contexts are used.
    """

    def mpi_executable(ctx: ExecutionContext) -> Iterator[Event]:
        if len(ctx.args) < 3:
            raise RMFError(
                "mpi executable needs arguments: job_label world_size base_rank"
            )
        job_label = ctx.args[0]
        world_size = int(ctx.args[1])
        base_rank = int(ctx.args[2])
        nlocal = max(1, ctx.nprocs)

        def one_rank(rank: int) -> Iterator[Event]:
            if context_factory is not None:
                nexus = context_factory(ctx.host)
            else:
                nexus = NexusContext(ctx.host)
            endpoint = yield from nexus.create_endpoint(
                f"duroc:{job_label}:{rank}"
            )
            addrs = yield from _rendezvous(
                ctx.host, rendezvous_addr, job_label, rank, world_size,
                endpoint.addr,
            )
            comm = Communicator(rank, nexus, endpoint, addrs)
            result = yield from rank_main(comm, *args)
            comm.finalize()
            return (rank, result)

        procs = [
            ctx.sim.process(one_rank(base_rank + i), name=f"{job_label}[{base_rank + i}]")
            for i in range(nlocal)
        ]
        gathered = yield AllOf(ctx.sim, procs)
        for p in procs:
            rank, result = gathered[p]
            ctx.write(f"rank {rank}: {result}\n")

    return mpi_executable


@dataclass(frozen=True, slots=True)
class SubJob:
    """One GRAM request of a co-allocated multi-request."""

    gatekeeper_addr: tuple[str, int]
    rsl: str


def co_allocate(
    client_host: Host,
    subjobs: "list[SubJob]",
    subject: str = "anonymous",
) -> Iterator[Event]:
    """Generator: submit every sub-job concurrently (the ``globusrun``
    multi-request) and return their :class:`GramReply` list in order."""
    if not subjobs:
        raise RMFError("co_allocate needs at least one sub-job")
    sim = client_host.sim
    procs = [
        sim.process(
            submit_job(client_host, sj.gatekeeper_addr, sj.rsl, subject),
            name=f"duroc-subjob[{i}]",
        )
        for i, sj in enumerate(subjobs)
    ]
    gathered = yield AllOf(sim, procs)
    replies: list[GramReply] = [gathered[p] for p in procs]
    return replies
