"""The communicator: rank/size, tagged point-to-point messaging.

API follows mpi4py's lowercase conventions (``comm.send`` /
``comm.recv`` with ``source``/``tag`` keywords, wildcard constants),
adapted to the simulator's generator style: operations are generators
to ``yield from`` inside simulated processes.

One :class:`Communicator` belongs to one rank (one simulated process on
one host).  Under the hood each rank owns a Nexus endpoint; sends go
through cached startpoints, so the first message between two ranks
pays connection setup — through the Nexus Proxy when the destination
rank's endpoint is published there, exactly like MPICH-G over the
patched Globus (§4).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.mpi.errors import MPIError
from repro.obs import spans as _obs
from repro.obs import trace as _trace
from repro.mpi.status import ANY_SOURCE, ANY_TAG, ENVELOPE_BYTES, Envelope, Status
from repro.nexus.context import NexusContext
from repro.nexus.endpoint import Endpoint
from repro.simnet.kernel import Event
from repro.simnet.socket import Address

__all__ = ["Communicator"]


class Communicator:
    """One rank's handle on the (simulated) MPI world."""

    def __init__(
        self,
        rank: int,
        context: NexusContext,
        endpoint: Endpoint,
        rank_addrs: list[Address],
    ) -> None:
        self.rank = rank
        self.context = context
        self.endpoint = endpoint
        self.sim = context.sim
        self.host = context.host
        self._rank_addrs = rank_addrs
        self._pending: list[Envelope] = []
        self._waiters: list[tuple[int, int, Event]] = []
        self._pump_started = False
        #: Counters for the harness (Tables 5/6-style accounting).
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Collective-call sequence number (all ranks call collectives
        #: in the same order, so this tags matching rounds).
        self._coll_seq = 0
        #: Causal trace context stamped onto every outgoing envelope
        #: while set (the sim plane threads contexts explicitly — one
        #: rank, one communicator, so an attribute is race-free here).
        self.trace_ctx: "Optional[_trace.TraceContext]" = None

    # -- identity ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._rank_addrs)

    def wtime(self) -> float:
        """Wall-clock in simulated seconds (MPI_Wtime)."""
        return self.sim.now

    def _check_rank(self, rank: int, what: str) -> None:
        if not (0 <= rank < self.size):
            raise MPIError(f"{what} rank {rank} out of range [0, {self.size})")

    # -- plumbing -------------------------------------------------------------

    def _start_pump(self) -> None:
        if self._pump_started:
            return
        self._pump_started = True
        self.sim.process(self._pump(), name=f"mpi-pump[{self.rank}]")

    def _pump(self) -> Iterator[Event]:
        while True:
            try:
                delivery = yield self.endpoint.receive()
            except Exception:
                return  # endpoint closed: rank finalized
            env = delivery.payload
            if not isinstance(env, Envelope):
                raise MPIError(f"rank {self.rank}: non-envelope message {env!r}")
            self._deliver_local(env)

    # -- point-to-point --------------------------------------------------------

    def send(
        self,
        payload: Any,
        dest: int,
        tag: int = 0,
        nbytes: Optional[int] = None,
    ) -> Iterator[Event]:
        """Generator: send ``payload`` to rank ``dest``.

        ``nbytes`` is the simulated wire size of the payload (64 bytes
        when omitted).  Returns when the sender-side work is done
        (eager/buffered semantics, the MPICH-G behaviour for the small
        messages this workload exchanges).
        """
        self._check_rank(dest, "destination")
        if tag < 0:
            raise MPIError(f"application tags must be >= 0, got {tag}")
        yield from self._send_internal(payload, dest, tag, nbytes)

    def _send_internal(
        self, payload: Any, dest: int, tag: int, nbytes: Optional[int]
    ) -> Iterator[Event]:
        if nbytes is None:
            nbytes = 64
        wire_ctx = None
        if _trace.ENABLED and self.trace_ctx is not None:
            wire_ctx = self.trace_ctx.to_wire()
        if dest == self.rank:
            # Self-send: bypass the network, preserve matching order.
            env = Envelope(self.rank, tag, payload, nbytes, self.sim.now,
                           tctx=wire_ctx)
            yield self.sim.timeout(0)
            self._deliver_local(env)
        else:
            sp = self.context.startpoint(self._rank_addrs[dest])
            env = Envelope(self.rank, tag, payload, nbytes, self.sim.now,
                           tctx=wire_ctx)
            yield from sp.send(env, nbytes=nbytes + ENVELOPE_BYTES)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        rec = _obs.RECORDER
        if rec is not None:
            pair = f"{self.rank}->{dest}"
            rec.count_pair("mpi.messages", pair)
            rec.count_pair("mpi.bytes", pair, nbytes)
            if wire_ctx is not None:
                rec.count_pair(
                    "mpi.trace_bytes", self.trace_ctx.trace_id, nbytes
                )

    def _deliver_local(self, env: Envelope) -> None:
        self.messages_received += 1
        self.bytes_received += env.nbytes
        rec = _obs.RECORDER
        if rec is not None:
            rec.count_pair("mpi.messages_recv", f"{env.source}->{self.rank}")
        for i, (source, tag, ev) in enumerate(self._waiters):
            if env.matches(source, tag):
                del self._waiters[i]
                ev.succeed(env)
                return
        self._pending.append(env)

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Iterator[Event]:
        """Generator: ``payload, status = yield from comm.recv(...)``.

        Matches the oldest pending message from ``source`` with ``tag``
        (wildcards allowed), blocking until one arrives.
        """
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        self._start_pump()
        env = self._match_pending(source, tag)
        if env is None:
            ev = self.sim.event()
            self._waiters.append((source, tag, ev))
            env = yield ev
        status = Status(env.source, env.tag, env.nbytes, self.sim.now,
                        tctx=env.tctx)
        return env.payload, status

    def _match_pending(self, source: int, tag: int) -> Optional[Envelope]:
        for i, env in enumerate(self._pending):
            if env.matches(source, tag):
                del self._pending[i]
                return env
        return None

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Non-blocking probe: status of the first matching pending
        message, or ``None`` (does not consume it)."""
        self._start_pump()
        rec = _obs.RECORDER
        if rec is not None:
            rec.count_pair("mpi.iprobe_calls", f"rank{self.rank}")
        for env in self._pending:
            if env.matches(source, tag):
                return Status(env.source, env.tag, env.nbytes, self.sim.now)
        return None

    # -- teardown --------------------------------------------------------------

    def finalize(self) -> None:
        """Release this rank's communication resources."""
        self.context.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator rank={self.rank}/{self.size} on {self.host.name}>"
