"""The RMF-type GRAM gatekeeper and job manager (outside the firewall).

Fig. 2's six-step flow:

0. the gatekeeper runs outside the firewall; the allocator runs
   inside; a Q server runs on every computing resource;
1. a job request (RSL + credential subject) is submitted to the
   gatekeeper;
2. the gatekeeper authenticates it against its gridmap and forks a
   *job manager*, which creates a Q client;
3. the Q client asks the resource allocator which resources to use;
4. the allocator answers with assignments;
5. the Q client submits sub-job requests to the chosen Q servers
   (staging input files along, GASS-style);
6. each Q server queues and runs the job processes; results flow back
   through the Q client and gatekeeper to the submitter.

:class:`RMFSystem` wires a whole deployment — daemons plus the two
firewall pinholes RMF needs (§2: "the firewall must be configured to
allow communications between the Q client and the resource allocator,
and the Q client and the Q server").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.rmf.allocator import (
    DEFAULT_ALLOCATOR_PORT,
    AllocReply,
    AllocRequest,
    ResourceAllocator,
)
from repro.rmf.executables import ExecutableRegistry, default_registry
from repro.rmf.gass import FileStore
from repro.rmf.jobs import JobResult, JobSpec, JobState, RMFError
from repro.rmf.qsystem import DEFAULT_QSERVER_PORT, QClient, QServer
from repro.rmf.rsl import parse_rsl
from repro.obs import spans as _obs
from repro.obs import trace as _trace
from repro.simnet.host import Host
from repro.simnet.kernel import AllOf, Event
from repro.simnet.service import Service
from repro.simnet.socket import Connection, ConnectionReset

__all__ = [
    "GramRequest",
    "GramReply",
    "Gatekeeper",
    "RMFSystem",
    "DEFAULT_GATEKEEPER_PORT",
    "submit_job",
]

DEFAULT_GATEKEEPER_PORT = 2119
_CTRL_BYTES = 256


@dataclass(frozen=True, slots=True)
class GramRequest:
    """What a submitting client sends: RSL text plus a credential."""

    rsl: str
    subject: str
    #: Optional causal trace context (wire form) minted at submit time.
    tctx: Optional[str] = None


@dataclass(frozen=True, slots=True)
class GramReply:
    ok: bool
    results: tuple[JobResult, ...] = ()
    error: Optional[str] = None

    @property
    def stdout(self) -> str:
        return "".join(r.stdout for r in self.results)

    @property
    def all_succeeded(self) -> bool:
        return self.ok and all(r.ok for r in self.results)


class Gatekeeper(Service):
    """The GRAM entry point for an RMF deployment.  Each request is
    served by its own session ("the job manager invoked by the
    gatekeeper" — one forked process per request)."""

    error = RMFError

    def __init__(
        self,
        host: Host,
        allocator_addr: tuple[str, int],
        port: int = DEFAULT_GATEKEEPER_PORT,
        gridmap: Optional[dict[str, str]] = None,
        staging: Optional[FileStore] = None,
    ) -> None:
        super().__init__(host, port)
        self.allocator_addr = allocator_addr
        #: Credential subject → local user.  Empty map = open access
        #: (convenient for tests; real sites always populate it).
        self.gridmap = gridmap
        #: GASS cache on the gatekeeper host; stage-in files are read
        #: from here and stage-out files land here.
        self.staging = staging if staging is not None else FileStore(host.name)
        self.requests_handled = 0
        self.auth_failures = 0

    def authenticate(self, subject: str) -> bool:
        if self.gridmap is None:
            return True
        return subject in self.gridmap

    # -- request handling ------------------------------------------------------

    def _session(self, conn: Connection) -> Iterator[Event]:
        try:
            msg = yield conn.recv()
        except ConnectionReset:
            return
        t0 = self.sim.now
        ctx = _trace.accept(getattr(msg.payload, "tctx", None))

        def _span_end(ok: bool) -> None:
            """GRAM span: request received → reply sent (Fig. 2 steps 1-6)."""
            rec = _obs.RECORDER
            if rec is not None:
                rec.sim_span("rmf", "gram_request", t0, self.sim.now,
                             track=f"gatekeeper:{self.host.name}", ok=ok,
                             **_trace.span_args(ctx))

        request = msg.payload
        if not isinstance(request, GramRequest):
            yield conn.send(
                GramReply(ok=False, error="malformed request"), nbytes=_CTRL_BYTES
            )
            conn.close()
            _span_end(False)
            return
        self.requests_handled += 1
        if not self.authenticate(request.subject):
            self.auth_failures += 1
            yield conn.send(
                GramReply(ok=False, error=f"authentication failed for {request.subject!r}"),
                nbytes=_CTRL_BYTES,
            )
            conn.close()
            _span_end(False)
            return
        try:
            spec = parse_rsl(request.rsl)
        except RMFError as exc:
            yield conn.send(GramReply(ok=False, error=str(exc)), nbytes=_CTRL_BYTES)
            conn.close()
            _span_end(False)
            return
        try:
            results = yield from self._run_via_qsystem(spec, tctx=ctx)
        except RMFError as exc:
            yield conn.send(GramReply(ok=False, error=str(exc)), nbytes=_CTRL_BYTES)
            conn.close()
            _span_end(False)
            return
        reply = GramReply(ok=True, results=tuple(results))
        out_bytes = sum(FileStore.bundle_bytes(r.output_files) for r in results)
        yield conn.send(reply, nbytes=_CTRL_BYTES + out_bytes)
        conn.close()
        _span_end(True)

    def _run_via_qsystem(
        self,
        spec: JobSpec,
        tctx: "Optional[_trace.TraceContext]" = None,
    ) -> Iterator[Event]:
        """Steps 3–6: allocator inquiry, sub-job fan-out, collection."""
        qclient = QClient(self.host, staging=self.staging)
        # Step 3–4: ask the allocator.
        t_alloc = self.sim.now
        alloc_conn = yield from self.host.connect(self.allocator_addr)
        yield alloc_conn.send(AllocRequest(spec), nbytes=_CTRL_BYTES)
        try:
            reply_msg = yield alloc_conn.recv()
        except ConnectionReset:
            raise RMFError("allocator dropped the connection")
        alloc_reply: AllocReply = reply_msg.payload
        alloc_conn.close()
        rec = _obs.RECORDER
        if rec is not None:
            rec.sim_span("rmf", "allocate", t_alloc, self.sim.now,
                         track=f"gatekeeper:{self.host.name}",
                         ok=alloc_reply.ok,
                         assignments=len(alloc_reply.assignments),
                         **_trace.span_args(tctx))
        if not alloc_reply.ok:
            raise RMFError(f"allocation failed: {alloc_reply.error}")
        # Step 5: submit sub-jobs concurrently, one per resource.
        t_subs = self.sim.now
        subs = [
            self.sim.process(
                qclient.submit((a.host, a.port), spec, nprocs=a.nprocs,
                               tctx=_trace.child(tctx)),
                name=f"qclient->{a.resource}",
            )
            for a in alloc_reply.assignments
        ]
        gathered = yield AllOf(self.sim, subs)
        rec = _obs.RECORDER
        if rec is not None:
            rec.sim_span("rmf", "subjobs", t_subs, self.sim.now,
                         track=f"gatekeeper:{self.host.name}",
                         count=len(subs), **_trace.span_args(tctx))
        return [gathered[p] for p in subs]


def submit_job(
    client_host: Host,
    gatekeeper_addr: tuple[str, int],
    rsl: str,
    subject: str = "anonymous",
    tctx: "Optional[_trace.TraceContext]" = None,
) -> Iterator[Event]:
    """Generator: submit an RSL request and return the
    :class:`GramReply` (step 1 of the flow, from the user's side).

    An RMF submit is a causal-trace *origin*: when tracing is on and
    no context was handed in, a fresh trace is minted here and rides
    the request through gatekeeper, allocator, Q system and job.
    """
    if tctx is None and _trace.ENABLED:
        tctx = _trace.mint("submit")
    sim = client_host.sim
    t0 = sim.now
    conn = yield from client_host.connect(gatekeeper_addr)
    yield conn.send(
        GramRequest(rsl, subject,
                    tctx=tctx.to_wire() if tctx is not None else None),
        nbytes=_CTRL_BYTES + len(rsl),
    )
    try:
        msg = yield conn.recv()
    except ConnectionReset:
        raise RMFError(f"gatekeeper {gatekeeper_addr} dropped the connection")
    conn.close()
    reply = msg.payload
    if not isinstance(reply, GramReply):
        raise RMFError(f"unexpected gatekeeper reply: {reply!r}")
    if tctx is not None:
        rec = _obs.RECORDER
        if rec is not None:
            rec.sim_span("rmf", "submit", t0, sim.now,
                         track=f"client:{client_host.name}",
                         ok=reply.ok, **_trace.span_args(tctx))
    return reply


class RMFSystem:
    """A fully wired RMF deployment.

    Construct with the gatekeeper host (outside the firewall) and the
    allocator host (inside); add resources with :meth:`add_resource`;
    call :meth:`start`.  Firewall pinholes for the allocator and each
    Q server are opened automatically, pinned to the gatekeeper host —
    the minimal configuration §2 requires.
    """

    def __init__(
        self,
        gatekeeper_host: Host,
        allocator_host: Host,
        registry: Optional[ExecutableRegistry] = None,
        gridmap: Optional[dict[str, str]] = None,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self.allocator = ResourceAllocator(allocator_host)
        self.gatekeeper = Gatekeeper(
            gatekeeper_host, self.allocator.addr, gridmap=gridmap
        )
        self.qservers: list[QServer] = []
        self._open_pinhole(allocator_host, DEFAULT_ALLOCATOR_PORT)

    def _open_pinhole(self, host: Host, port: int) -> None:
        site = host.site
        if site is not None and site.firewall is not None:
            site.firewall.open_inbound_port(
                port,
                src_host=self.gatekeeper.host.name,
                dst_host=host.name,
                comment=f"RMF: gatekeeper -> {host.name}:{port}",
            )

    def add_resource(
        self,
        host: Host,
        name: Optional[str] = None,
        cpus: Optional[int] = None,
        slots: int = 1,
    ) -> QServer:
        qs = QServer(
            host,
            resource_name=name,
            registry=self.registry,
            slots=slots,
            cpus=cpus,
        )
        self.qservers.append(qs)
        self.allocator.add_resource(
            qs.resource_name, host.name, qs.port, qs.cpus, host.cpu_speed
        )
        self._open_pinhole(host, qs.port)
        return qs

    def start(self) -> "RMFSystem":
        self.allocator.start()
        self.gatekeeper.start()
        for qs in self.qservers:
            qs.start()
        return self

    def stop(self) -> None:
        self.gatekeeper.stop()
        self.allocator.stop()
        for qs in self.qservers:
            qs.stop()

    def submit(self, client_host: Host, rsl: str, subject: str = "anonymous"):
        """Generator: submit through the gatekeeper (convenience)."""
        return submit_job(client_host, self.gatekeeper.addr, rsl, subject)
