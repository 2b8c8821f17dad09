"""The Q system: RMF's job queuing client/server pair.

"The Q system is based on the client-server model.  It provides a
remote job execution mechanism using job queues.  A server of the Q
system (Q server) runs on every computing resource inside the
firewall.  A client of the Q system (Q client) is invoked by a job
manager running outside the firewall." (§2)

Wire messages (plain simulated connections; file bundles carry their
real sizes so staging cost is visible):

* ``QSubmit(spec, files)`` — client → server, one per sub-job;
* ``QAccepted(job_id)``, ``QStarted(job_id)`` — server → client;
* ``QFinished(job_id, state, exit_code, stdout, error, out_files)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.obs import spans as _obs
from repro.obs import trace as _trace
from repro.rmf.executables import ExecutableRegistry, ExecutionContext, default_registry
from repro.rmf.gass import FileStore
from repro.rmf.jobs import JobRecord, JobResult, JobSpec, JobState, RMFError, next_job_id
from repro.simnet.host import Host
from repro.simnet.kernel import Event
from repro.simnet.primitives import Channel
from repro.simnet.service import Service
from repro.simnet.socket import Connection, ConnectionReset, SocketError

__all__ = [
    "QSubmit",
    "QAccepted",
    "QStarted",
    "QFinished",
    "QServer",
    "QClient",
    "DEFAULT_QSERVER_PORT",
]

DEFAULT_QSERVER_PORT = 7200

#: Wire size of Q-system control messages (sans file bundles).
_CTRL_BYTES = 128


@dataclass(frozen=True, slots=True)
class QSubmit:
    spec: JobSpec
    files: dict[str, bytes] = field(default_factory=dict)
    #: Processes this sub-job should use on the target resource.
    nprocs: int = 1
    #: Optional causal trace context (wire form).
    tctx: Optional[str] = None


@dataclass(frozen=True, slots=True)
class QAccepted:
    job_id: int


@dataclass(frozen=True, slots=True)
class QStarted:
    job_id: int


@dataclass(frozen=True, slots=True)
class QFinished:
    job_id: int
    state: JobState
    exit_code: int
    stdout: str
    error: Optional[str]
    out_files: dict[str, bytes] = field(default_factory=dict)


class QServer(Service):
    """The queuing daemon on one computing resource.

    Jobs queue FIFO and run with up to ``slots`` concurrent jobs
    (default: one job at a time — the resource is space-shared at job
    granularity, like the testbed's clusters).
    """

    error = RMFError

    def __init__(
        self,
        host: Host,
        resource_name: Optional[str] = None,
        port: int = DEFAULT_QSERVER_PORT,
        registry: Optional[ExecutableRegistry] = None,
        slots: int = 1,
        cpus: Optional[int] = None,
        allocator_addr: Optional[tuple[str, int]] = None,
        heartbeat_interval: float = 30.0,
    ) -> None:
        if slots < 1:
            raise RMFError(f"slots must be >= 1, got {slots}")
        super().__init__(host, port)
        self.resource_name = resource_name or host.name
        self.registry = registry if registry is not None else default_registry()
        self.slots = slots
        #: Processors this resource advertises to the allocator.
        self.cpus = cpus if cpus is not None else host.cores
        self.files = FileStore(host.name)
        self._queue: Channel[tuple[JobRecord, QSubmit, Connection]] = Channel(self.sim)
        self.records: dict[int, JobRecord] = {}
        self.jobs_run = 0
        self.running_jobs = 0
        #: When set, the server registers itself with the allocator at
        #: startup and heartbeats load reports, enabling dynamic
        #: registration and liveness-based placement.
        self.allocator_addr = allocator_addr
        if heartbeat_interval <= 0:
            raise RMFError("heartbeat_interval must be positive")
        self.heartbeat_interval = heartbeat_interval
        self.heartbeats_sent = 0

    def start(self) -> "QServer":
        super().start()
        for i in range(self.slots):
            self.sim.process(self._runner(), name=f"qserver-run{i}@{self.host.name}")
        if self.allocator_addr is not None:
            self.sim.process(
                self._heartbeat_loop(), name=f"qserver-hb@{self.host.name}"
            )
        return self

    def _heartbeat_loop(self) -> Iterator[Event]:
        """Register with the allocator and report load periodically.

        Survives allocator restarts (reconnects); dies with the host
        (its sockets fail), which is exactly how the allocator's
        liveness filter learns a resource is gone.
        """
        from repro.rmf.allocator import LoadReport, RegisterResource

        conn = None
        while self.running:
            try:
                if conn is None or conn.closed:
                    conn = yield from self.host.connect(self.allocator_addr)
                    yield conn.send(
                        RegisterResource(
                            self.resource_name, self.host.name, self.port,
                            self.cpus, self.host.cpu_speed,
                        ),
                        nbytes=_CTRL_BYTES,
                    )
                else:
                    yield conn.send(
                        LoadReport(
                            self.resource_name, self.running_jobs,
                            self.queued_jobs,
                        ),
                        nbytes=_CTRL_BYTES,
                    )
                self.heartbeats_sent += 1
            except SocketError:
                conn = None  # allocator unreachable; retry next tick
            yield self.sim.timeout(self.heartbeat_interval)

    def stop(self) -> None:
        super().stop()
        self._queue.close()

    @property
    def queued_jobs(self) -> int:
        return len(self._queue)

    # -- intake -------------------------------------------------------------

    def _session(self, conn: Connection) -> Iterator[Event]:
        try:
            msg = yield conn.recv()
        except ConnectionReset:
            return
        submit = msg.payload
        if not isinstance(submit, QSubmit):
            conn.close()
            return
        record = JobRecord(
            job_id=next_job_id(), spec=submit.spec, submitted_at=self.sim.now,
            tctx=_trace.accept(submit.tctx),
        )
        self.records[record.job_id] = record
        if submit.spec.executable not in self.registry:
            record.mark_failed(self.sim.now, f"no such executable: {submit.spec.executable!r}")
            yield conn.send(
                QFinished(record.job_id, record.state, 127, "", record.error),
                nbytes=_CTRL_BYTES,
            )
            conn.close()
            return
        self.files.unbundle(submit.files, tctx=record.tctx)
        yield conn.send(QAccepted(record.job_id), nbytes=_CTRL_BYTES)
        if not self._queue.try_put((record, submit, conn)):
            record.mark_failed(self.sim.now, "queue closed")
            conn.close()

    # -- execution ---------------------------------------------------------------

    def _runner(self) -> Iterator[Event]:
        while True:
            try:
                record, submit, conn = yield self._queue.get()
            except Exception:
                return  # queue closed: server stopping
            yield from self._run_job(record, submit, conn)

    def _run_job(
        self, record: JobRecord, submit: QSubmit, conn: Connection
    ) -> Iterator[Event]:
        record.mark_active(self.sim.now)
        rec = _obs.RECORDER
        if rec is not None:
            rec.sim_span("rmf.job", "queued", record.submitted_at, self.sim.now,
                         track=f"qserver:{self.resource_name}",
                         job_id=record.job_id,
                         **_trace.span_args(record.tctx))
        self.running_jobs += 1
        yield conn.send(QStarted(record.job_id), nbytes=_CTRL_BYTES)
        ctx = ExecutionContext(
            self.host, record.spec, self.files, record.job_id, submit.nprocs
        )
        fn = self.registry.get(record.spec.executable)
        proc = self.sim.process(fn(ctx), name=f"job{record.job_id}:{record.spec.executable}")
        failed_error: Optional[str] = None
        exit_code = 0
        try:
            rv = yield proc
            exit_code = int(rv) if rv is not None else 0
        except Exception as exc:  # noqa: BLE001 - job crash is data here
            failed_error = f"{type(exc).__name__}: {exc}"
        self.running_jobs -= 1
        self.jobs_run += 1
        if failed_error is not None:
            record.mark_failed(self.sim.now, failed_error)
        else:
            record.mark_done(self.sim.now, exit_code, ctx.stdout())
        rec = _obs.RECORDER
        if rec is not None:
            rec.sim_span("rmf.job", "run", record.started_at, self.sim.now,
                         track=f"qserver:{self.resource_name}",
                         job_id=record.job_id, state=record.state.value,
                         executable=record.spec.executable,
                         **_trace.span_args(record.tctx))
        out_files: dict[str, bytes] = {}
        for name in record.spec.stage_out:
            if self.files.exists(name):
                out_files[name] = self.files.get(name)
        finished = QFinished(
            record.job_id,
            record.state,
            record.exit_code if record.exit_code is not None else 0,
            record.stdout,
            record.error,
            out_files,
        )
        try:
            yield conn.send(
                finished, nbytes=_CTRL_BYTES + FileStore.bundle_bytes(out_files)
            )
        except ConnectionReset:
            pass  # client went away; record keeps the outcome
        conn.close()


class QClient:
    """The Q client: submits sub-jobs to Q servers and collects results.

    Created by a job manager (outside the firewall); the firewall must
    allow its connections to the allocator and the Q servers — the RMF
    deployment opens those pinholes (see
    :class:`repro.rmf.gatekeeper.RMFSystem`).
    """

    def __init__(self, host: Host, staging: Optional[FileStore] = None) -> None:
        self.host = host
        self.sim = host.sim
        #: Where stage-in files are read from (the GASS cache at the
        #: submitting side); defaults to an empty store.
        self.staging = staging if staging is not None else FileStore(host.name)

    def submit(
        self,
        qserver_addr: "tuple[str, int]",
        spec: JobSpec,
        nprocs: int = 1,
        tctx: "Optional[_trace.TraceContext]" = None,
    ) -> Iterator[Event]:
        """Generator: run one sub-job on one Q server, return
        :class:`JobResult` (step 5–6 of the Fig. 2 flow)."""
        t0 = self.sim.now
        files = self.staging.bundle(spec.stage_in, tctx=tctx)
        conn = yield from self.host.connect(qserver_addr)
        yield conn.send(
            QSubmit(spec, files, nprocs,
                    tctx=tctx.to_wire() if tctx is not None else None),
            nbytes=_CTRL_BYTES + FileStore.bundle_bytes(files),
        )
        if tctx is not None:
            rec = _obs.RECORDER
            if rec is not None:
                # Anchor this hop's span id so the assembled causal
                # tree has a node between the gatekeeper and the Q
                # server (a minted context without a span would leave
                # the child's parent link dangling).
                rec.sim_span("rmf", "qsubmit", t0, self.sim.now,
                             track=f"qclient:{self.host.name}",
                             dest=f"{qserver_addr[0]}:{qserver_addr[1]}",
                             **_trace.span_args(tctx))
        queued_at = started_at = self.sim.now
        job_id: Optional[int] = None
        try:
            while True:
                msg = yield conn.recv()
                reply = msg.payload
                if isinstance(reply, QAccepted):
                    job_id = reply.job_id
                elif isinstance(reply, QStarted):
                    started_at = self.sim.now
                elif isinstance(reply, QFinished):
                    conn.close()
                    for name, content in reply.out_files.items():
                        self.staging.put(name, content)
                    return JobResult(
                        job_id=reply.job_id,
                        state=reply.state,
                        exit_code=reply.exit_code,
                        stdout=reply.stdout,
                        error=reply.error,
                        output_files=dict(reply.out_files),
                        resource=qserver_addr[0],
                        queued_time=started_at - queued_at,
                        run_time=self.sim.now - started_at,
                    )
                else:
                    raise RMFError(f"unexpected Q reply: {reply!r}")
        except ConnectionReset:
            raise RMFError(
                f"Q server {qserver_addr} dropped the connection "
                f"(job_id={job_id})"
            )
