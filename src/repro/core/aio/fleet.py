"""Sharded relay fleet: N outer workers behind one logical endpoint.

The paper's firewall-compliant design funnels every wide-area chain
through *one* Nexus proxy relay; PR 6's striping made clients
parallel, but a single outer daemon still owned every chain.  This
module shards the outer server across N worker *processes* that
together present one logical control endpoint, with the chain→worker
decision made by :mod:`repro.core.placement` policy.

**Handoff**: a tiny front door accepts each TCP connection with
``loop.sock_accept`` — a raw socket, never wrapped in a transport, so
*zero* request bytes are consumed — applies admission control
(per-client chain quotas), places the chain (least-loaded by live
byte-rate from worker heartbeats, consistent-hash fallback), and
passes the intact file descriptor to the chosen worker over a unix
control socket with ``SCM_RIGHTS`` (:func:`socket.send_fds`).  The
worker wraps the fd into its own streams and runs the ordinary
:meth:`AioOuterServer._handle_control` on it.

Control-channel wire format (one unix stream socket per worker,
newline-delimited JSON; a message with ``"fds": k`` has exactly ``k``
file descriptors attached to its ``sendmsg`` as ``SCM_RIGHTS``
ancillary data, paired FIFO on the receive side):

* worker → manager: ``hello`` (worker id, pid, bound ports),
  ``hb`` (state, bytes_relayed, active_chains),
  ``closed`` (one handed-off chain ended; carries the client address
  so the manager releases its quota slot), ``drained``.
* manager → worker: ``handoff`` (``fds: 1`` — the accepted socket),
  ``drain`` (optional grace override), ``stop``.

Graceful drain is cooperative *migration by redial*: a draining
worker is excluded from placement, refuses new handoffs, aborts
chains that moved no bytes over a poll interval immediately, and
aborts the rest when the grace period expires.  The striping layer
(PR 6) redials dead streams through the logical endpoint — landing on
a healthy worker — and resumes from the sink's restart marker, so an
in-flight striped transfer survives a drain with zero lost or
duplicated bytes.  The worker writes its trace artifacts and exits
only after its chains are gone.

Each worker is a full relay daemon: its own telemetry endpoint, its
own ObsRecorder whose trace file carries a per-worker causal site
prefix, so ``repro-obs assemble`` stitches client + N workers into
one flow-linked trace with ``unresolved_parents == 0``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import multiprocessing
import os
import socket
import tempfile
import threading
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from repro.core.aio.pump import STREAM_LIMIT
from repro.core.placement import (
    WORKER_DRAINING,
    WORKER_GONE,
    WORKER_UP,
    AdmissionControl,
    LeastLoadedPlacer,
    WorkerView,
    fleet_snapshot,
)

__all__ = ["FleetSpec", "FleetManager"]

log = logging.getLogger("repro.fleet")

_CTL_RECV = 65536
_CTL_MAXFDS = 32
#: How long :meth:`FleetManager.start` waits for every spawned worker
#: to report in (a spawn re-imports the package in each child).
HELLO_TIMEOUT_S = 60.0
#: How long :meth:`FleetManager.drain` waits for a worker's
#: ``drained`` report before it stops waiting and reaps the process.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class FleetSpec:
    """Everything a fleet deployment needs — plain data, picklable
    across the ``spawn`` boundary to worker processes."""

    workers: int = 2
    host: str = "127.0.0.1"
    #: Logical fleet port (0 = pick one).
    port: int = 0
    secret: Optional[str] = None
    #: Per-client concurrent-chain quota at the front door
    #: (``None`` = unlimited).
    max_chains_per_client: Optional[int] = None
    heartbeat_s: float = 0.25
    #: Default drain grace: busy chains get this long to finish before
    #: being aborted into a client redial.
    drain_grace_s: float = 2.0
    #: Per-worker telemetry endpoints (port 0, reported in hello).
    telemetry: bool = False
    #: Directory for per-worker trace artifacts
    #: (``worker-<id>.trace.json``); also enables causal tracing with
    #: site prefix ``<trace_site>-w<index>``.
    trace_dir: Optional[str] = None
    trace_site: str = "fleet"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


class _WorkerRuntime:
    """Mutable state of one worker process (lives in the child)."""

    def __init__(self, spec: FleetSpec, worker_id: str, index: int) -> None:
        self.spec = spec
        self.worker_id = worker_id
        self.index = index
        self.state = WORKER_UP
        self.outer: Any = None
        self.sock: Optional[socket.socket] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.chains: "set[asyncio.Task]" = set()
        self.stop_event: Optional[asyncio.Event] = None
        self.draining = False

    # -- control-channel sends (blocking socket, tiny messages) ----------

    def send_msg(self, msg: "dict[str, Any]") -> None:
        if self.sock is None:
            return
        try:
            self.sock.sendall(
                json.dumps(msg, separators=(",", ":")).encode() + b"\n"
            )
        except OSError:
            pass

    def heartbeat_msg(self) -> "dict[str, Any]":
        stats = self.outer.stats
        return {
            "op": "hb",
            "worker": self.worker_id,
            "state": self.state,
            "bytes_relayed": stats.bytes_relayed,
            "active_chains": len(self.chains),
        }


def _ctl_reader_thread(
    rt: _WorkerRuntime,
    sock: socket.socket,
    loop: asyncio.AbstractEventLoop,
    dispatch,
) -> None:
    """Blocking control-channel reader.

    ``SCM_RIGHTS`` ancillary data never survives a plain asyncio
    stream read, so the worker drains its control socket with blocking
    :func:`socket.recv_fds` on a daemon thread and trampolines parsed
    messages (with their FIFO-paired fds) into the event loop.
    """
    buf = b""
    fd_queue: "deque[int]" = deque()
    while True:
        try:
            data, fds, _flags, _addr = socket.recv_fds(
                sock, _CTL_RECV, _CTL_MAXFDS
            )
        except OSError:
            break
        if not data:
            break
        fd_queue.extend(fds)
        buf += data
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            if not line:
                continue
            try:
                msg = json.loads(line)
            except ValueError:
                continue
            take = int(msg.get("fds", 0))
            msg_fds = [fd_queue.popleft() for _ in range(take)]
            loop.call_soon_threadsafe(dispatch, msg, msg_fds)
    # Close stray fds whose messages never parsed, then report EOF
    # (manager gone → worker shuts down).
    for fd in fd_queue:
        with contextlib.suppress(OSError):
            os.close(fd)
    loop.call_soon_threadsafe(dispatch, {"op": "stop", "reason": "ctl-eof"}, [])


async def _worker_async(
    spec: FleetSpec, worker_id: str, index: int, ctl_path: str
) -> None:
    from repro.core.aio.relay import AioOuterServer
    from repro.obs import spans as _obs
    from repro.obs import trace as _trace

    rt = _WorkerRuntime(spec, worker_id, index)
    rt.loop = asyncio.get_running_loop()
    rt.stop_event = asyncio.Event()

    rec = None
    if spec.trace_dir is not None:
        rec = _obs.ObsRecorder()
        _obs.install(rec)
        _trace.enable(f"{spec.trace_site}-w{index}")

    # Chains arrive as fds, so the worker's own listener is a private
    # loopback port (used only for debug / direct dials in tests).
    outer = AioOuterServer("127.0.0.1", 0, secret=spec.secret)
    rt.outer = outer
    if rec is not None:
        rec.registry.register_collector("relay", outer.stats.snapshot)
    await outer.start()

    telemetry = None
    if spec.telemetry:
        from repro.obs.telemetry import TelemetryServer

        if rec is not None:
            registry = rec.registry
        else:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            registry.register_collector("relay", outer.stats.snapshot)
        telemetry = TelemetryServer(
            registry.snapshot, host="127.0.0.1", port=0,
            extra={"role": "fleet-worker", "worker": worker_id},
        )
        await telemetry.start()

    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(ctl_path)
    rt.sock = sock

    async def serve_handoff(fd: int, msg: "dict[str, Any]") -> None:
        conn = socket.socket(fileno=fd)
        try:
            conn.setblocking(False)
            # Same reader limit the listener would have applied — the
            # default 64 KiB cap would quietly shrink every pump read.
            reader, writer = await asyncio.open_connection(
                sock=conn, limit=STREAM_LIMIT
            )
        except OSError:
            with contextlib.suppress(OSError):
                conn.close()
            return
        await outer._handle_control(reader, writer)

    def chain_done(task: asyncio.Task, client: str) -> None:
        rt.chains.discard(task)
        with contextlib.suppress(asyncio.CancelledError):
            task.exception()
        rt.send_msg({"op": "closed", "worker": worker_id, "client": client})

    async def drain(grace_s: Optional[float]) -> None:
        if rt.draining:
            return
        rt.draining = True
        rt.state = WORKER_DRAINING
        rt.send_msg(rt.heartbeat_msg())  # announce the state change now
        grace = spec.drain_grace_s if grace_s is None else grace_s
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        poll = min(0.1, max(grace / 10, 0.01))
        last_bytes = outer.stats.bytes_relayed
        while loop.time() < deadline:
            if not rt.chains:
                break
            await asyncio.sleep(poll)
            now_bytes = outer.stats.bytes_relayed
            if now_bytes == last_bytes:
                # Every remaining chain is idle: abort now, the
                # clients redial onto a healthy worker.
                break
            last_bytes = now_bytes
        for task in list(rt.chains):
            task.cancel()
        await outer.stop()  # aborts any sockets still mid-transfer
        rt.send_msg({"op": "drained", "worker": worker_id})
        rt.stop_event.set()

    def dispatch(msg: "dict[str, Any]", fds: "list[int]") -> None:
        op = msg.get("op")
        if op == "handoff":
            if not fds:
                return
            fd = fds[0]
            client = str(msg.get("client", ""))
            if rt.state != WORKER_UP:
                # Refused: close our copy; the client sees a reset and
                # redials through the logical endpoint.
                with contextlib.suppress(OSError):
                    os.close(fd)
                rt.send_msg(
                    {"op": "closed", "worker": worker_id, "client": client}
                )
                return
            task = rt.loop.create_task(serve_handoff(fd, msg))
            rt.chains.add(task)
            task.add_done_callback(lambda t: chain_done(t, client))
        elif op == "drain":
            rt.loop.create_task(drain(msg.get("grace_s")))
        elif op == "stop":
            rt.stop_event.set()

    reader_thread = threading.Thread(
        target=_ctl_reader_thread, args=(rt, sock, rt.loop, dispatch),
        daemon=True, name=f"fleet-ctl-{worker_id}",
    )
    reader_thread.start()

    rt.send_msg({
        "op": "hello",
        "worker": worker_id,
        "index": index,
        "pid": os.getpid(),
        "control_port": outer.control_port,
        "telemetry_port": (
            telemetry.bound_port if telemetry is not None else None
        ),
    })

    async def heartbeats() -> None:
        while not rt.stop_event.is_set():
            rt.send_msg(rt.heartbeat_msg())
            await asyncio.sleep(spec.heartbeat_s)

    hb_task = asyncio.get_running_loop().create_task(heartbeats())
    try:
        await rt.stop_event.wait()
    finally:
        hb_task.cancel()
        for task in list(rt.chains):
            task.cancel()
        if rt.chains:
            await asyncio.gather(*rt.chains, return_exceptions=True)
        if telemetry is not None:
            await telemetry.stop()
        await outer.stop()
        if rec is not None:
            from repro.obs.export import write_artifacts

            _obs.uninstall()
            base = os.path.join(spec.trace_dir, f"worker-{worker_id}")
            with contextlib.suppress(OSError):
                write_artifacts(
                    rec, base,
                    extra_meta={"role": "fleet-worker", "worker": worker_id},
                )
        with contextlib.suppress(OSError):
            sock.close()


def _worker_main(
    spec_dict: "dict[str, Any]", worker_id: str, index: int, ctl_path: str
) -> None:
    """Entry point of one fleet worker process (spawn target)."""
    logging.basicConfig(level=logging.WARNING)
    spec = FleetSpec(**spec_dict)
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_worker_async(spec, worker_id, index, ctl_path))


# ---------------------------------------------------------------------------
# Manager (parent process)
# ---------------------------------------------------------------------------


@dataclass
class _WorkerHandle:
    worker_id: str
    index: int
    proc: "multiprocessing.process.BaseProcess"
    view: WorkerView
    #: dup of the unix-connection socket used for sendmsg/SCM_RIGHTS
    #: (the asyncio transport owns the original; the manager never
    #: writes through the transport, so ordering cannot interleave).
    ctl_sock: Optional[socket.socket] = None
    control_port: Optional[int] = None
    telemetry_port: Optional[int] = None
    pid: Optional[int] = None
    drained: "asyncio.Event" = field(default_factory=asyncio.Event)


class FleetManager:
    """Spawns, fronts, supervises, and drains a relay-worker fleet.

    Usage::

        fleet = await FleetManager(FleetSpec(workers=4)).start()
        ...  # clients dial fleet.host:fleet.port as a normal outer server
        await fleet.drain("w0")       # graceful: migrate then exit
        await fleet.stop()
    """

    def __init__(self, spec: FleetSpec) -> None:
        self.spec = spec
        self.placer = LeastLoadedPlacer()
        self.admission = AdmissionControl(spec.max_chains_per_client)
        self.handles: "Dict[str, _WorkerHandle]" = {}
        self.port: int = spec.port
        self._ctl_dir: Optional[str] = None
        self._ctl_server: Optional[asyncio.AbstractServer] = None
        self._front_sock: Optional[socket.socket] = None
        self._accept_task: Optional[asyncio.Task] = None
        self._hello_events: "Dict[str, asyncio.Event]" = {}
        self._stopped = False

    @property
    def host(self) -> str:
        return self.spec.host

    @property
    def views(self) -> "Dict[str, WorkerView]":
        return {wid: h.view for wid, h in self.handles.items()}

    def worker_ids(self) -> "list[str]":
        return sorted(self.handles)

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> "FleetManager":
        spec = self.spec
        self._ctl_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        ctl_path = os.path.join(self._ctl_dir, "ctl.sock")
        self._ctl_server = await asyncio.start_unix_server(
            self._on_worker_channel, path=ctl_path
        )

        ctx = multiprocessing.get_context("spawn")
        spec_dict = asdict(spec)
        for index in range(spec.workers):
            wid = f"w{index}"
            view = WorkerView(wid)
            proc = ctx.Process(
                target=_worker_main,
                args=(spec_dict, wid, index, ctl_path),
                name=f"repro-fleet-{wid}",
                daemon=True,
            )
            self.handles[wid] = _WorkerHandle(wid, index, proc, view)
            self._hello_events[wid] = asyncio.Event()
            self.placer.add_worker(view)
            proc.start()

        try:
            await asyncio.wait_for(
                asyncio.gather(
                    *(ev.wait() for ev in self._hello_events.values())
                ),
                HELLO_TIMEOUT_S,
            )
        except asyncio.TimeoutError:
            missing = [
                wid for wid, ev in self._hello_events.items() if not ev.is_set()
            ]
            await self.stop()
            raise RuntimeError(
                f"fleet workers never reported in: {missing}"
            ) from None

        front = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        front.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        front.bind((spec.host, spec.port))
        front.listen(128)
        front.setblocking(False)
        self._front_sock = front
        self.port = front.getsockname()[1]
        self._accept_task = asyncio.get_running_loop().create_task(
            self._accept_loop()
        )
        log.info(
            "fleet up: %d workers, %s:%d", spec.workers, spec.host, self.port
        )
        return self

    async def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._accept_task is not None:
            self._accept_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._accept_task
        if self._front_sock is not None:
            with contextlib.suppress(OSError):
                self._front_sock.close()
        for handle in self.handles.values():
            if handle.view.state != WORKER_GONE:
                await self._ctl_send(handle, {"op": "stop"})
        await self._join_all(timeout=10.0)
        for handle in self.handles.values():
            if handle.ctl_sock is not None:
                with contextlib.suppress(OSError):
                    handle.ctl_sock.close()
        if self._ctl_server is not None:
            self._ctl_server.close()
            with contextlib.suppress(Exception):
                await self._ctl_server.wait_closed()
        if self._ctl_dir is not None:
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(self._ctl_dir, "ctl.sock"))
            with contextlib.suppress(OSError):
                os.rmdir(self._ctl_dir)

    async def _join_all(self, timeout: float) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        for handle in self.handles.values():
            while handle.proc.is_alive() and loop.time() < deadline:
                await asyncio.sleep(0.05)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join()
            # Releases the process's two parent-side pipe fds now, not
            # whenever the handle happens to be garbage-collected.
            handle.proc.close()
            handle.view.state = WORKER_GONE

    # -- drain ------------------------------------------------------------

    async def drain(
        self,
        worker_id: str,
        *,
        grace_s: Optional[float] = None,
    ) -> None:
        """Gracefully retire one worker: no new chains are placed on
        it, idle chains are aborted immediately, busy chains get the
        grace period before being aborted into client redials.
        Returns once the worker reported ``drained`` and exited."""
        handle = self.handles.get(worker_id)
        if handle is None:
            raise KeyError(f"no such worker {worker_id!r}")
        if handle.view.state == WORKER_GONE:
            return
        if handle.view.state != WORKER_DRAINING:
            handle.view.state = WORKER_DRAINING
            self.placer.stats.drains_started += 1
            await self._ctl_send(
                handle, {"op": "drain", "grace_s": grace_s}
            )
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(handle.drained.wait(), DRAIN_TIMEOUT_S)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 5.0
        while handle.proc.is_alive() and loop.time() < deadline:
            await asyncio.sleep(0.05)
        if handle.proc.is_alive():
            handle.proc.terminate()
        handle.view.state = WORKER_GONE
        self.placer.remove_worker(worker_id)

    # -- worker control channel ------------------------------------------

    async def _on_worker_channel(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handle: Optional[_WorkerHandle] = None
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    msg = json.loads(line)
                except ValueError:
                    continue
                op = msg.get("op")
                if op == "hello":
                    handle = self.handles.get(str(msg.get("worker")))
                    if handle is None:
                        break
                    handle.pid = msg.get("pid")
                    handle.control_port = msg.get("control_port")
                    handle.telemetry_port = msg.get("telemetry_port")
                    raw = writer.get_extra_info("socket")
                    handle.ctl_sock = socket.socket(
                        fileno=os.dup(raw.fileno())
                    )
                    self._hello_events[handle.worker_id].set()
                elif handle is None:
                    continue
                elif op == "hb":
                    if handle.view.state == WORKER_UP and (
                        msg.get("state") == WORKER_DRAINING
                    ):
                        handle.view.state = WORKER_DRAINING
                    handle.view.observe(
                        asyncio.get_running_loop().time(),
                        int(msg.get("bytes_relayed", 0)),
                        int(msg.get("active_chains", 0)),
                    )
                elif op == "closed":
                    client = str(msg.get("client", ""))
                    if client:
                        self.admission.release(client)
                elif op == "drained":
                    self.placer.stats.drains_completed += 1
                    handle.drained.set()
        except (ConnectionError, OSError):
            pass
        finally:
            if handle is not None and handle.view.state != WORKER_GONE:
                if not handle.proc.is_alive():
                    handle.view.state = WORKER_GONE
            with contextlib.suppress(Exception):
                writer.close()

    async def _ctl_send(
        self,
        handle: _WorkerHandle,
        msg: "dict[str, Any]",
        fds: "Optional[list[int]]" = None,
    ) -> None:
        """Send one control message (+ optional fds) to a worker.

        All manager→worker traffic goes through the raw dup'd socket —
        never the asyncio writer — so SCM_RIGHTS sends can't interleave
        with buffered transport writes.  The socket is non-blocking
        (shared flags with the transport fd); tiny messages make EAGAIN
        rare, and a short async retry absorbs it.
        """
        sock = handle.ctl_sock
        if sock is None:
            raise OSError("worker control channel not established")
        payload = memoryview(
            json.dumps(msg, separators=(",", ":")).encode() + b"\n"
        )
        attach = list(fds) if fds else []
        while payload.nbytes:
            try:
                if attach:
                    sent = socket.send_fds(sock, [payload], attach)
                    attach = []
                else:
                    sent = sock.send(payload)
            except (BlockingIOError, InterruptedError):
                await asyncio.sleep(0.005)
                continue
            payload = payload[sent:]

    # -- front door -------------------------------------------------------

    async def _accept_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                conn, addr = await loop.sock_accept(self._front_sock)
            except OSError:
                return  # front socket closed under us — shutdown
            loop.create_task(self._admit(conn, addr))

    async def _reject(self, conn: socket.socket, reason: str) -> None:
        loop = asyncio.get_running_loop()
        line = json.dumps(
            {"ok": False, "error": reason}, separators=(",", ":")
        ).encode() + b"\n"
        with contextlib.suppress(OSError):
            await loop.sock_sendall(conn, line)
        with contextlib.suppress(OSError):
            conn.close()

    async def _admit(
        self, conn: socket.socket, addr: "tuple[str, int]"
    ) -> None:
        """Admission + placement + FD handoff for one accepted
        connection.  The socket was never wrapped in a transport, so
        the request bytes are still intact in the kernel buffer when
        the fd reaches the worker."""
        client = addr[0]
        chain_key = f"{addr[0]}:{addr[1]}"
        stats = self.placer.stats
        if not self.admission.admit(client):
            stats.rejected_quota += 1
            await self._reject(conn, "per-client chain quota exceeded")
            return
        wid, _method = self.placer.place(
            chain_key, self.views, asyncio.get_running_loop().time()
        )
        if wid is None:
            self.admission.release(client)
            await self._reject(conn, "no healthy relay workers")
            return
        handle = self.handles[wid]
        msg = {"op": "handoff", "fds": 1, "client": client, "chain": chain_key}
        try:
            await self._ctl_send(handle, msg, fds=[conn.fileno()])
        except OSError:
            self.admission.release(client)
            handle.view.state = WORKER_GONE
            await self._reject(conn, "relay worker unavailable")
            return
        stats.handoffs += 1
        # Optimistic bump so back-to-back placements see the new chain
        # before the worker's next heartbeat lands.
        handle.view.active_chains += 1
        with contextlib.suppress(OSError):
            conn.close()

    # -- observability ----------------------------------------------------

    def snapshot(self) -> "dict[str, Any]":
        """Fleet-wide counters (see
        :func:`repro.core.placement.fleet_snapshot`)."""
        return fleet_snapshot(
            (h.view for h in self.handles.values()), self.placer.stats
        )
