"""The five live-plane workloads.

Each class drives the relay child (``sut_host.py``) through the
program's public API — ``AioProxyClient.connect()`` / ``.bind()`` /
``.send_striped()``, ``AioProxiedListener.accept()``, ``StripeSink`` —
from this process: one asyncio loop, plus two blocking-socket threads
for ``bulk_active``.  ``setup()`` opens the chains and runs the fixed
warm-up, ``measure(seconds, tracer)`` runs one measured phase and can
be called again on the same chains, ``teardown()`` closes everything.

All traffic crosses the host loopback: no figure here is a link rate.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import socket
import threading
import time
from typing import Any, Optional

from repro.core.aio import AioProxyClient
from repro.core.aio.streams import StripeSink

from harness import MIB, Child, Measured, Ramp, Tracer, Workload, pctl

HOST = "127.0.0.1"
#: No op may take longer than this; one that does is failed.
OP_TIMEOUT_S = 10.0
#: The op of the two bulk workloads: this much delivered and checked,
#: the size of one ``striped`` transfer.
BULK_OP = 16 * MIB
_OP_ERRORS = (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError)


class _Live(Workload):
    """What the five workloads share: the client handle and payload."""

    host_script = "sut_host.py"

    def __init__(self, child: Child, ports: "dict[str, int]", seed: int, quick: bool) -> None:
        super().__init__(child, ports, seed, quick)
        self.seed = seed
        self.ramp = Ramp(seed & 0xFF)
        self.client = AioProxyClient(
            outer_addr=(HOST, ports["control_port"]),
            inner_addr=(HOST, ports["nxport"]),
        )

    async def _bind(self):
        tr = self.tracer
        sid = tr.begin("core.aio.api.bind", "setup") if tr else 0
        listener = await self.client.bind()
        if tr:
            tr.end(sid)
        return listener

    async def _accept(self, listener):
        tr = self.tracer
        sid = tr.begin("core.aio.api.accept_wait", "setup") if tr else 0
        pair = await listener.accept(timeout=OP_TIMEOUT_S)
        if tr:
            tr.end(sid)
        return pair

    async def _layer(self, tracer: Optional[Tracer]) -> "dict[str, float]":
        """The layer metrics a traced run takes from its own traffic:
        the API spans, and both servers' ``AioRelayStats.snapshot()``
        (counts since the child started, warm-up included)."""
        if tracer is None:
            return {}
        stats = await asyncio.to_thread(self.child.ask, "stats", OP_TIMEOUT_S)
        outer, inner = stats["outer"], stats["inner"]

        def both(key: str) -> int:
            return outer[key] + inner[key]

        relayed = both("bytes_relayed")
        return {
            "core.aio.api.connect_us": tracer.median_us("core.aio.api.connect"),
            "core.aio.api.bind_us": tracer.median_us("core.aio.api.bind"),
            "core.aio.api.accept_wait_us": tracer.median_us("core.aio.api.accept_wait"),
            "core.aio.relay.bytes_per_chunk": relayed / max(1, both("chunks_relayed")),
            "core.aio.relay.chain_setup_p50_us": _hist_p50(outer["chain_setup_us_hist"]),
            "core.aio.relay.failed_requests": float(both("failed_requests")),
            "core.aio.mux.frames_per_mib": both("mux_frames") / max(1.0, relayed / MIB),
            "core.aio.mux.window_stalls": float(both("mux_window_stalls")),
            "core.aio.mux.bytes_per_flush": relayed / both("coalesced_flushes")
            if both("coalesced_flushes") else 0.0,
            "core.aio.mux.nxport_connections": float(inner["nxport_connections"]),
        }


def _hist_p50(hist: "dict[str, int]") -> float:
    """Upper bound of the log2 bucket holding the median sample."""
    buckets = sorted((int(bound[2:]), count) for bound, count in hist.items())
    half = sum(count for _, count in buckets) / 2
    seen = 0
    for bound, count in buckets:
        seen += count
        if seen >= half:
            return float(bound)
    return 0.0


async def _until(predicate, what: str) -> None:
    deadline = time.perf_counter() + OP_TIMEOUT_S
    while not predicate():
        if time.perf_counter() > deadline:
            raise TimeoutError(f"{what} not reached within {OP_TIMEOUT_S:.0f} s")
        await asyncio.sleep(0.001)


def _block_result(t0: float, first: int, t_recv: "list[float]",
                  attempted: int, bad_chunks: int) -> "tuple[list[float], int, float, int]":
    """Latency samples, delivered ops, window and failures of the ops
    ``first..`` of one chain.

    An op's latency is the time the sink took to receive its 16 MiB
    after the op before.  (The transit time of a block, send to
    arrival, is the depth of the socket buffers over the rate — it
    read 42 or 173 ms on ``bulk_passive`` from run to run with the
    rate unchanged — and single MiBs arrive in bursts.)"""
    delivered = len(t_recv) - first
    waits = [(t_recv[k] - t_recv[k - 1]) * 1e6 for k in range(max(first, 1), len(t_recv))]
    wall = (t_recv[-1] - t0) if delivered > 0 else 0.0
    return waits, delivered, wall, (attempted - delivered) + bad_chunks


# ---------------------------------------------------------------------------
# bulk_active
# ---------------------------------------------------------------------------


class _SinkThread(threading.Thread):
    """Blocking sink: ``recv_into`` one pre-touched buffer, check every
    chunk against the ramp, note when each op's last byte arrived."""

    def __init__(self, lsock: socket.socket, ramp: Ramp) -> None:
        super().__init__(daemon=True)
        self.lsock = lsock
        self.ramp = ramp
        self.buf = bytearray(b"\x01" * MIB)
        self.t_recv: "list[float]" = []
        self.bad_chunks = 0

    def run(self) -> None:
        conn, _ = self.lsock.accept()
        view = memoryview(self.buf)
        pos, boundary = 0, BULK_OP
        with conn:
            while True:
                n = conn.recv_into(view)
                if n == 0:
                    return
                if not self.ramp.matches(view[:n], pos):
                    self.bad_chunks += 1
                pos += n
                while pos >= boundary:
                    self.t_recv.append(time.perf_counter())
                    boundary += BULK_OP


class BulkActive(_Live):
    """Closed loop, 1 chain: Fig. 3 active open through the outer
    server, 1 MiB ``sendall``s from a sender thread to a sink thread.
    Op = 16 MiB delivered and checked; latency = the sink's wait for it."""

    name = "bulk_active"
    WARM_OPS = 4

    async def setup(self) -> None:
        self.block = self.ramp.take(0, MIB)
        self.lsock = socket.socket()
        self.lsock.bind((HOST, 0))
        self.lsock.listen(1)
        self.sink = _SinkThread(self.lsock, self.ramp)
        self.sink.start()
        tr = self.tracer
        sid = tr.begin("core.aio.api.connect", "setup") if tr else 0
        _reader, writer = await self.client.connect(HOST, self.lsock.getsockname()[1])
        if tr:
            tr.end(sid)
        # The sender thread wants a blocking socket: keep the relayed
        # connection, drop asyncio's hold on it.
        self.sock = socket.socket(fileno=os.dup(writer.get_extra_info("socket").fileno()))
        writer.transport.close()
        self.sock.setblocking(True)
        self.sent = 0
        await asyncio.to_thread(self._send, self.WARM_OPS, None)
        await _until(lambda: len(self.sink.t_recv) >= self.sent, "warm-up delivery")

    def _send(self, ops: Optional[int], seconds: Optional[float]) -> None:
        deadline = None if seconds is None else time.perf_counter() + seconds
        last = None if ops is None else self.sent + ops
        while self.sent != last and (deadline is None or time.perf_counter() < deadline):
            for _ in range(BULK_OP // MIB):
                self.sock.sendall(self.block)
            self.sent += 1

    async def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measured:
        first = self.sent
        t0 = time.perf_counter()
        sid = tracer.begin("bulk_active.stream", first) if tracer else 0
        send_error = None
        try:
            await asyncio.to_thread(self._send, None, seconds)
        except OSError as exc:
            send_error = f"sendall: {exc}"
        with contextlib.suppress(TimeoutError):
            await _until(lambda: len(self.sink.t_recv) >= self.sent, "delivery")
        if tracer:
            tracer.end(sid)
        waits, delivered, wall, failed = _block_result(
            t0, first, self.sink.t_recv, self.sent - first, self.sink.bad_chunks)
        errors = [send_error] if send_error else []
        if self.sink.bad_chunks:
            errors.append(f"{self.sink.bad_chunks} chunks differ from the ramp")
        return Measured(waits, delivered, wall, self.sent - first, failed,
                        errors, await self._layer(tracer))

    async def teardown(self) -> None:
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_WR)
        self.sock.close()
        await asyncio.to_thread(self.sink.join, OP_TIMEOUT_S)
        self.lsock.close()


# ---------------------------------------------------------------------------
# bulk_passive
# ---------------------------------------------------------------------------


class _PassiveChain:
    """One peer → published port → outer → mux link → inner → listener."""

    def __init__(self, writer: asyncio.StreamWriter, sink_reader: asyncio.StreamReader,
                 sink_writer: asyncio.StreamWriter, ramp: Ramp) -> None:
        self.writer = writer
        self.sink_reader = sink_reader
        self.sink_writer = sink_writer
        self.ramp = ramp
        self.block = ramp.take(0, MIB)
        self.sent = 0
        self.t_recv: "list[float]" = []
        self.bad_chunks = 0
        self.sink_task = asyncio.ensure_future(self._sink())

    async def _sink(self) -> None:
        pos, boundary = 0, BULK_OP
        while True:
            data = await self.sink_reader.read(MIB)
            if not data:
                return
            if not self.ramp.matches(data, pos):
                self.bad_chunks += 1
            pos += len(data)
            while pos >= boundary:
                self.t_recv.append(time.perf_counter())
                boundary += BULK_OP

    async def send(self, ops: Optional[int], seconds: Optional[float]) -> None:
        deadline = None if seconds is None else time.perf_counter() + seconds
        last = None if ops is None else self.sent + ops
        while self.sent != last and (deadline is None or time.perf_counter() < deadline):
            for _ in range(BULK_OP // MIB):
                self.writer.write(self.block)
                await self.writer.drain()
            self.sent += 1

    def delivered(self) -> bool:
        return len(self.t_recv) >= self.sent

    async def close(self) -> None:
        self.writer.close()
        with contextlib.suppress(asyncio.TimeoutError, OSError):
            await asyncio.wait_for(self.sink_task, OP_TIMEOUT_S)
        self.sink_writer.close()


class BulkPassive(_Live):
    """Closed loop, 2 concurrent chains through one ``bind()``: the
    NXMUX/1 link between outer and inner carries both.  Op = 16 MiB
    delivered and checked at the listener."""

    name = "bulk_passive"
    CHAINS = 2
    WARM_OPS = 1

    async def setup(self) -> None:
        self.listener = await self._bind()
        self.chains: "list[_PassiveChain]" = []
        for i in range(self.CHAINS):
            _reader, writer = await asyncio.open_connection(*self.listener.proxy_addr)
            sink_reader, sink_writer = await self._accept(self.listener)
            ramp = self.ramp if i == 0 else Ramp((self.seed + 97 * i) & 0xFF)
            self.chains.append(_PassiveChain(writer, sink_reader, sink_writer, ramp))
        await asyncio.gather(*(c.send(self.WARM_OPS, None) for c in self.chains))
        await _until(lambda: all(c.delivered() for c in self.chains), "warm-up delivery")

    async def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measured:
        firsts = [c.sent for c in self.chains]
        t0 = time.perf_counter()
        sids = [tracer.begin("bulk_passive.stream", i) for i in range(self.CHAINS)] if tracer else []
        errors: "list[str]" = []
        results = await asyncio.gather(
            *(c.send(None, seconds) for c in self.chains), return_exceptions=True
        )
        errors += [f"send: {r}" for r in results if isinstance(r, BaseException)]
        with contextlib.suppress(TimeoutError):
            await _until(lambda: all(c.delivered() for c in self.chains), "delivery")
        for sid in sids:
            tracer.end(sid)
        op_us: "list[float]" = []
        delivered = attempted = failed = 0
        wall = 0.0
        for chain, first in zip(self.chains, firsts):
            waits, n, w, f = _block_result(
                t0, first, chain.t_recv, chain.sent - first, chain.bad_chunks)
            op_us += waits
            delivered += n
            attempted += chain.sent - first
            failed += f
            wall = max(wall, w)
            if chain.bad_chunks:
                errors.append(f"{chain.bad_chunks} chunks differ from the ramp")
        return Measured(op_us, delivered, wall, attempted, failed, errors, await self._layer(tracer))

    async def teardown(self) -> None:
        for chain in self.chains:
            await chain.close()
        await self.listener.close()


# ---------------------------------------------------------------------------
# pingpong
# ---------------------------------------------------------------------------


async def _echo_forever(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    with contextlib.suppress(ConnectionError):
        while data := await reader.read(4096):
            writer.write(data)
    writer.close()


class PingPong(_Live):
    """Closed loop, 1 client: 64-byte echo over one passive chain (two
    relay hops and the mux link, used per message instead of per
    byte).  Op = one round trip."""

    name = "pingpong"
    MSG = 64
    WARM_TRIPS = 500

    async def setup(self) -> None:
        self.listener = await self._bind()
        self.reader, self.writer = await asyncio.open_connection(*self.listener.proxy_addr)
        echo_reader, echo_writer = await self._accept(self.listener)
        self.echo_task = asyncio.ensure_future(_echo_forever(echo_reader, echo_writer))
        self.pos = 0
        for _ in range(self.WARM_TRIPS):
            await self._trip()

    async def _trip(self) -> bool:
        msg = self.ramp.take(self.pos, self.MSG)
        self.pos += self.MSG
        self.writer.write(msg)
        return await self.reader.readexactly(self.MSG) == msg

    async def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measured:
        samples: "list[float]" = []
        attempted = mismatched = 0
        errors: "list[str]" = []
        start = time.perf_counter()
        deadline = start + seconds
        now = start
        while now < deadline:
            attempted += 1
            sid = tracer.begin("pingpong.round_trip", attempted) if tracer else 0
            try:
                ok = await asyncio.wait_for(self._trip(), OP_TIMEOUT_S)
            except _OP_ERRORS as exc:
                errors.append(f"round trip {attempted}: {exc!r}")
                break
            done = time.perf_counter()
            if tracer:
                tracer.end(sid)
            if ok:
                samples.append((done - now) * 1e6)
            else:
                mismatched += 1
            now = done
        if mismatched:
            errors.append(f"{mismatched} echoes differ from what was sent")
        return Measured(samples, len(samples), now - start, attempted,
                        attempted - len(samples), errors, await self._layer(tracer))

    async def teardown(self) -> None:
        self.writer.close()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self.echo_task, OP_TIMEOUT_S)
        await self.listener.close()


# ---------------------------------------------------------------------------
# chain_churn
# ---------------------------------------------------------------------------


class ChainChurn(_Live):
    """Chain establishment under queueing.  Op = dial the published
    port, send 64 B, read the echo, close.

    Phase A (three quarters of the time) is an open loop: seeded
    Poisson arrivals at ``RATE`` opens/s, each op timed from the
    instant it was due, so a stall charges the ops queued behind it.
    Phase B is a closed loop of ``CLIENTS`` clients opening back to
    back, which gives the saturation rate."""

    name = "chain_churn"
    MSG = 64
    RATE = 300.0
    CLIENTS = 2
    WARM_OPS = 50
    #: Sleep until this long before an op is due, then yield-spin:
    #: ``asyncio.sleep`` alone wakes up to a millisecond late.
    SPIN_S = 0.002
    #: The generator may run this late at the median.  Later than that
    #: it is starved, not stalled once (a stall shows in
    #: ``bench.gen_late_p99_us``), and the load is not the one named.
    LATE_LIMIT_US = 1000.0

    async def setup(self) -> None:
        self.listener = await self._bind()
        self.addr = self.listener.proxy_addr
        self.rng = random.Random(self.seed)
        self.serving: "set[asyncio.Task]" = set()
        self.acceptor = asyncio.ensure_future(self._accept_loop())
        self.next_op = 0
        for _ in range(self.WARM_OPS):
            await self._op(None)

    async def _accept_loop(self) -> None:
        while True:
            # No deadline and no span: between ops there is nothing to
            # accept, and an idle wait is not a cost of the layer.
            reader, writer = await self.listener.accept()
            task = asyncio.ensure_future(self._serve(reader, writer))
            self.serving.add(task)
            task.add_done_callback(self.serving.discard)

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        with contextlib.suppress(ConnectionError, asyncio.IncompleteReadError):
            writer.write(await reader.readexactly(self.MSG))
            await reader.read()
        writer.close()

    async def _op(self, tracer: Optional[Tracer]) -> "tuple[bool, float]":
        """One open-echo-close; returns (echo matched, echo instant)."""
        k = self.next_op
        self.next_op += 1
        msg = self.ramp.take(k * self.MSG, self.MSG)
        root = tracer.begin("chain_churn.open_echo_close", k) if tracer else 0
        sid = tracer.begin("chain_churn.dial", k, root) if tracer else 0
        reader, writer = await asyncio.open_connection(*self.addr)
        if tracer:
            tracer.end(sid)
            sid = tracer.begin("chain_churn.chain_echo", k, root)
        try:
            writer.write(msg)
            ok = await reader.readexactly(self.MSG) == msg
            done = time.perf_counter()
        finally:
            writer.close()
            if tracer:
                tracer.end(sid)
                tracer.end(root)
        return ok, done

    async def _timed(self, due: float, tracer: Optional[Tracer],
                     samples: "list[float]", errors: "list[str]") -> None:
        try:
            ok, done = await asyncio.wait_for(self._op(tracer), OP_TIMEOUT_S)
        except _OP_ERRORS as exc:
            errors.append(f"open: {exc!r}")
            return
        if ok:
            samples.append((done - due) * 1e6)
        else:
            errors.append("echo differs from what was sent")

    async def _open_loop(self, seconds: float, tracer, samples, late, errors) -> int:
        tasks = []
        start = time.perf_counter()
        due = start
        while True:
            due += self.rng.expovariate(self.RATE)
            if due - start >= seconds:
                break
            while (left := due - time.perf_counter()) > 0:
                await asyncio.sleep(left - self.SPIN_S if left > self.SPIN_S else 0)
            late.append((time.perf_counter() - due) * 1e6)
            tasks.append(asyncio.ensure_future(self._timed(due, tracer, samples, errors)))
        await asyncio.gather(*tasks)
        return len(tasks)

    async def _closed_loop(self, seconds: float, tracer, errors) -> "tuple[int, int, float]":
        samples: "list[float]" = []
        attempted = 0
        start = time.perf_counter()

        async def client() -> None:
            nonlocal attempted
            while (now := time.perf_counter()) - start < seconds:
                attempted += 1
                await self._timed(now, tracer, samples, errors)

        await asyncio.gather(*(client() for _ in range(self.CLIENTS)))
        return attempted, len(samples), time.perf_counter() - start

    async def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measured:
        samples: "list[float]" = []
        late: "list[float]" = []
        errors: "list[str]" = []
        open_attempted = await self._open_loop(0.75 * seconds, tracer, samples, late, errors)
        closed_attempted, closed_done, closed_wall = await self._closed_loop(
            0.25 * seconds, tracer, errors
        )
        attempted = open_attempted + closed_attempted
        layer = await self._layer(tracer)
        samples.sort()
        late.sort()
        if samples:
            layer["core.aio.api.open_p99_us"] = pctl(samples, 0.99)
        if late:
            layer["bench.gen_late_p99_us"] = pctl(late, 0.99)
            if pctl(late, 0.5) > self.LATE_LIMIT_US:
                errors.append(f"load generator ran {pctl(late, 0.5):.0f} us late at the median")
        return Measured(samples, closed_done, closed_wall, attempted,
                        attempted - len(samples) - closed_done, errors, layer)

    async def teardown(self) -> None:
        self.acceptor.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self.acceptor
        if self.serving:
            await asyncio.wait(set(self.serving), timeout=OP_TIMEOUT_S)
        await self.listener.close()


# ---------------------------------------------------------------------------
# striped
# ---------------------------------------------------------------------------


class _SpanningClient(AioProxyClient):
    """Times each ``connect()`` that ``send_striped()`` makes, from
    outside: a span under the transfer that is in flight."""

    tracer: Optional[Tracer] = None
    parent: Optional[int] = None
    trace_id: "int | str" = "setup"

    async def connect(self, host: str, port: int, tctx: Any = None):
        tr = self.tracer
        if tr is None:
            return await super().connect(host, port, tctx)
        sid = tr.begin("core.aio.api.connect", self.trace_id, self.parent)
        try:
            return await super().connect(host, port, tctx)
        finally:
            tr.end(sid)


class Striped(_Live):
    """Closed loop: sequential ``send_striped`` transfers of 16 MiB
    over 2 streams, each stream an active relay chain, into one
    long-lived ``StripeSink``.  Op = one transfer, dial to
    sink-complete; the striping layer runs in this process."""

    name = "striped"
    STREAMS = 2
    WARM_TRANSFERS = 2

    def __init__(self, child: Child, ports: "dict[str, int]", seed: int, quick: bool) -> None:
        super().__init__(child, ports, seed, quick)
        self.client = _SpanningClient(outer_addr=self.client.outer_addr)
        self.nbytes = (2 if quick else 16) * MIB

    async def setup(self) -> None:
        self.payload = (self.ramp.take(0, MIB) * (self.nbytes // MIB))
        inbound: "asyncio.Queue[tuple]" = asyncio.Queue()

        async def on_stream(reader, writer) -> None:
            await inbound.put((reader, writer))

        self.server = await asyncio.start_server(on_stream, HOST, 0, limit=MIB)
        self.port = self.server.sockets[0].getsockname()[1]
        self.sink = StripeSink(inbound.get)
        self.transfers = 0
        self.reports = {"marks_sent": 0, "requeued_blocks": 0,
                        "duplicate_blocks": 0, "reconnects": 0}
        for _ in range(self.WARM_TRANSFERS):
            if not await self._transfer(None):
                raise RuntimeError("striped warm-up transfer came back different")

    async def _transfer(self, tracer: Optional[Tracer]) -> bool:
        self.transfers += 1
        root = tracer.begin("striped.transfer", self.transfers) if tracer else 0
        self.client.tracer, self.client.parent = tracer, root or None
        self.client.trace_id = self.transfers
        send_sid = tracer.begin("core.aio.streams.send_striped", self.transfers, root) if tracer else 0
        recv_sid = tracer.begin("core.aio.streams.StripeSink.recv", self.transfers, root) if tracer else 0
        sending = asyncio.ensure_future(self.client.send_striped(
            HOST, self.port, self.payload, streams=self.STREAMS))
        sending.add_done_callback(lambda _: tracer.end(send_sid) if tracer else None)
        try:
            data, received = await self.sink.recv()
            if tracer:
                tracer.end(recv_sid)
            sent = await sending
        finally:
            sending.cancel()
            if tracer:
                tracer.end(root)
        self.reports["marks_sent"] += received["marks_sent"]
        self.reports["duplicate_blocks"] += received["duplicate_blocks"]
        self.reports["requeued_blocks"] += sent["requeued_blocks"]
        self.reports["reconnects"] += sent["reconnects"]
        return data == self.payload

    async def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measured:
        samples: "list[float]" = []
        attempted = 0
        errors: "list[str]" = []
        start = time.perf_counter()
        now = start
        while now - start < seconds:
            attempted += 1
            try:
                ok = await asyncio.wait_for(self._transfer(tracer), OP_TIMEOUT_S)
            except _OP_ERRORS as exc:
                errors.append(f"transfer {attempted}: {exc!r}")
                break
            done = time.perf_counter()
            if ok:
                samples.append((done - now) * 1e6)
            else:
                errors.append(f"transfer {attempted}: data != payload")
            now = time.perf_counter()
        for key in ("requeued_blocks", "duplicate_blocks", "reconnects"):
            if self.reports[key]:
                errors.append(f"{key} = {self.reports[key]}, must be 0 on loopback")
        layer = await self._layer(tracer)
        layer.update({f"core.aio.streams.{k}": float(v) for k, v in self.reports.items()})
        return Measured(samples, len(samples), now - start, attempted,
                        attempted - len(samples), errors, layer)

    async def teardown(self) -> None:
        await self.sink.close()
        self.server.close()
        await self.server.wait_closed()


WORKLOADS = {cls.name: cls for cls in (BulkActive, BulkPassive, PingPong, ChainChurn, Striped)}
