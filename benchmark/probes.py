"""Layer probes: each times calls into one layer's public functions,
with the workloads' own message sizes, from outside the program.

``await run_all(quick, child_cpu)`` returns ``{layer metric: value}``.
The live probes run on one event loop in this process, with the layer
under test and its loopback endpoints side by side (no relay servers);
the two relay open probes and the fleet probe use a fresh
``sut_host.py`` child, pinned where the workloads' child is.
The sim probes build bare simulators.  None of these numbers is an
end-to-end figure: they say which layer moved when one of those does.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from typing import Any, Awaitable, Callable, Optional

from repro.core.aio import AioProxyClient, AioRelayStats, MuxConnector, SegmentBatcher
from repro.core.aio.mux import MUX_MAGIC, serve_mux_session
from repro.core.aio.protocol import parse_control_line
from repro.core.aio.pump import STREAM_LIMIT, pump, relay_sockets_zero_copy
from repro.core.aio.streams import StripeSink, send_striped
from repro.core.placement import AdmissionControl, LeastLoadedPlacer, WorkerView

from harness import MIB, Child, pctl

HOST = "127.0.0.1"
MSG = 64


def _median_us(samples: "list[float]") -> float:
    return pctl(sorted(samples), 0.5) * 1e6


# ---------------------------------------------------------------------------
# loopback plumbing
# ---------------------------------------------------------------------------


class _Loopback:
    """A listening socket whose accepted stream pairs can be awaited."""

    async def start(self) -> "_Loopback":
        self.accepted: "asyncio.Queue[Any]" = asyncio.Queue()

        async def on_conn(reader, writer) -> None:
            await self.accepted.put((reader, writer))

        self.server = await asyncio.start_server(on_conn, HOST, 0, limit=STREAM_LIMIT)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def pair(self) -> "tuple[Any, Any]":
        """A fresh connection: (dialling side, accepted side)."""
        dialled = await asyncio.open_connection(HOST, self.port, limit=STREAM_LIMIT)
        return dialled, await self.accepted.get()

    async def close(self) -> None:
        self.server.close()
        await self.server.wait_closed()


async def _drain_to_eof(reader: asyncio.StreamReader) -> int:
    total = 0
    while data := await reader.read(MIB):
        total += len(data)
    return total


async def _echo(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    with contextlib.suppress(ConnectionError):
        while data := await reader.read(4096):
            writer.write(data)
    writer.close()


async def _bulk_mb_s(writer: asyncio.StreamWriter, sink: asyncio.StreamReader, mib: int) -> float:
    """MiB/s of ``mib`` 1 MiB writes into ``writer`` arriving at ``sink``."""
    block = bytes(MIB)
    sinking = asyncio.ensure_future(_drain_to_eof(sink))
    t0 = time.perf_counter()
    for _ in range(mib):
        writer.write(block)
        await writer.drain()
    writer.close()
    got = await sinking
    elapsed = time.perf_counter() - t0
    if got != mib * MIB:
        raise RuntimeError(f"probe sink got {got} of {mib * MIB} bytes")
    return mib / elapsed


async def _echo_us(reader: asyncio.StreamReader, writer: asyncio.StreamWriter, trips: int) -> float:
    """Median µs of ``trips`` 64-byte round trips."""
    msg = bytes(range(MSG))
    samples = []
    for i in range(trips + trips // 10):
        t0 = time.perf_counter()
        writer.write(msg)
        if await reader.readexactly(MSG) != msg:
            raise RuntimeError("probe echo came back different")
        if i >= trips // 10:  # the first tenth warms the path up
            samples.append(time.perf_counter() - t0)
    return _median_us(samples)


# ---------------------------------------------------------------------------
# core.aio.protocol, core.placement
# ---------------------------------------------------------------------------


def protocol(n: int) -> "dict[str, float]":
    lines = [
        json.dumps(msg).encode() + b"\n"
        for msg in (
            {"op": "connect", "host": HOST, "port": 40123},
            {"op": "bind", "client_host": HOST, "client_port": 40124,
             "inner_host": HOST, "inner_port": 7100},
            {"ok": True, "proxy_host": HOST, "proxy_port": 40125},
        )
    ]
    t0 = time.perf_counter()
    for _ in range(n):
        for line in lines:
            parse_control_line(line)
    return {"core.aio.protocol.parse_ns": (time.perf_counter() - t0) / (n * len(lines)) * 1e9}


def placement(n: int) -> "dict[str, float]":
    placer = LeastLoadedPlacer()
    workers = {}
    for i in range(4):
        view = WorkerView(f"w{i}")
        # Two heartbeats with different rates: the least-loaded branch.
        view.observe(0.0, 0, i)
        view.observe(1.0, (i + 1) * MIB, i)
        workers[view.worker_id] = view
        placer.add_worker(view)
    t0 = time.perf_counter()
    for i in range(n):
        placer.place(f"chain-{i}", workers, 1.5)
    place_ns = (time.perf_counter() - t0) / n * 1e9
    admission = AdmissionControl(max_chains_per_client=8)
    t0 = time.perf_counter()
    for _ in range(n):
        admission.admit(HOST)
        admission.release(HOST)
    return {"core.placement.place_ns": place_ns,
            "core.placement.admit_ns": (time.perf_counter() - t0) / n * 1e9}


# ---------------------------------------------------------------------------
# core.aio.pump
# ---------------------------------------------------------------------------


async def pump_probes(mib: int, trips: int) -> "dict[str, float]":
    loop = await _Loopback().start()
    out = {}
    try:
        # Source → (a | relay | b) → sink, 1 MiB writes.
        (src_r, src_w), (a_r, a_w) = await loop.pair()
        (b_r, b_w), (sink_r, sink_w) = await loop.pair()
        relay = asyncio.ensure_future(relay_sockets_zero_copy(a_r, a_w, b_r, b_w))
        out["core.aio.pump.zero_copy_mb_s"] = await _bulk_mb_s(src_w, sink_r, mib)
        sink_w.close()
        if await relay is None:
            raise RuntimeError("relay_sockets_zero_copy fell back to the stream pump")

        (src_r, src_w), (a_r, a_w) = await loop.pair()
        (b_r, b_w), (far_r, far_w) = await loop.pair()
        relay = asyncio.ensure_future(relay_sockets_zero_copy(a_r, a_w, b_r, b_w))
        echo = asyncio.ensure_future(_echo(far_r, far_w))
        out["core.aio.pump.zero_copy_msg_us"] = await _echo_us(src_r, src_w, trips)
        src_w.close()
        await asyncio.gather(relay, echo)

        (src_r, src_w), (a_r, a_w) = await loop.pair()
        (b_r, b_w), (sink_r, sink_w) = await loop.pair()
        relay = asyncio.ensure_future(pump(a_r, b_w))
        out["core.aio.pump.stream_mb_s"] = await _bulk_mb_s(src_w, sink_r, mib)
        await relay
        for w in (a_w, b_w, sink_w):
            w.close()

        # SegmentBatcher: 16 segments of 64 B per flush, as a burst of
        # small mux frames is.
        (w_r, w_w), (far_r, far_w) = await loop.pair()
        sinking = asyncio.ensure_future(_drain_to_eof(far_r))
        batcher = SegmentBatcher(w_w)
        segment, per_flush, flushes = bytes(MSG), 16, trips
        t0 = time.perf_counter()
        for _ in range(flushes):
            for _ in range(per_flush):
                batcher.add(segment)
            batcher.flush()
            await w_w.drain()
        out["core.aio.pump.batcher_ns_per_segment"] = (
            (time.perf_counter() - t0) / (flushes * per_flush) * 1e9
        )
        w_w.close()
        if await sinking != flushes * per_flush * MSG:
            raise RuntimeError("batcher probe lost bytes")
        far_w.close()
    finally:
        await loop.close()
    return out


# ---------------------------------------------------------------------------
# core.aio.mux
# ---------------------------------------------------------------------------


async def mux_probes(mib: int, trips: int, opens: int) -> "dict[str, float]":
    """``MuxConnector`` against ``serve_mux_session()`` on a bare
    loopback link, each with a plain ``AioRelayStats``."""
    sessions: "set[asyncio.Task]" = set()

    async def inner_side(reader, writer) -> None:
        sessions.add(asyncio.current_task())
        if await reader.readexactly(len(MUX_MAGIC)) != MUX_MAGIC:
            raise RuntimeError("mux probe: no magic on the link")
        await serve_mux_session(reader, writer, AioRelayStats())
        writer.close()

    link = await asyncio.start_server(inner_side, HOST, 0, limit=STREAM_LIMIT)
    connector = MuxConnector(HOST, link.sockets[0].getsockname()[1], AioRelayStats())
    target = await _Loopback().start()
    front = await _Loopback().start()
    out = {}
    try:
        async def chain_to_target() -> "tuple[Any, Any, asyncio.Task]":
            """peer → front → relay_chain → mux link → target."""
            (peer_r, peer_w), (front_r, front_w) = await front.pair()
            relaying = asyncio.ensure_future(
                connector.relay_chain(HOST, target.port, front_r, front_w))
            far_r, far_w = await target.accepted.get()
            return (peer_r, peer_w), (far_r, far_w), relaying

        samples = []
        for _ in range(opens):
            t0 = time.perf_counter()
            chain, session = await connector.open_chain(HOST, target.port)
            samples.append(time.perf_counter() - t0)
            # What relay_chain() does when a chain ends.
            if session.chains.pop(chain.chain_id, None) is not None:
                chain.send_rst()
            _far_r, far_w = await target.accepted.get()
            far_w.close()
        out["core.aio.mux.open_chain_us"] = _median_us(samples)

        (peer_r, peer_w), (far_r, far_w), relaying = await chain_to_target()
        out["core.aio.mux.chain_mb_s"] = await _bulk_mb_s(peer_w, far_r, mib)
        far_w.close()
        await relaying

        (peer_r, peer_w), (far_r, far_w), relaying = await chain_to_target()
        echo = asyncio.ensure_future(_echo(far_r, far_w))
        out["core.aio.mux.msg_us"] = await _echo_us(peer_r, peer_w, trips)
        peer_w.close()
        await asyncio.gather(relaying, echo)
    finally:
        await connector.stop()
        link.close()
        await link.wait_closed()
        if sessions:
            await asyncio.wait(sessions, timeout=5)
        await target.close()
        await front.close()
    return out


# ---------------------------------------------------------------------------
# core.aio.streams
# ---------------------------------------------------------------------------


async def streams_probe(transfers: int, mib: int) -> "dict[str, float]":
    """``send_striped()`` into a ``StripeSink`` over direct loopback
    connections: the striping layer with no relay under it."""
    loop = await _Loopback().start()
    sink = StripeSink(loop.accepted.get)
    payload = bytes(range(256)) * (mib * MIB // 256)

    async def dial():
        return await asyncio.open_connection(HOST, loop.port, limit=STREAM_LIMIT)

    try:
        t0 = time.perf_counter()
        for i in range(transfers + 1):
            if i == 1:
                t0 = time.perf_counter()  # the first transfer warms up
            sending = asyncio.ensure_future(send_striped(dial, payload, streams=2))
            data, _report = await sink.recv()
            await sending
            if data != payload:
                raise RuntimeError("striped probe: data != payload")
        elapsed = time.perf_counter() - t0
    finally:
        await sink.close()
        await loop.close()
    return {"core.aio.streams.direct_mb_s": transfers * mib / elapsed}


# ---------------------------------------------------------------------------
# core.aio.relay, core.aio.fleet: opens with no payload
# ---------------------------------------------------------------------------


async def _sequential_opens(opens: int, op: "Callable[[], Awaitable[None]]") -> float:
    samples = []
    for i in range(opens + opens // 10):
        t0 = time.perf_counter()
        await op()
        if i >= opens // 10:
            samples.append(time.perf_counter() - t0)
    return _median_us(samples)


async def _active_open_us(control_port: int, opens: int) -> float:
    target = await _Loopback().start()
    client = AioProxyClient(outer_addr=(HOST, control_port))

    async def op() -> None:
        _reader, writer = await client.connect(HOST, target.port)
        _far_r, far_w = await target.accepted.get()
        writer.close()
        far_w.close()

    try:
        return await _sequential_opens(opens, op)
    finally:
        await target.close()


async def relay_open_probes(opens: int, child_cpu: Optional[int]) -> "dict[str, float]":
    child = Child("sut_host.py", cpu=child_cpu)
    try:
        ports = child.read(30)
        out = {"core.aio.relay.active_open_us": await _active_open_us(ports["control_port"], opens)}
        client = AioProxyClient(outer_addr=(HOST, ports["control_port"]),
                                inner_addr=(HOST, ports["nxport"]))
        listener = await client.bind()

        async def passive() -> None:
            _reader, writer = await asyncio.open_connection(*listener.proxy_addr)
            _far_r, far_w = await listener.accept(timeout=10)
            writer.close()
            far_w.close()

        try:
            out["core.aio.relay.passive_open_us"] = await _sequential_opens(opens, passive)
        finally:
            await listener.close()
        return out
    finally:
        child.close()


async def fleet_probe(opens: int, child_cpu: Optional[int]) -> "dict[str, float]":
    child = Child("sut_host.py", ("--fleet",), cpu=child_cpu)
    try:
        ports = child.read(90)
        return {"core.aio.fleet.handoff_open_us":
                await _active_open_us(ports["control_port"], opens)}
    finally:
        child.close()


# ---------------------------------------------------------------------------
# the sim plane
# ---------------------------------------------------------------------------


def kernel_probe(procs: int, timeouts: int) -> "dict[str, float]":
    from repro.simnet.kernel import Simulator

    sim = Simulator()

    def proc(delay: float):
        for _ in range(timeouts):
            yield sim.timeout(delay)

    for i in range(procs):
        sim.process(proc(1.0 + i / procs))
    t0 = time.perf_counter()
    sim.run()
    return {"simnet.kernel.us_per_event": (time.perf_counter() - t0) / sim.events_scheduled * 1e6}


def _sim_echo(tb_or_net, client_gen, echo_gen, trips: int, nbytes: int) -> "tuple[float, int]":
    """Host µs and kernel events per echo round trip of ``nbytes``."""
    sim = tb_or_net.sim
    out = {}

    def client():
        framed = yield from client_gen()
        yield framed.send(b"w", nbytes=16)
        yield from framed.recv()
        events0, t0 = sim.events_scheduled, time.perf_counter()
        for _ in range(trips):
            yield framed.send(b"p", nbytes=nbytes)
            yield from framed.recv()
        out["us"] = (time.perf_counter() - t0) / trips * 1e6
        out["events"] = (sim.events_scheduled - events0) // trips
        framed.close()

    sim.process(echo_gen(), name="probe:echo")
    sim.run(until=sim.process(client(), name="probe:client"))
    return out["us"], out["events"]


def sim_socket_probes(trips: int, mib_trips: int) -> "dict[str, float]":
    """Bare sockets, ``FramedConnection`` direct, and the same echo
    through the sim outer + inner relay; the relay's cost is the
    proxied figure minus the direct one."""
    from repro.cluster.testbed import Testbed
    from repro.core.api import NexusProxyClient
    from repro.core.frames import FramedConnection
    from repro.simnet import Network
    from repro.simnet.socket import SocketError

    net = Network()
    a, b = net.add_host("a"), net.add_host("b")
    net.link(a, b, 1e-4, 1e7)
    lsock = b.listen(9000)

    def raw_echo():
        conn = yield lsock.accept()
        with contextlib.suppress(SocketError):
            while True:
                msg = yield conn.recv()
                yield conn.send(msg.payload, nbytes=msg.nbytes)

    out = {}

    def raw_client():
        conn = yield from a.connect(("b", 9000))
        t0 = time.perf_counter()
        for _ in range(trips):
            yield conn.send(b"p", nbytes=MSG)
            yield conn.recv()
        out["simnet.socket.us_per_msg"] = (time.perf_counter() - t0) / (2 * trips) * 1e6
        conn.close()

    net.sim.process(raw_echo(), name="probe:echo")
    net.sim.run(until=net.sim.process(raw_client(), name="probe:client"))

    def framed_echo(accept):
        def gen():
            framed = yield from accept()
            with contextlib.suppress(SocketError):
                while True:
                    payload, nbytes = yield from framed.recv()
                    yield framed.send(payload, nbytes=nbytes)
        return gen

    def measure(proxied: bool) -> "tuple[float, int, int]":
        tb = Testbed()
        chunk = tb.relay_config.chunk_bytes
        if proxied:
            server = NexusProxyClient(tb.rwcp_sun, **tb.proxy_addrs)
            peer = NexusProxyClient(tb.compas[0], **tb.proxy_addrs)
            holder = {}

            def bind():
                holder["listener"] = yield from server.bind()

            tb.sim.run(until=tb.sim.process(bind(), name="probe:bind"))
            listener = holder["listener"]
            us, events = _sim_echo(
                tb, lambda: peer.connect(listener.proxy_addr),
                framed_echo(listener.accept), mib_trips, MIB)
        else:
            lsock = tb.rwcp_sun.listen(9900)

            def accept():
                conn = yield lsock.accept()
                return FramedConnection(conn, chunk)

            plain = NexusProxyClient(tb.compas[0])
            us, events = _sim_echo(
                tb, lambda: plain.connect(("rwcp-sun", 9900)),
                framed_echo(accept), mib_trips, MIB)
        return us, events, 2 * (MIB // chunk)  # chunks per round trip

    direct_us, direct_events, chunks = measure(proxied=False)
    proxied_us, proxied_events, _ = measure(proxied=True)
    out["core.frames.us_per_chunk"] = direct_us / chunks
    out["core.outer.us_per_chunk"] = (proxied_us - direct_us) / chunks
    out["core.outer.events_per_chunk"] = (proxied_events - direct_events) / chunks
    return out


def nexus_mpi_probes(trips: int) -> "dict[str, float]":
    from repro.mpi import MPIWorld
    from repro.nexus import NexusContext
    from repro.simnet import Network

    def lan() -> "tuple[Any, Any, Any]":
        net = Network()
        switch = net.add_router("switch")
        hosts = [net.add_host(f"h{i}") for i in range(2)]
        for host in hosts:
            net.link(host, switch, 0.05e-3, 6.9e6)
        return net, hosts[0], hosts[1]

    out = {}
    net, a, b = lan()
    shared = {}

    def handler(endpoint, payload, nbytes):
        shared["handled"] = shared.get("handled", 0) + 1
        yield endpoint.sim.timeout(0)

    def server():
        endpoint = yield from NexusContext(b).create_endpoint("svc")
        endpoint.register_handler(7, handler)
        shared["addr"] = endpoint.addr

    def client():
        startpoint = NexusContext(a).startpoint(shared["addr"])
        yield from startpoint.send_rsr(7, "warm", nbytes=MSG)
        t0 = time.perf_counter()
        for _ in range(trips):
            yield from startpoint.send_rsr(7, "rsr", nbytes=MSG)
        # Let the last request land before the clock stops.
        while shared.get("handled", 0) < trips + 1:
            yield net.sim.timeout(1e-4)
        out["nexus.us_per_rsr"] = (time.perf_counter() - t0) / trips * 1e6

    net.sim.run(until=net.sim.process(server(), name="probe:server"))
    net.sim.run(until=net.sim.process(client(), name="probe:client"))

    net, a, b = lan()
    world = MPIWorld(net)
    world.add_ranks([a, b])

    def main(comm):
        peer = 1 - comm.rank
        if comm.rank == 0:
            yield from comm.send("warm", dest=peer, tag=0, nbytes=MSG)
            yield from comm.recv(source=peer, tag=0)
            t0 = time.perf_counter()
            for _ in range(trips):
                yield from comm.send("ping", dest=peer, tag=0, nbytes=MSG)
                yield from comm.recv(source=peer, tag=0)
            return (time.perf_counter() - t0) / (2 * trips) * 1e6
        for _ in range(trips + 1):
            payload, _status = yield from comm.recv(source=peer, tag=0)
            yield from comm.send(payload, dest=peer, tag=0, nbytes=MSG)
        return None

    def driver():
        return (yield from world.launch(main))

    proc = net.sim.process(driver(), name="probe:mpi")
    net.sim.run(until=proc)
    out["mpi.us_per_msg"] = proc.value[0]
    return out


def knapsack_probes(quick: bool) -> "dict[str, float]":
    from repro.apps.knapsack.search import SearchState
    from repro.bench.table4 import Table4Config
    from repro.cluster.testbed import Testbed

    # The Table 4 instance walks 20 M nodes (≈ 2 s); a quick run uses
    # the smoke instance sim_host.py uses.
    config = Table4Config(n_items=30, target_nodes=120_000) if quick else Table4Config()
    state = SearchState(config.instance())
    state.push_root()
    t0 = time.perf_counter()
    state.run_to_exhaustion()
    nodes_per_s = state.nodes_traversed / (time.perf_counter() - t0)
    builds = []
    for _ in range(5):
        t0 = time.perf_counter()
        Testbed()
        builds.append(time.perf_counter() - t0)
    return {"apps.knapsack.search.nodes_per_s": nodes_per_s,
            "cluster.testbed.build_ms": pctl(sorted(builds), 0.5) * 1e3}


# ---------------------------------------------------------------------------


async def _live(quick: bool, child_cpu: Optional[int]) -> "dict[str, float]":
    mib, trips, opens = (8, 200, 30) if quick else (256, 2000, 300)
    out = {}
    out.update(await pump_probes(mib, trips))
    out.update(await mux_probes(max(4, mib // 4), trips, opens))
    out.update(await streams_probe(1 if quick else 4, 2 if quick else 16))
    out.update(await relay_open_probes(opens, child_cpu))
    out.update(await fleet_probe(opens, child_cpu))
    return out


async def run_all(quick: bool, child_cpu: Optional[int]) -> "dict[str, float]":
    out = protocol(2_000 if quick else 20_000)
    out.update(placement(2_000 if quick else 20_000))
    out.update(await _live(quick, child_cpu))
    out.update(kernel_probe(16, 2_000 if quick else 20_000))
    out.update(sim_socket_probes(200 if quick else 2_000, 1 if quick else 3))
    out.update(nexus_mpi_probes(200 if quick else 2_000))
    out.update(knapsack_probes(quick))
    return out
