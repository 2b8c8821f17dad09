"""Adaptive chunking: live-pump policy units and the simulated
fixed-vs-adaptive ablation.

The live side pins the AdaptiveChunker growth/shrink law and the
drain-only-on-high-water discipline; the simulated side shows the
Table 2 regeneration knob actually moves: the same transfer through
the same relay finishes faster (less occupying relay CPU) with
``adaptive_chunking=True``, without breaking ordering or the
drain-aware close.
"""

import asyncio

import pytest

from repro.core import FramedConnection, RelayConfig
from repro.core.aio.pump import (
    MAX_CHUNK,
    MIN_CHUNK,
    AdaptiveChunker,
    pump,
    writer_backpressured,
)
from repro.simnet import ConnectionReset

from tests.core.conftest import leak_check


def run(coro):
    """Run one live test under the leak check: every socket and task
    it started must be gone when it returns."""

    async def checked():
        async with leak_check():
            return await coro

    return asyncio.run(asyncio.wait_for(checked(), timeout=20))

# -- live policy units -------------------------------------------------------


def test_chunker_grows_on_full_reads():
    c = AdaptiveChunker()
    assert c.size == MIN_CHUNK
    sizes = []
    for _ in range(10):
        sizes.append(c.size)
        c.on_read(c.size)  # every read fills the budget
    assert sizes[0] == MIN_CHUNK
    assert c.size == MAX_CHUNK
    assert all(b == min(2 * a, MAX_CHUNK) for a, b in zip(sizes, sizes[1:]))


def test_chunker_does_not_grow_on_short_reads():
    c = AdaptiveChunker()
    c.on_read(c.size - 1)
    assert c.size == MIN_CHUNK


def test_chunker_shrinks_on_backpressure():
    c = AdaptiveChunker()
    for _ in range(10):
        c.on_read(c.size)
    assert c.size == MAX_CHUNK
    c.on_backpressure()
    assert c.size == MAX_CHUNK // 2
    for _ in range(20):
        c.on_backpressure()
    assert c.size == MIN_CHUNK  # clamped


def test_live_pump_moves_bytes_and_half_closes():
    async def main():
        done = asyncio.Event()
        received = bytearray()

        async def sink(reader, writer):
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                received.extend(data)
            done.set()
            writer.close()

        srv = await asyncio.start_server(sink, "127.0.0.1", 0)
        port = srv.sockets[0].getsockname()[1]

        payload = bytes(range(256)) * 2048  # 512 KiB
        src_r = asyncio.StreamReader()
        src_r.feed_data(payload)
        src_r.feed_eof()
        _, dst_w = await asyncio.open_connection("127.0.0.1", port)
        chunks = []
        moved = await pump(src_r, dst_w, on_chunk=chunks.append)
        await asyncio.wait_for(done.wait(), 5)
        assert moved == len(payload)
        assert bytes(received) == payload
        assert sum(chunks) == len(payload)
        dst_w.close()
        srv.close()
        await srv.wait_closed()

    run(main())


def test_writer_backpressured_without_flow_control_introspection():
    class NoIntrospection:
        transport = object()  # no get_write_buffer_limits

    async def main():
        # Fallback must be conservative: claim backpressure → always drain.
        assert writer_backpressured(NoIntrospection()) is True

    run(main())


# -- simulated ablation ------------------------------------------------------


def make_dep(config=None):
    from tests.core.conftest import Deployment

    return Deployment(config) if config is not None else Deployment()


class _LanDeployment:
    """A proxied all-LAN topology (the Table 2 'proxied LAN' shape):
    every link fast, so the relay's per-chunk CPU is the bottleneck —
    the regime adaptive chunking is for.  (The conftest Deployment's
    1.5 Mbps WAN hides the relay entirely, which is the paper's own
    point about WAN overhead being negligible.)"""

    def __init__(self, config: RelayConfig) -> None:
        from repro.core import InnerServer, NexusProxyClient, OuterServer
        from repro.simnet import Firewall, Network

        self.config = config
        self.net = Network()
        self.rwcp = self.net.add_site(
            "rwcp", firewall=Firewall.typical(reject=True)
        )
        self.pa = self.net.add_host("pa", site=self.rwcp)
        self.innerh = self.net.add_host("innerh", site=self.rwcp)
        self.lan = self.net.add_router("lan", site=self.rwcp)
        self.outerh = self.net.add_host("outerh", cores=2)
        self.pb = self.net.add_host("pb")
        for a, b in ((self.pa, self.lan), (self.innerh, self.lan),
                     (self.lan, self.outerh), (self.outerh, self.pb)):
            self.net.link(a, b, 0.1e-3, 12.5e6)  # 100 Mbit everywhere
        self.outer = OuterServer(self.outerh, config)
        self.inner = InnerServer(self.innerh, config)
        self.inner.open_firewall_pinhole("outerh")
        self.outer.start()
        self.inner.start()
        self._client_cls = NexusProxyClient

    @property
    def sim(self):
        return self.net.sim

    def client(self):
        return self._client_cls(
            self.pa,
            outer_addr=self.outer.control_addr,
            inner_addr=self.inner.addr,
            config=self.config,
        )


def _one_way_transfer_time(config: RelayConfig, nbytes: int) -> float:
    """Sim time for one client→server message through the relay."""
    dep = _LanDeployment(config)
    t = {}

    def pb_server():
        ls = dep.pb.listen(9000)
        conn = yield ls.accept()
        framed = FramedConnection(conn, dep.config.chunk_bytes)
        yield from framed.recv()
        t["done"] = dep.sim.now

    def pa_client():
        framed = yield from dep.client().connect(("pb", 9000))
        yield framed.send("bulk", nbytes=nbytes)
        framed.close()

    dep.sim.process(pb_server())
    dep.sim.process(pa_client())
    dep.sim.run()
    return t["done"]


def test_adaptive_chunking_cuts_relay_cpu_time():
    fixed = _one_way_transfer_time(RelayConfig(), 512 * 1024)
    adaptive = _one_way_transfer_time(
        RelayConfig(adaptive_chunking=True), 512 * 1024
    )
    # 512 KiB in 1 KiB chunks is 512 per-chunk CPU charges at 3 ms
    # each; batching must reclaim most of them.
    assert adaptive < fixed * 0.7, (fixed, adaptive)


def test_adaptive_chunking_preserves_framing_and_order():
    dep = make_dep(RelayConfig(adaptive_chunking=True))
    out = {}

    def pb_server():
        ls = dep.pb.listen(9000)
        conn = yield ls.accept()
        framed = FramedConnection(conn, dep.config.chunk_bytes)
        got = []
        try:
            while True:
                payload, n = yield from framed.recv()
                got.append((payload, n))
        except ConnectionReset:
            out["got"] = got

    def pa_client():
        framed = yield from dep.client().connect(("pb", 9000))
        for i in range(8):
            yield framed.send(i, nbytes=5000)
        framed.close()

    dep.sim.process(pb_server())
    dep.sim.process(pa_client())
    dep.sim.run()
    assert out["got"] == [(i, 5000) for i in range(8)]


def test_adaptive_chunking_keeps_drain_aware_close():
    """The write-then-close tail must survive batching too."""
    dep = make_dep(RelayConfig(adaptive_chunking=True, max_chunk_bytes=8192))
    out = {}

    def pb_server():
        ls = dep.pb.listen(9000)
        conn = yield ls.accept()
        framed = FramedConnection(conn, dep.config.chunk_bytes)
        got = []
        try:
            while True:
                payload, n = yield from framed.recv()
                got.append(payload)
        except ConnectionReset:
            out["got"] = got

    def pa_client():
        framed = yield from dep.client().connect(("pb", 9000))
        for i in range(5):
            yield framed.send(i, nbytes=3000)
        framed.close()

    dep.sim.process(pb_server())
    dep.sim.process(pa_client())
    dep.sim.run()
    assert out["got"] == list(range(5))


def test_config_validates_max_chunk_bytes():
    with pytest.raises(ValueError, match="max_chunk_bytes"):
        RelayConfig(chunk_bytes=4096, max_chunk_bytes=1024).validate()
    RelayConfig(adaptive_chunking=True).validate()  # defaults consistent


def test_adaptive_relay_accounts_coalesced_flushes():
    """With adaptive chunking on, multi-frame wake-ups on a passive
    chain land in the coalesce counters — the sim analogue of
    scatter-gather flushes."""
    dep = make_dep(RelayConfig(adaptive_chunking=True, max_chunk_bytes=65536))
    out = {}

    def listener_side():
        listener = yield from dep.client(dep.pa).bind()

        def sender_side():
            client = dep.client(dep.innerh)
            framed = yield from client.connect(listener.proxy_addr)
            yield framed.send("bulk", nbytes=500_000)
            framed.close()

        dep.sim.process(sender_side())
        framed = yield from listener.accept()
        out["recv"] = yield from framed.recv()
        listener.close()

    dep.sim.process(listener_side())
    dep.sim.run()
    assert out["recv"] == ("bulk", 500_000)
    snap = dep.outer.stats.snapshot()
    assert snap["coalesced_flushes"] == 12
    assert sum(snap["coalesce_bytes_hist"].values()) == snap["coalesced_flushes"]


def test_relay_stats_schema_parity_between_planes():
    """The sim and live relay snapshots must share one key schema so
    BENCH JSON from either plane is directly comparable."""
    from repro.core.aio.relay import AioRelayStats
    from repro.core.outer import RelayStats

    assert set(RelayStats().snapshot()) == set(AioRelayStats().snapshot())
