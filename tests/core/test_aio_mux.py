"""Tests for the frame-multiplexed nxport data plane.

The firewall-fidelity property under test: however many passive
chains are live, the outer and inner servers share exactly **one**
TCP connection through the pinhole (``stats.nxport_connections``),
carrying interleaved per-chain frames with flow control; a chain
dying must not disturb its siblings; the link dying must heal by
reconnect.
"""

import asyncio
import contextlib
import json
import socket
import struct
import sys

import pytest

from repro.core.aio import (
    AioInnerServer,
    AioOuterServer,
    AioProxyClient,
)
from repro.core.aio import mux
from repro.core.aio.mux import (
    DEFAULT_WINDOW,
    KEEPALIVE_IDLE_S,
    KEEPALIVE_INTERVAL_S,
    KEEPALIVE_PROBES,
    MUX_MAGIC,
    ChainReset,
    FrameType,
    MuxConnector,
)
from repro.core.aio.pump import STREAM_LIMIT, WRITE_HIGH_WATER
from repro.core.aio.relay import AioRelayStats
from repro.obs.metrics import LogHistogram

from tests.core.conftest import leak_check

HEADER = struct.Struct("!IBI")


def run(coro):
    """Run one live test under the leak check: every socket and task
    it started must be gone when it returns."""

    async def checked():
        async with leak_check():
            return await coro

    return asyncio.run(asyncio.wait_for(checked(), timeout=30))


async def start_deployment():
    outer = await AioOuterServer().start()
    inner = await AioInnerServer().start()
    client = AioProxyClient(
        outer_addr=("127.0.0.1", outer.control_port),
        inner_addr=("127.0.0.1", inner.nxport),
    )
    return outer, inner, client


async def echo_chain(listener):
    """Serve accepted chains echo-style until cancelled."""
    async def serve(r, w):
        while True:
            data = await r.read(65536)
            if not data:
                break
            w.write(data)
            await w.drain()
        w.close()

    while True:
        r, w = await listener.accept()
        asyncio.ensure_future(serve(r, w))


def test_concurrent_chains_share_one_nxport_connection():
    """The acceptance criterion: N chains, one outer→inner connection."""

    async def main():
        outer, inner, client = await start_deployment()
        try:
            listener = await client.bind()
            echo_task = asyncio.ensure_future(echo_chain(listener))
            host, port = listener.proxy_addr

            async def one_peer(i):
                r, w = await asyncio.open_connection(host, port)
                msg = bytes([i]) * (1024 * (i + 1))
                w.write(msg)
                await w.drain()
                w.write_eof()
                got = await r.read(-1)
                w.close()
                return got == msg

            results = await asyncio.gather(*[one_peer(i) for i in range(16)])
            assert all(results)
            # The tentpole claim: 16 chains, ONE pinhole connection.
            assert inner.stats.nxport_connections == 1
            assert inner.stats.passive_chains == 16
            assert outer.stats.passive_chains == 16
            # Both ends of that connection probe an idle peer.
            (link,) = outer._mux_links.values()
            outer_sock = link._session.writer.get_extra_info("socket")
            (inner_sock,) = [
                sock for sock in (w.get_extra_info("socket") for w in inner._conns)
                if sock.getpeername() == outer_sock.getsockname()
            ]
            for sock in (outer_sock, inner_sock):
                assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE)
                for name, value in (
                    ("TCP_KEEPIDLE", KEEPALIVE_IDLE_S),
                    ("TCP_KEEPINTVL", KEEPALIVE_INTERVAL_S),
                    ("TCP_KEEPCNT", KEEPALIVE_PROBES),
                ):
                    if hasattr(socket, name):
                        opt = getattr(socket, name)
                        assert sock.getsockopt(socket.IPPROTO_TCP, opt) == value
            echo_task.cancel()
            await listener.close()
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


def test_interleaved_frames_preserve_per_chain_ordering():
    """Concurrent chains write patterned streams; each must arrive
    intact and in order despite frame interleaving on the one link."""

    async def main():
        outer, inner, client = await start_deployment()
        try:
            listener = await client.bind()
            echo_task = asyncio.ensure_future(echo_chain(listener))
            host, port = listener.proxy_addr

            async def one_peer(i):
                r, w = await asyncio.open_connection(host, port)
                # 64 writes of a per-chain pattern, trickled so the mux
                # genuinely interleaves chains on the wire.
                pattern = bytes(range(i, i + 16)) * 256  # 4 KB
                received = bytearray()

                async def reader_side():
                    while len(received) < 64 * len(pattern):
                        data = await r.read(65536)
                        assert data, "stream ended early"
                        received.extend(data)

                rt = asyncio.ensure_future(reader_side())
                for _ in range(64):
                    w.write(pattern)
                    await w.drain()
                    await asyncio.sleep(0)
                await rt
                w.close()
                assert bytes(received) == pattern * 64

            await asyncio.gather(*[one_peer(i) for i in range(8)])
            assert inner.stats.nxport_connections == 1
            echo_task.cancel()
            await listener.close()
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


def test_chain_reset_leaves_siblings_alive():
    """Aborting one peer's chain must not disturb the other chain on
    the same mux link."""

    async def main():
        outer, inner, client = await start_deployment()
        try:
            listener = await client.bind()
            echo_task = asyncio.ensure_future(echo_chain(listener))
            host, port = listener.proxy_addr

            # Chain A: long-lived echo conversation.
            ra, wa = await asyncio.open_connection(host, port)
            wa.write(b"before")
            await wa.drain()
            assert await ra.readexactly(6) == b"before"

            # Chain B: connect, start talking, die abruptly (RST).
            rb, wb = await asyncio.open_connection(host, port)
            wb.write(b"doomed")
            await wb.drain()
            await rb.readexactly(6)
            wb.transport.abort()
            await asyncio.sleep(0.1)

            # Chain A still works after B's teardown.
            wa.write(b"after")
            await wa.drain()
            assert await ra.readexactly(5) == b"after"
            wa.close()
            assert inner.stats.nxport_connections == 1
            echo_task.cancel()
            await listener.close()
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


def test_link_drop_reconnects_and_reestablishes_chains():
    """Kill the nxport TCP link mid-flight: live chains die (as their
    real TCP connections would), the connector re-dials with backoff,
    and new chains establish over the fresh link."""

    async def main():
        outer, inner, client = await start_deployment()
        try:
            listener = await client.bind()
            echo_task = asyncio.ensure_future(echo_chain(listener))
            host, port = listener.proxy_addr

            r1, w1 = await asyncio.open_connection(host, port)
            w1.write(b"ping")
            await w1.drain()
            assert await r1.readexactly(4) == b"ping"
            assert inner.stats.nxport_connections == 1

            # Chaos: abort the mux link underneath the chain.
            link = outer.mux_link("127.0.0.1", inner.nxport)
            assert link.connects == 1
            await link.drop_link()
            # The dangling chain observes EOF/reset promptly.
            assert await r1.read(4096) == b""
            w1.close()

            # A new chain heals through the reconnected link.
            r2, w2 = await asyncio.open_connection(host, port)
            w2.write(b"recovered")
            await w2.drain()
            assert await r2.readexactly(9) == b"recovered"
            w2.close()
            assert link.connects == 2
            assert outer.stats.mux_reconnects == 1
            assert inner.stats.nxport_connections == 2
            echo_task.cancel()
            await listener.close()
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


def test_open_to_dead_client_port_fails_chain_only():
    """An OPEN toward a dead client listener yields OPEN_ERR for that
    chain (``relay_chain`` closes its stream, then raises too); the link
    survives and serves the next chain."""

    async def main():
        inner = await AioInnerServer().start()
        stats_outer = AioOuterServer().stats  # standalone stats holder
        link = MuxConnector("127.0.0.1", inner.nxport, stats_outer)
        fronts = asyncio.Queue()
        front = await asyncio.start_server(
            lambda r, w: fronts.put_nowait((r, w)), "127.0.0.1", 0)
        try:
            with pytest.raises((ChainReset, ConnectionError)):
                await link.open_chain("127.0.0.1", 1)  # nothing listens
            assert inner.stats.failed_requests == 1

            pr, pw = await asyncio.open_connection(*front.sockets[0].getsockname())
            fr, fw = await fronts.get()
            with pytest.raises(ChainReset):
                await link.relay_chain("127.0.0.1", 1, fr, fw)
            assert await pr.read() == b""
            pw.close()
            assert inner.stats.failed_requests == 2
            assert stats_outer.failed_requests == 2

            # Same link still opens good chains.
            srv = await asyncio.start_server(
                lambda r, w: w.close(), "127.0.0.1", 0
            )
            good_port = srv.sockets[0].getsockname()[1]
            chain, session = await link.open_chain("127.0.0.1", good_port)
            assert session.alive
            chain.send_rst()
            srv.close()
            assert inner.stats.nxport_connections == 1
        finally:
            front.close()
            await front.wait_closed()
            await link.stop()
            await inner.stop()

    run(main())


def test_stats_snapshot_and_histograms():
    async def main():
        outer, inner, client = await start_deployment()
        try:
            listener = await client.bind()
            echo_task = asyncio.ensure_future(echo_chain(listener))
            host, port = listener.proxy_addr
            r, w = await asyncio.open_connection(host, port)
            payload = b"z" * 100_000
            w.write(payload)
            await w.drain()
            w.write_eof()
            assert await r.read(-1) == payload
            w.close()
            await asyncio.sleep(0.05)
            snap = outer.stats.snapshot()
            assert snap["passive_chains"] == 1
            assert snap["bytes_relayed"] >= 2 * len(payload)
            assert snap["mux_frames"] > 0
            assert sum(snap["chunk_bytes_hist"].values()) == snap["chunks_relayed"]
            # Chain completed: its byte total and setup latency recorded.
            assert sum(snap["chain_bytes_hist"].values()) == 1
            assert sum(snap["chain_setup_us_hist"].values()) == 1
            echo_task.cancel()
            await listener.close()
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


def test_histogram_bucketing():
    h = LogHistogram()
    for v in (0, 1, 2, 3, 4, 1023, 1024, 10**12):
        h.record(v)
    assert h.total == 8
    d = h.to_dict()
    assert d["<=0"] == 1          # value 0
    assert d["<=1"] == 1          # value 1
    assert d["<=3"] == 2          # values 2, 3
    assert d["<=7"] == 1          # value 4
    assert d["<=1023"] == 1       # value 1023
    assert d["<=2047"] == 1       # value 1024
    assert d[f"<={(1 << 31) - 1}"] == 1  # 10**12 clamps to the last bucket


def test_frame_type_names_complete():
    for value, name in FrameType.NAMES.items():
        assert getattr(FrameType, name) == value


# ---------------------------------------------------------------------------
# What the stream/task data path gave for free, and hostile input
# ---------------------------------------------------------------------------


def frame(chain_id, ftype, payload=b""):
    return HEADER.pack(chain_id, ftype, len(payload)) + payload


async def read_frame(reader):
    chain_id, ftype, length = HEADER.unpack(await reader.readexactly(HEADER.size))
    return chain_id, ftype, await reader.readexactly(length)


def pattern(nbytes):
    """Position-dependent bytes, so reordering or loss cannot cancel out."""
    return (b"".join(i.to_bytes(4, "big") for i in range(nbytes // 4 + 1)))[:nbytes]


async def read_to_eof(reader):
    got = bytearray()
    while data := await reader.read(1 << 16):
        got += data
    return bytes(got)


async def raw_bind(outer, inner_port, client_port=4000):
    """A bind() spoken by hand, naming any inner; returns the control
    connection (its lifetime scopes the bind) and the published port."""
    cr, cw = await asyncio.open_connection("127.0.0.1", outer.control_port)
    cw.write(json.dumps({
        "op": "bind", "client_host": "127.0.0.1", "client_port": client_port,
        "inner_host": "127.0.0.1", "inner_port": inner_port,
    }).encode() + b"\n")
    reply = json.loads(await cr.readline())
    return cw, reply["proxy_port"]


def test_backlog_larger_than_window_and_stream_limit_arrives_intact():
    """The peer wrote more than the window — enough to make the stream
    layer pause the socket — before the chain existed."""

    async def main():
        inner = await AioInnerServer().start()
        link = MuxConnector("127.0.0.1", inner.nxport, AioRelayStats())
        fronts, sinks = asyncio.Queue(), asyncio.Queue()
        front = await asyncio.start_server(
            lambda r, w: fronts.put_nowait((r, w)), "127.0.0.1", 0, limit=STREAM_LIMIT)
        target = await asyncio.start_server(
            lambda r, w: sinks.put_nowait((r, w)), "127.0.0.1", 0)
        try:
            payload = pattern(3 * STREAM_LIMIT)
            assert len(payload) > 2 * STREAM_LIMIT > DEFAULT_WINDOW
            _pr, pw = await asyncio.open_connection(*front.sockets[0].getsockname())
            pw.write(payload)
            pw.write_eof()
            fr, fw = await fronts.get()
            while len(fr._buffer) <= 2 * STREAM_LIMIT:  # until the reader paused
                await asyncio.sleep(0.01)
            relaying = asyncio.ensure_future(link.relay_chain(
                "127.0.0.1", target.sockets[0].getsockname()[1], fr, fw))
            sr, sw = await sinks.get()
            assert await read_to_eof(sr) == payload
            sw.close()
            await relaying
            assert link.stats.mux_window_stalls > 0
            pw.close()
        finally:
            await link.stop()
            for srv in (front, target):
                srv.close()
                await srv.wait_closed()
            await inner.stop()

    run(main())


def test_scripted_old_outer_gets_golden_frames_from_new_inner():
    """OPEN, DATA and EOF in one write, before the inner has dialled:
    they wait in the chain's inbox and arrive in order; what the inner
    sends back is byte for byte what the stream version sent."""

    async def main():
        inner = await AioInnerServer().start()
        heard = asyncio.get_running_loop().create_future()

        async def client_listener(r, w):
            heard.set_result(await read_to_eof(r))
            w.write(b"ack")
            w.close()

        target = await asyncio.start_server(client_listener, "127.0.0.1", 0)
        port = target.sockets[0].getsockname()[1]
        try:
            lr, lw = await asyncio.open_connection("127.0.0.1", inner.nxport)
            lw.write(
                MUX_MAGIC
                + frame(3, FrameType.OPEN, json.dumps({"host": "127.0.0.1", "port": port}).encode())
                + frame(3, FrameType.DATA, b"early ")
                + frame(3, FrameType.DATA, b"bird")
                + frame(3, FrameType.EOF)
            )
            assert await heard == b"early bird"
            golden = (frame(3, FrameType.OPEN_OK) + frame(3, FrameType.DATA, b"ack")
                      + frame(3, FrameType.EOF))
            assert await lr.readexactly(len(golden)) == golden
            lw.write_eof()  # both directions ended: no RST follows
            assert await lr.read() == b""
            lw.close()
            assert inner.stats.passive_chains == 1
        finally:
            target.close()
            await target.wait_closed()
            await inner.stop()

    run(main())


def test_new_outer_sends_golden_frames_to_scripted_old_inner():
    async def main():
        outer = await AioOuterServer().start()
        links = asyncio.Queue()
        old_inner = await asyncio.start_server(
            lambda r, w: links.put_nowait((r, w)), "127.0.0.1", 0)
        try:
            control, port = await raw_bind(outer, old_inner.sockets[0].getsockname()[1])
            pr, pw = await asyncio.open_connection("127.0.0.1", port)
            pw.write(b"hello")
            pw.write_eof()
            lr, lw = await links.get()
            opening = MUX_MAGIC + frame(
                1, FrameType.OPEN, b'{"host": "127.0.0.1", "port": 4000}')
            assert await lr.readexactly(len(opening)) == opening
            lw.write(frame(1, FrameType.OPEN_OK) + frame(1, FrameType.DATA, b"welcome"))
            golden = frame(1, FrameType.DATA, b"hello") + frame(1, FrameType.EOF)
            assert await lr.readexactly(len(golden)) == golden
            assert await pr.readexactly(7) == b"welcome"
            lw.write(frame(1, FrameType.EOF))
            assert await pr.read() == b""
            with pytest.raises(asyncio.TimeoutError):  # both ended: no RST
                await asyncio.wait_for(lr.read(1), 0.2)
            for w in (pw, lw, control):
                w.close()
        finally:
            old_inner.close()
            await old_inner.wait_closed()
            await outer.stop()

    run(main())


def test_bytes_and_eof_sent_before_a_cold_link_is_up_arrive():
    """The client writes and half-closes while the link is still
    refused: the chain holds what it read and frames it behind its OPEN
    once the link comes up (Python 3.10/3.11 read a socket whose
    ``pause_reading()`` ran inside ``connection_made``)."""

    async def main():
        outer = await AioOuterServer().start()
        with socket.socket() as probe:  # a port nothing listens on, yet
            probe.bind(("127.0.0.1", 0))
            inner_port = probe.getsockname()[1]
        old_inner = None
        try:
            control, port = await raw_bind(outer, inner_port)
            pr, pw = await asyncio.open_connection("127.0.0.1", port)
            pw.write(b"early bytes")
            pw.write_eof()
            link = outer.mux_link("127.0.0.1", inner_port)
            while link._run_task is None:  # the chain is waiting for the link
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.1)  # the bytes and the EOF reach the outer
            assert link.connects == 0 and outer.stats.failed_requests == 0
            links = asyncio.Queue()
            old_inner = await asyncio.start_server(
                lambda r, w: links.put_nowait((r, w)), "127.0.0.1", inner_port)
            lr, lw = await links.get()
            golden = (MUX_MAGIC
                      + frame(1, FrameType.OPEN, b'{"host": "127.0.0.1", "port": 4000}')
                      + frame(1, FrameType.DATA, b"early bytes") + frame(1, FrameType.EOF))
            assert await lr.readexactly(len(golden)) == golden
            lw.write(frame(1, FrameType.OPEN_OK) + frame(1, FrameType.EOF))
            assert await pr.read() == b""
            assert outer.stats.passive_chains == 1
            assert outer.stats.failed_requests == 0
            for w in (pw, lw, control):
                w.close()
        finally:
            if old_inner is not None:
                old_inner.close()
                await old_inner.wait_closed()
            await outer.stop()

    run(main())


def test_malformed_window_frame_resets_the_link_not_the_connector():
    """Regression: a WINDOW payload that is not 4 bytes used to raise
    struct.error out of the connector's task — the session stayed
    ``alive`` with nobody reading it and the peer hung."""

    async def main():
        outer = await AioOuterServer().start()
        links = asyncio.Queue()
        fake_inner = await asyncio.start_server(
            lambda r, w: links.put_nowait((r, w)), "127.0.0.1", 0)
        inner_port = fake_inner.sockets[0].getsockname()[1]
        try:
            control, port = await raw_bind(outer, inner_port)
            pr, pw = await asyncio.open_connection("127.0.0.1", port)
            lr, lw = await links.get()
            assert await lr.readexactly(len(MUX_MAGIC)) == MUX_MAGIC
            chain_id, ftype, _ = await read_frame(lr)
            assert ftype == FrameType.OPEN
            lw.write(frame(chain_id, FrameType.OPEN_OK)
                     + frame(chain_id, FrameType.WINDOW, b"\0\0\1"))
            # The chain's peer is released, not left hanging...
            assert await asyncio.wait_for(pr.read(), 5) == b""
            assert await asyncio.wait_for(lr.read(), 5) == b""
            pw.close()
            lw.close()
            # ...and the connector is alive: it re-dials for the next chain.
            pr, pw = await asyncio.open_connection("127.0.0.1", port)
            lr, lw = await asyncio.wait_for(links.get(), 5)
            assert await lr.readexactly(len(MUX_MAGIC)) == MUX_MAGIC
            assert (await read_frame(lr))[1] == FrameType.OPEN
            assert outer.mux_link("127.0.0.1", inner_port).connects == 2
            for w in (pw, lw, control):
                w.close()
        finally:
            fake_inner.close()
            await fake_inner.wait_closed()
            await outer.stop()

    run(main())


def test_stalled_listener_bounds_relay_memory_while_sibling_moves():
    async def main():
        outer, inner, client = await start_deployment()
        try:
            listener = await client.bind()
            host, port = listener.proxy_addr
            # Chain A: its listener end never reads.
            _ra, wa = await asyncio.open_connection(host, port)
            _stalled_r, stalled_w = await listener.accept()
            flood = asyncio.ensure_future(_flood(wa))

            def transports():  # every socket either daemon holds
                return [t for srv in (outer, inner) for t in srv._conns]

            sizes = None
            while sizes is None or sizes != [t.get_write_buffer_size() for t in transports()]:
                sizes = [t.get_write_buffer_size() for t in transports()]
                await asyncio.sleep(0.2)  # until nothing moves any more
            assert outer.stats.mux_window_stalls > 0
            assert 0 < max(sizes) <= WRITE_HIGH_WATER + DEFAULT_WINDOW

            # Chain B on the same link is unaffected.
            rb, wb = await asyncio.open_connection(host, port)
            lr, lw = await listener.accept()
            payload = pattern(1 << 20)
            wb.write(payload)
            wb.write_eof()
            assert await asyncio.wait_for(read_to_eof(lr), 10) == payload
            lw.write(b"done")
            lw.close()
            assert await asyncio.wait_for(rb.read(), 10) == b"done"
            assert inner.stats.nxport_connections == 1
            assert max(t.get_write_buffer_size() for t in transports()) \
                <= WRITE_HIGH_WATER + DEFAULT_WINDOW
            flood.cancel()
            for w in (wa, wb, stalled_w):
                w.close()
            await listener.close()
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


async def _flood(writer):
    block = bytes(1 << 20)
    with contextlib.suppress(ConnectionError):
        while True:
            writer.write(block)
            await writer.drain()


def test_half_close_in_each_direction():
    async def main():
        outer, inner, client = await start_deployment()
        try:
            listener = await client.bind()
            host, port = listener.proxy_addr

            # Peer closes its side first; the listener answers afterwards.
            pr, pw = await asyncio.open_connection(host, port)
            lr, lw = await listener.accept()
            pw.write(b"question")
            pw.write_eof()
            assert await read_to_eof(lr) == b"question"
            lw.write(b"answer")
            lw.close()
            assert await read_to_eof(pr) == b"answer"
            pw.close()

            # Listener closes its side first; the peer keeps sending.
            pr, pw = await asyncio.open_connection(host, port)
            lr, lw = await listener.accept()
            lw.write(b"greeting")
            lw.write_eof()
            assert await read_to_eof(pr) == b"greeting"
            payload = pattern(300_000)  # more than a window, after the EOF
            pw.write(payload)
            pw.close()
            assert await read_to_eof(lr) == payload
            lw.close()
            await listener.close()
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


@pytest.mark.parametrize("first", ["outer", "inner"])
def test_stop_mid_transfer_leaves_no_transport_and_no_task(first):
    async def main():
        outer, inner, client = await start_deployment()
        listener = await client.bind()
        pr, pw = await asyncio.open_connection(*listener.proxy_addr)
        lr, lw = await listener.accept()
        flood = asyncio.ensure_future(_flood(pw))
        await lr.readexactly(1 << 20)  # bytes are moving, more are queued
        order = (outer, inner) if first == "outer" else (inner, outer)
        await order[0].stop()
        # Both ends see the chain end (an aborted socket may say so
        # with a reset), whichever daemon went first.
        for reader in (pr, lr):
            with contextlib.suppress(ConnectionError):
                await asyncio.wait_for(read_to_eof(reader), 5)
        await order[1].stop()
        flood.cancel()
        pw.close()
        lw.close()
        await listener.close()

    run(main())


def test_unanswered_open_times_out(monkeypatch):
    """An inner that takes the link but never answers an OPEN: the
    chain's deadline closes the client, counts one failed request and
    leaves no chain behind; ``open_chain`` raises a timeout."""
    monkeypatch.setattr(mux, "OPEN_TIMEOUT_S", 0.3)

    async def main():
        outer = await AioOuterServer().start()
        links = asyncio.Queue()
        silent_inner = await asyncio.start_server(
            lambda r, w: links.put_nowait((r, w)), "127.0.0.1", 0)
        inner_port = silent_inner.sockets[0].getsockname()[1]
        try:
            control, port = await raw_bind(outer, inner_port)
            pr, pw = await asyncio.open_connection("127.0.0.1", port)
            pw.write(b"hello")
            lr, lw = await links.get()
            assert await lr.readexactly(len(MUX_MAGIC)) == MUX_MAGIC
            with contextlib.suppress(ConnectionError):  # EOF or a reset
                assert await asyncio.wait_for(pr.read(), 3) == b""
            link = outer.mux_link("127.0.0.1", inner_port)
            session = link._session
            assert outer.stats.failed_requests == 1
            assert session.chains == {}

            with pytest.raises(asyncio.TimeoutError):
                await link.open_chain("127.0.0.1", 4000)
            assert session.chains == {}
            for w in (pw, lw, control):
                w.close()
        finally:
            silent_inner.close()
            await silent_inner.wait_closed()
            await outer.stop()

    run(main())


def test_refusing_inner_is_redialled_with_backoff(monkeypatch):
    """An inner that refuses the link (it takes the connect, answers an
    error line and closes) carries no frame: the connector backs off
    between dials instead of redialling in a hot loop, and the waiting
    chain fails no later than its OPEN deadline."""
    monkeypatch.setattr(mux, "OPEN_TIMEOUT_S", 1.5)

    async def main():
        loop = asyncio.get_running_loop()
        outer = await AioOuterServer().start()
        inner = await AioInnerServer(allowed_peers=["203.0.113.9"]).start()
        try:
            control, port = await raw_bind(outer, inner.nxport)
            t0 = loop.time()
            pr, pw = await asyncio.open_connection("127.0.0.1", port)
            pw.write(b"hello")
            with contextlib.suppress(ConnectionError):  # EOF or a reset
                assert await asyncio.wait_for(pr.read(), mux.OPEN_TIMEOUT_S + 0.5) == b""
            await asyncio.sleep(t0 + 1.0 - loop.time())
            assert 1 <= inner.stats.nxport_connections <= 10
            assert outer.stats.failed_requests == 1
            for w in (pw, control):
                w.close()
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


def _made_by_relay(coro) -> bool:
    """The task runs a ``repro.core.aio`` coroutine, or relay code is on
    the stack creating it (as it is for ``wait_for``'s inner task)."""
    frames, frame = [coro.cr_frame], sys._getframe()
    while frame is not None:
        frames.append(frame)
        frame = frame.f_back
    return any(f.f_globals.get("__name__", "").startswith("repro.core.aio")
               for f in frames)


def test_open_path_runs_no_helper_task_and_no_stream_reader():
    """Over a live link, one open-echo-close costs the relay at most one
    task (the inner's onward dial) and no StreamReader: both relays set
    a chain up as a protocol, not as a stream swapped for one."""

    async def main():
        outer, inner, _client = await start_deployment()
        loop = asyncio.get_running_loop()
        dest = socket.create_server(("127.0.0.1", 0))
        dest.setblocking(False)
        control, port = await raw_bind(outer, inner.nxport, dest.getsockname()[1])

        async def recv_exactly(sock, n):
            got = b""
            while len(got) < n:
                data = await loop.sock_recv(sock, n - len(got))
                assert data, "closed early"
                got += data
            return got

        async def open_echo_close():
            # Raw sockets on both ends, so every task and StreamReader
            # made meanwhile is the relays'.
            peer = socket.socket()
            peer.setblocking(False)
            try:
                await loop.sock_connect(peer, ("127.0.0.1", port))
                await loop.sock_sendall(peer, b"ping")
                far, _ = await loop.sock_accept(dest)
                with far:
                    await loop.sock_sendall(far, await recv_exactly(far, 4))
                    assert await recv_exactly(peer, 4) == b"ping"
            finally:
                peer.close()

        tasks, readers = [], []
        real_init = asyncio.StreamReader.__init__

        def counting_init(reader, *args, **kwargs):
            readers.append(type(reader).__name__)
            real_init(reader, *args, **kwargs)

        def task_factory(loop, coro, **kwargs):
            if _made_by_relay(coro):
                tasks.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        try:
            await open_echo_close()  # the link dials once, here
            loop.set_task_factory(task_factory)
            asyncio.StreamReader.__init__ = counting_init
            try:
                for _ in range(20):
                    await open_echo_close()
            finally:
                loop.set_task_factory(None)
                asyncio.StreamReader.__init__ = real_init
            assert len(tasks) <= 20, tasks
            assert readers == []
            assert inner.stats.passive_chains == outer.stats.passive_chains == 21
            control.close()
        finally:
            dest.close()
            await outer.stop()
            await inner.stop()

    run(main())


def test_cleanly_closed_chain_sends_no_rst(monkeypatch):
    """One echo-and-close chain: each end sends its opening frame, one
    DATA and one EOF, and nothing more — both directions ended, so the
    close that follows resets nothing — and both chain tables are
    empty afterwards."""
    sent = []
    real_send_frame = mux._MuxSession.send_frame

    def spy(session, chain_id, ftype, payload=b""):
        sent.append((session, FrameType.NAMES[ftype]))
        return real_send_frame(session, chain_id, ftype, payload)

    monkeypatch.setattr(mux._MuxSession, "send_frame", spy)

    async def main():
        outer, inner, client = await start_deployment()
        try:
            listener = await client.bind()
            echo_task = asyncio.ensure_future(echo_chain(listener))
            r, w = await asyncio.open_connection(*listener.proxy_addr)
            w.write(b"ping" * 16)
            w.write_eof()
            assert await read_to_eof(r) == b"ping" * 16
            w.close()
            (link,) = outer._mux_links.values()
            outer_session = link._session
            (inner_session,) = {s for s, _ in sent if s is not outer_session}
            for _ in range(200):
                if not outer_session.chains and not inner_session.chains:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)  # room for a late frame to be sent
            assert outer_session.chains == {} and inner_session.chains == {}
            assert [f for s, f in sent if s is outer_session] == ["OPEN", "DATA", "EOF"]
            assert [f for s, f in sent if s is inner_session] == ["OPEN_OK", "DATA", "EOF"]
            echo_task.cancel()
            await listener.close()
        finally:
            await outer.stop()
            await inner.stop()

    run(main())
