"""Tests for the zero-copy write/read primitives in
:mod:`repro.core.aio.pump`: scatter-gather sends, frame coalescing,
and the spliced active relay.
"""

import asyncio
import contextlib
import hashlib
import os
import socket
import struct
import threading
import tracemalloc

from repro.core.aio import AioOuterServer, AioProxyClient, pump
from repro.core.aio.pump import (
    COALESCE_BUDGET,
    SegmentBatcher,
    relay_sockets_zero_copy,
    segment_nbytes,
    send_segments,
    tune_stream,
)
from repro.obs import spans as _obs

from tests.core.conftest import leak_check


def run(coro):
    """Run one live test under the leak check: every socket and task
    it started must be gone when it returns."""

    async def checked():
        async with leak_check():
            return await coro

    return asyncio.run(asyncio.wait_for(checked(), timeout=30))


async def _pipe():
    """One accepted TCP connection: returns (client r/w, server r/w)."""
    queue: asyncio.Queue = asyncio.Queue()

    async def on_conn(r, w):
        await queue.put((r, w))

    server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    cr, cw = await asyncio.open_connection("127.0.0.1", port)
    sr, sw = await queue.get()
    return server, (cr, cw), (sr, sw)


def test_segment_nbytes_mixed_types():
    segs = [b"abc", bytearray(b"de"), memoryview(b"fghi")[1:]]
    assert segment_nbytes(segs) == 3 + 2 + 3
    assert segment_nbytes([]) == 0


def test_send_segments_scatter_gather_roundtrip():
    """Header + payload views sent as separate segments arrive joined,
    in order, without the caller ever concatenating them."""

    async def main():
        server, (cr, cw), (sr, sw) = await _pipe()
        payload = bytes(range(256)) * 64
        view = memoryview(payload)
        n = send_segments(cw, [b"HDR1", view[:100], b"HDR2", view[100:]])
        assert n == 8 + len(payload)
        cw.write_eof()
        got = await sr.read(-1)
        assert got == b"HDR1" + payload[:100] + b"HDR2" + payload[100:]
        cw.close()
        sw.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_send_segments_empty_is_noop():
    async def main():
        server, (cr, cw), (sr, sw) = await _pipe()
        assert send_segments(cw, []) == 0
        assert send_segments(cw, [b"", memoryview(b"")]) == 0
        cw.write_eof()
        assert await sr.read(-1) == b""
        cw.close()
        sw.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_send_segments_under_backpressure_preserves_order():
    """When the kernel buffer fills, the direct path sends a prefix and
    the remainder rides the transport — bytes must not reorder."""

    async def main():
        server, (cr, cw), (sr, sw) = await _pipe()
        tune_stream(cw)
        blob = b"x" * (1 << 20)
        digest = hashlib.sha256()
        total = 0
        for i in range(8):
            marker = bytes([i]) * 7
            send_segments(cw, [marker, memoryview(blob)])
            digest.update(marker)
            digest.update(blob)
            total += 7 + len(blob)

        got = hashlib.sha256()
        received = 0

        async def drainer():
            nonlocal received
            while received < total:
                data = await sr.read(1 << 18)
                assert data
                got.update(data)
                received += len(data)

        await asyncio.gather(drainer(), cw.drain())
        assert got.digest() == digest.digest()
        cw.close()
        sw.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_batcher_coalesces_one_flush_per_tick():
    """Many small adds inside one event-loop tick leave in a single
    flush (one sendmsg), not one write per frame."""

    async def main():
        server, (cr, cw), (sr, sw) = await _pipe()
        flushes = []
        batcher = SegmentBatcher(cw, on_flush=lambda n, s: flushes.append((n, s)))
        for i in range(10):
            batcher.add(b"h", bytes([i]) * 10)
        assert batcher.flushes == 0  # nothing sent yet this tick
        await asyncio.sleep(0)  # let the call_soon flush run
        assert batcher.flushes == 1
        assert flushes == [(110, 20)]
        cw.write_eof()
        got = await sr.read(-1)
        assert len(got) == 110
        cw.close()
        sw.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_batcher_empty_flush_sends_nothing():
    async def main():
        server, (cr, cw), (sr, sw) = await _pipe()
        calls = []
        batcher = SegmentBatcher(cw, on_flush=lambda n, s: calls.append(n))
        assert batcher.flush() == 0
        batcher.add(b"", memoryview(b""))  # zero-length segments dropped
        assert batcher.pending_bytes == 0
        assert batcher.flush() == 0
        assert calls == []
        assert batcher.flushes == 0
        cw.close()
        sw.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_batcher_single_byte_payload():
    async def main():
        server, (cr, cw), (sr, sw) = await _pipe()
        batcher = SegmentBatcher(cw)
        batcher.add(b"\x2a")
        assert batcher.pending_bytes == 1
        assert batcher.flush() == 1
        cw.write_eof()
        assert await sr.read(-1) == b"\x2a"
        cw.close()
        sw.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_batcher_budget_boundary_flushes_immediately():
    """A block landing exactly on the coalesce budget flushes inline,
    without waiting for the end of the tick."""

    async def main():
        server, (cr, cw), (sr, sw) = await _pipe()
        batcher = SegmentBatcher(cw)
        batcher.add(b"a" * (COALESCE_BUDGET - 1))
        assert batcher.flushes == 0  # one under budget: waits
        batcher.add(b"b")  # exactly at budget now
        assert batcher.flushes == 1
        assert batcher.bytes_flushed == COALESCE_BUDGET
        # And strictly-over-budget in one add also flushes inline.
        batcher.add(b"c" * 2 * COALESCE_BUDGET)
        assert batcher.flushes == 2
        # The receiver drains what the flushes queued, so none of it
        # waits on a full socket buffer when the writer closes.
        assert len(await sr.readexactly(3 * COALESCE_BUDGET)) == 3 * COALESCE_BUDGET
        cw.close()
        sw.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_batcher_close_discards_pending():
    async def main():
        server, (cr, cw), (sr, sw) = await _pipe()
        batcher = SegmentBatcher(cw)
        batcher.add(b"doomed")
        batcher.close()
        assert batcher.flush() == 0
        batcher.add(b"ignored after close")
        await asyncio.sleep(0)
        assert batcher.flushes == 0
        cw.write_eof()
        assert await sr.read(-1) == b""
        cw.close()
        sw.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_default_budget_is_sane():
    assert 0 < COALESCE_BUDGET <= 1 << 20


def test_zero_copy_relay_bidirectional_with_leftover():
    """Protocol-swap relay: payload pipelined behind the 'handshake'
    (already in the StreamReader buffer) survives the swap, both
    directions flow, EOFs propagate, byte totals are exact."""

    async def main():
        # Two independent client connections to one server; the server
        # relays between its two accepted ends.
        server_a, (a_cr, a_cw), (a_sr, a_sw) = await _pipe()
        server_b, (b_cr, b_cw), (b_sr, b_sw) = await _pipe()

        # Client A sends a handshake line plus pipelined payload.
        head = b"HELLO"
        pipelined = b"P" * 3000
        a_cw.write(head + pipelined)
        await a_cw.drain()
        assert await a_sr.readexactly(5) == head  # server consumes handshake
        await asyncio.sleep(0.05)  # let the payload land in the buffer

        relay = asyncio.ensure_future(
            relay_sockets_zero_copy(a_sr, a_sw, b_sr, b_sw)
        )
        payload_a = b"A" * 500_000
        payload_b = b"B" * 250_000

        async def side_a():
            a_cw.write(payload_a)
            await a_cw.drain()
            a_cw.write_eof()
            return await a_cr.read(-1)

        async def side_b():
            b_cw.write(payload_b)
            await b_cw.drain()
            b_cw.write_eof()
            return await b_cr.read(-1)

        got_b, got_a = await asyncio.gather(side_a(), side_b())
        assert got_a == pipelined + payload_a  # B saw leftover first
        assert got_b == payload_b
        moved = await relay
        assert moved is not None
        a_to_b, b_to_a = moved
        assert a_to_b == len(pipelined) + len(payload_a)
        assert b_to_a == len(payload_b)
        for w in (a_cw, b_cw):
            w.close()
        for srv in (server_a, server_b):
            srv.close()
            await srv.wait_closed()

    run(main())


def test_zero_copy_relay_refuses_a_failed_stream():
    """A stream that failed before the swap is not adopted: the relay
    returns ``(0, 0)`` at once and closes both transports, so the
    healthy side's peer sees EOF."""

    async def main():
        server_a, (a_cr, a_cw), (a_sr, a_sw) = await _pipe()
        server_b, (b_cr, b_cw), (b_sr, b_sw) = await _pipe()
        # A's client resets: A's accepted stream fails.
        a_cw.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        a_cw.transport.abort()
        for _ in range(200):
            if a_sr.exception() is not None:
                break
            await asyncio.sleep(0.01)
        assert isinstance(a_sr.exception(), ConnectionResetError)

        assert await relay_sockets_zero_copy(a_sr, a_sw, b_sr, b_sw) == (0, 0)
        assert a_sw.transport.is_closing() and b_sw.transport.is_closing()
        assert await asyncio.wait_for(b_cr.read(), 3) == b""
        b_cw.close()
        for srv in (server_a, server_b):
            srv.close()
            await srv.wait_closed()

    run(main())


def test_zero_copy_relay_counts_chunks():
    async def main():
        server_a, (a_cr, a_cw), (a_sr, a_sw) = await _pipe()
        server_b, (b_cr, b_cw), (b_sr, b_sw) = await _pipe()
        chunks = []
        relay = asyncio.ensure_future(
            relay_sockets_zero_copy(a_sr, a_sw, b_sr, b_sw,
                                    on_chunk=chunks.append)
        )
        a_cw.write(b"z" * 10_000)
        a_cw.write_eof()
        b_cw.write_eof()
        got = await b_cr.read(-1)
        assert got == b"z" * 10_000
        await relay
        assert sum(chunks) == 10_000
        for w in (a_cw, b_cw):
            w.close()
        for srv in (server_a, server_b):
            srv.close()
            await srv.wait_closed()

    run(main())


def _ramp(period: int, n: int) -> bytes:
    # A period prime to every chunk size: a misplaced or foreign chunk
    # shows as wrong bytes.
    return (bytes(range(period)) * (n // period + 1))[:n]


async def _sink_server(stall: float):
    """A destination that collects what it reads, after not reading
    at all for ``stall`` seconds; a stalling one also keeps a small
    receive buffer, so the relay's writes to it come up short."""
    got: "asyncio.Future[bytes]" = asyncio.get_running_loop().create_future()

    async def on_conn(r, w):
        await asyncio.sleep(stall)
        data = bytearray()
        while chunk := await r.read(64 * 1024):
            data += chunk
        got.set_result(bytes(data))
        w.close()

    lsock = socket.socket()
    if stall:
        lsock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
    lsock.bind(("127.0.0.1", 0))
    server = await asyncio.start_server(on_conn, sock=lsock)
    return server, server.sockets[0].getsockname()[1], got


def test_concurrent_active_chains_keep_their_own_bytes(monkeypatch):
    """Two active chains through one relay, each with its own pipe,
    carry different ramps at once; the slow destination forces the
    tail copy of the spliced relay.  Every byte lands on its chain."""
    tails = []

    def spy(end, transport, n):
        tails.append(n)
        return tail(end, transport, n)

    tail = pump._SpliceEnd._tail
    monkeypatch.setattr(pump._SpliceEnd, "_tail", spy)

    async def main():
        outer = await AioOuterServer().start()
        client = AioProxyClient(outer_addr=("127.0.0.1", outer.control_port))
        servers = []
        try:
            async def carry(payload, stall):
                server, port, got = await _sink_server(stall)
                servers.append(server)
                r, w = await client.connect("127.0.0.1", port)
                w.write(payload)
                await w.drain()
                w.write_eof()
                received = await got
                w.close()
                return received

            # The slow chain outgrows what the kernel buffers take.
            fast, slow = _ramp(251, 3 << 20), _ramp(241, 8 << 20)
            got_fast, got_slow = await asyncio.gather(carry(fast, 0), carry(slow, 0.3))
            assert got_fast == fast
            assert got_slow == slow
            assert tails  # the slow chain's unsent tails were copied
        finally:
            for server in servers:
                server.close()
                await server.wait_closed()
            await outer.stop()

    run(main())


def test_active_chains_cost_no_buffer_each():
    """Eight open active chains, each past one echo, add well under a
    read buffer (``MAX_CHUNK``) per chain to the relay's traced heap."""

    async def echo(r, w):
        while data := await r.read(4096):
            w.write(data)
            await w.drain()
        w.close()

    async def main():
        outer = await AioOuterServer().start()
        client = AioProxyClient(outer_addr=("127.0.0.1", outer.control_port))
        server = await asyncio.start_server(echo, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        chains = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(8):
                r, w = await client.connect("127.0.0.1", port)
                chains.append(w)
                w.write(b"ping %d" % i)
                assert await r.readexactly(6) == b"ping %d" % i
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            for w in chains:
                w.close()
            server.close()
            await server.wait_closed()
            await outer.stop()
        assert grown < 1 << 20, f"8 chains grew the heap by {grown >> 10} KiB"

    run(main())


def test_active_payload_bypasses_python(monkeypatch):
    """32 MiB through an active chain to a fast sink: only the tail the
    sink's socket did not take is read into Python, every other byte is
    spliced on inside the kernel."""
    total = 32 << 20
    through_python = []
    recv_into, read = socket.socket.recv_into, os.read

    def spy_recv_into(sock, *args, **kwargs):
        n = recv_into(sock, *args, **kwargs)
        through_python.append(n)
        return n

    def spy_read(fd, n):
        data = read(fd, n)
        through_python.append(len(data))
        return data

    monkeypatch.setattr(socket.socket, "recv_into", spy_recv_into)
    monkeypatch.setattr(os, "read", spy_read)

    async def main():
        # The sink reads on its own thread with blocking recv()s, off
        # the relay's event loop.
        lsock = socket.create_server(("127.0.0.1", 0))
        received = []

        def sink():
            conn, _ = lsock.accept()
            with conn:
                while data := conn.recv(1 << 20):
                    received.append(len(data))

        thread = threading.Thread(target=sink, daemon=True)
        thread.start()
        outer = await AioOuterServer().start()
        try:
            with _obs.observe() as rec:
                r, w = await AioProxyClient(
                    outer_addr=("127.0.0.1", outer.control_port)
                ).connect("127.0.0.1", lsock.getsockname()[1])
                block = bytes(1 << 20)
                for _ in range(total >> 20):
                    w.write(block)
                    await w.drain()
                w.write_eof()
                # The sink closes at EOF, before the relay passes its
                # EOF back.
                assert await asyncio.wait_for(r.read(), 10) == b""
                w.close()
                thread.join(10)
                assert not thread.is_alive()
                for _ in range(200):
                    done = [e for e in rec.events if e.name == "zero_copy_done"]
                    if done:
                        break
                    await asyncio.sleep(0.01)
        finally:
            lsock.close()
            await outer.stop()
        assert sum(received) == outer.stats.bytes_relayed == total
        python_bytes = sum(through_python)
        assert python_bytes == total - done[0].args["direct"]
        assert python_bytes <= total // 4, (
            f"{python_bytes / total:.1%} of the payload went through Python")

    run(main())


def _reset(writer: asyncio.StreamWriter) -> None:
    """Close with an RST instead of a FIN."""
    writer.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    writer.transport.abort()


async def _midway_chain(dest):
    """An outer server, a destination running ``dest(r, w)`` and an
    active chain to it with 1 MiB already through, while the client
    keeps writing: returns (outer, server, client r/w, writer task)."""
    outer = await AioOuterServer().start()
    server = await asyncio.start_server(dest, "127.0.0.1", 0)
    r, w = await AioProxyClient(outer_addr=("127.0.0.1", outer.control_port)).connect(
        "127.0.0.1", server.sockets[0].getsockname()[1])

    async def write_on():
        block = bytes(64 * 1024)
        with contextlib.suppress(ConnectionError):
            while not w.is_closing():
                w.write(block)
                await w.drain()

    writing = asyncio.ensure_future(write_on())
    for _ in range(500):
        if outer.stats.bytes_relayed >= 1 << 20:
            break
        await asyncio.sleep(0.01)
    assert outer.stats.bytes_relayed >= 1 << 20
    return outer, server, (r, w), writing


async def _teardown(outer, server, w, writing):
    w.close()
    await asyncio.wait_for(writing, 5)
    server.close()
    await server.wait_closed()
    await outer.stop()


async def _read_to_end(reader) -> None:
    """Read until EOF or a reset; a hang fails the test's deadline."""
    with contextlib.suppress(ConnectionError):
        while await reader.read(1 << 20):
            pass


async def _chain_ended(outer) -> bool:
    """Whether the relay let go of every chain socket within 2 s."""
    for _ in range(200):
        if not outer._conns:
            return True
        await asyncio.sleep(0.01)
    return False


def test_destination_reset_mid_transfer_ends_the_chain():
    """An RST from the destination mid-transfer ends the chain: the
    client's connection closes, and the pipe and both dups are gone."""

    async def main():
        readers = []

        async def dest(r, w):
            readers.append(w)
            await r.readexactly(1 << 20)
            _reset(w)

        outer, server, (r, w), writing = await _midway_chain(dest)
        await asyncio.wait_for(_read_to_end(r), 5)
        await asyncio.wait_for(writing, 5)
        assert await _chain_ended(outer)
        await _teardown(outer, server, w, writing)

    run(main())


def test_client_reset_mid_transfer_ends_the_chain():
    """An RST from the client mid-transfer ends the chain: the
    destination reads EOF after what the relay had taken, and the relay
    lets go of it without waiting for the destination to close."""

    async def main():
        ended: "asyncio.Future[int]" = asyncio.get_running_loop().create_future()
        release = asyncio.Event()

        async def dest(r, w):
            got = 0
            with contextlib.suppress(ConnectionError):
                while data := await r.read(1 << 20):
                    got += len(data)
            ended.set_result(got)
            await release.wait()
            w.close()

        outer, server, (r, w), writing = await _midway_chain(dest)
        _reset(w)
        assert await asyncio.wait_for(ended, 5) >= 1 << 20
        assert await _chain_ended(outer)
        release.set()
        await _teardown(outer, server, w, writing)

    run(main())


def test_outer_stop_mid_transfer_closes_both_sides():
    """``outer.stop()`` mid-transfer aborts the chain: both the client
    and the destination see their connection end."""

    async def main():
        ended: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()

        async def dest(r, w):
            await _read_to_end(r)
            ended.set_result(None)
            w.close()

        outer, server, (r, w), writing = await _midway_chain(dest)
        await outer.stop()
        await asyncio.wait_for(asyncio.gather(ended, _read_to_end(r)), 5)
        await _teardown(outer, server, w, writing)

    run(main())


def test_stalled_destination_stops_the_source_within_the_bound():
    """A destination that never reads: the relay stops reading the
    source, and what it holds stays within one pipe (``MAX_CHUNK``)
    plus the destination transport's ``WRITE_HIGH_WATER``."""

    async def main():
        held = []
        release = asyncio.Event()

        async def dest(r, w):
            held.append(w)
            await release.wait()
            w.transport.abort()

        outer = await AioOuterServer().start()
        server = await asyncio.start_server(dest, "127.0.0.1", 0)
        r, w = await AioProxyClient(outer_addr=("127.0.0.1", outer.control_port)).connect(
            "127.0.0.1", server.sockets[0].getsockname()[1])
        block = bytes(1 << 20)
        for _ in range(32):
            w.write(block)
        try:
            relayed = -1
            for _ in range(100):
                await asyncio.sleep(0.05)
                if outer.stats.bytes_relayed == relayed:
                    break
                relayed = outer.stats.bytes_relayed
            await asyncio.sleep(0.3)
            assert outer.stats.bytes_relayed == relayed  # source not read
            assert w.transport.get_write_buffer_size() > 0  # client blocked
            queued = max(t.get_write_buffer_size() for t in outer._conns)
            assert 0 < queued <= pump.MAX_CHUNK + pump.WRITE_HIGH_WATER
        finally:
            w.transport.abort()
            release.set()
            server.close()
            await server.wait_closed()
            await outer.stop()

    run(main())
