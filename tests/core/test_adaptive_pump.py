"""Adaptive chunking on the live pump, and relay-stats parity.

Pins the AdaptiveChunker growth/shrink law and the
drain-only-on-high-water discipline, and that the sim and live relay
snapshots share one key schema.
"""

import asyncio

from repro.core.aio.pump import (
    MAX_CHUNK,
    MIN_CHUNK,
    AdaptiveChunker,
    pump,
    writer_backpressured,
)

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


# -- plane parity ------------------------------------------------------------


def test_relay_stats_schema_parity_between_planes():
    """The sim and live relay snapshots must share one key schema so
    BENCH JSON from either plane is directly comparable."""
    from repro.core.aio.relay import AioRelayStats
    from repro.core.outer import RelayStats

    assert set(RelayStats().snapshot()) == set(AioRelayStats().snapshot())
