"""Tests for GridFTP-style parallel-stream striping
(:mod:`repro.core.aio.streams`): round trips over plain sockets and
full relay deployments, reassembly edge cases, and the acceptance
criterion — killing one stream mid-transfer must not restart the
transfer from offset 0.
"""

import asyncio
import gc
import hashlib
import json
import struct

import pytest

from repro.core.aio import (
    AioInnerServer,
    AioOuterServer,
    AioProxyClient,
    StripeError,
    StripeSink,
    recv_striped,
    send_striped,
    streams,
)
from repro.core.aio.streams import StripeReceiver, StripeSender, _hello_line

from tests.core.conftest import leak_check

#: The wire format, spelled out independently of the module under test.
WIRE = struct.Struct("!BQI")
BLOCK, END, MARK = 1, 2, 3


def run(coro):
    """Run one live test under the leak check: whatever it started —
    transports, dials, sink streams — must be gone when it returns."""

    async def checked():
        async with leak_check():
            return await coro

    return asyncio.run(asyncio.wait_for(checked(), timeout=60))


def _payload(n: int) -> bytes:
    # Position-dependent pattern: any misplaced block changes the hash.
    return bytes((i * 31 + (i >> 8)) & 0xFF for i in range(n))


async def _loopback_pair():
    """A plain TCP rendezvous: connect() dials, accept() yields the
    server side of each dial — no relay in between."""
    queue: asyncio.Queue = asyncio.Queue()

    async def on_conn(r, w):
        await queue.put((r, w))

    server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]

    async def connect():
        return await asyncio.open_connection("127.0.0.1", port)

    return server, connect, queue.get


@pytest.mark.parametrize("streams,nbytes,block", [
    (1, 100_000, 16 * 1024),
    (4, 1_000_000, 32 * 1024),
    (4, 1_000_001, 32 * 1024),   # ragged tail block
    (8, 64 * 1024, 64 * 1024),   # more streams than blocks
])
def test_striped_roundtrip_loopback(streams, nbytes, block):
    async def main():
        server, connect, accept = await _loopback_pair()
        data = _payload(nbytes)
        recv_task = asyncio.ensure_future(recv_striped(accept))
        report = await send_striped(
            connect, data, streams=streams, block_bytes=block
        )
        got, rreport = await recv_task
        assert got == data
        assert report["bytes_sent"] == nbytes
        assert report["requeued_blocks"] == 0
        assert rreport["duplicate_blocks"] == 0
        assert rreport["streams_seen"] >= 1
        server.close()
        await server.wait_closed()

    run(main())


def test_striped_single_byte_payload():
    async def main():
        server, connect, accept = await _loopback_pair()
        recv_task = asyncio.ensure_future(recv_striped(accept))
        report = await send_striped(connect, b"\x42", streams=4)
        got, _ = await recv_task
        assert got == b"\x42"
        assert report["blocks_sent"] == 1
        server.close()
        await server.wait_closed()

    run(main())


def test_striped_empty_payload_completes():
    async def main():
        server, connect, accept = await _loopback_pair()
        recv_task = asyncio.ensure_future(recv_striped(accept))
        report = await send_striped(connect, b"", streams=4)
        got, rreport = await recv_task
        assert got == b""
        assert report["total_bytes"] == 0
        assert rreport["total_bytes"] == 0
        server.close()
        await server.wait_closed()

    run(main())


def test_empty_payload_rides_the_engine_to_a_refusing_sink():
    """A zero-byte send dials like any other: refused dials spend the
    reconnect budget and end in ``StripeError``."""

    async def main():
        dials = []

        async def refuse():
            dials.append(1)
            raise ConnectionRefusedError("nobody listens")

        with pytest.raises(StripeError):
            await send_striped(refuse, b"", streams=2, max_reconnects=1)
        assert len(dials) == 4  # two streams, one redial each

    run(main())


def test_empty_payload_report_has_the_keys_of_any_other():
    async def main():
        reports = []
        for data in (b"", b"\x42"):
            # A listener each: a one-shot sink leaves the sender's spare
            # streams unaccepted, and the next sink would read them.
            server, connect, accept = await _loopback_pair()
            recv_task = asyncio.ensure_future(recv_striped(accept))
            reports.append(await send_striped(connect, data, streams=2))
            await recv_task
            server.close()
            await server.wait_closed()
        empty, one = reports
        assert empty.keys() == one.keys()
        assert empty["streams"] == 2 and empty["blocks_sent"] == 0

    run(main())


def test_recv_hands_over_a_buffer_with_no_view_on_it():
    async def main():
        server, connect, accept = await _loopback_pair()
        payload = _payload(200_000)
        sink = StripeSink(accept)
        recv_task = asyncio.ensure_future(sink.recv())
        await send_striped(connect, payload, streams=4, block_bytes=16 * 1024)
        data, _ = await recv_task
        assert isinstance(data, bytearray) and data == payload
        data.extend(b"!")  # BufferError while anything exports it
        assert data[-1:] == b"!"
        await sink.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_sink_answers_redial_after_completion():
    """A stream that redials after its transfer already completed must
    be handed the final restart marker, not left waiting forever —
    this is exactly what a drained relay worker's aborted stream does
    when the abort races the last block's delivery."""

    async def main():
        server, connect, accept = await _loopback_pair()
        data = _payload(300_000)
        sink = StripeSink(accept)
        recv_task = asyncio.ensure_future(sink.recv())
        report = await send_striped(
            connect, data, streams=2, block_bytes=32 * 1024,
            xfer_id="deadbeef00000001",
        )
        got, _ = await recv_task
        assert got == data
        # Late redial for the now-finished transfer: the sink's
        # completed-transfer memory answers with watermark == total.
        r, w = await connect()
        w.write(_hello_line("deadbeef00000001", 0, 2, len(data),
                            32 * 1024))
        await w.drain()
        assert WIRE.unpack(await r.readexactly(WIRE.size)) == (MARK, len(data), 0)
        assert await r.read() == b""  # sink closes after answering
        w.close()
        assert report["total_bytes"] == len(data)
        await sink.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_sink_serves_sequential_transfers():
    """One StripeSink over one listener carries back-to-back transfers
    (the sub-transfer wave pattern) without cross-talk."""

    async def main():
        server, connect, accept = await _loopback_pair()
        sink = StripeSink(accept)
        for round_no in range(3):
            data = _payload(150_000 + round_no)
            recv_task = asyncio.ensure_future(sink.recv())
            await send_striped(
                connect, data, streams=2, block_bytes=16 * 1024
            )
            got, rreport = await recv_task
            assert got == data
            assert rreport["total_bytes"] == len(data)
        await sink.close()
        server.close()
        await server.wait_closed()

    run(main())


def _deliver(rx, offset, payload):
    """One whole block into the receive engine, as the sink's reads do."""
    view = rx.claim(offset, len(payload))
    if view is None:
        return False
    view[:] = payload
    rx.arrived(offset)
    return True


def test_recv_state_out_of_order_blocks():
    """Blocks landing in any order reassemble exactly; the contiguous
    watermark only advances over filled prefixes."""
    rx = StripeReceiver("t1", 40, 10)
    data = _payload(40)
    assert _deliver(rx, 30, data[30:40])
    assert rx.watermark == 0  # gap at 0: no advance
    assert _deliver(rx, 10, data[10:20])
    assert rx.watermark == 0
    assert _deliver(rx, 0, data[0:10])
    assert rx.watermark == 20  # 0 and 10 contiguous now
    assert not rx.done
    assert _deliver(rx, 20, data[20:30])
    assert rx.watermark == 40
    assert rx.done
    assert bytes(rx.buf) == data


def test_recv_state_duplicate_blocks_deduped():
    """A requeued block racing its original must not corrupt the
    buffer or double-count."""
    rx = StripeReceiver("t2", 20, 10)
    data = _payload(20)
    assert _deliver(rx, 0, data[0:10])
    assert not _deliver(rx, 0, b"X" * 10)  # duplicate: dropped
    assert rx.duplicate_blocks == 1
    assert _deliver(rx, 10, data[10:20])
    assert bytes(rx.buf) == data
    assert rx.done


def test_send_state_duplicate_restart_marker_is_idempotent():
    """After a reconnect the sink re-sends its watermark; stale or
    repeated markers must never regress progress or requeue twice."""
    tx = StripeSender(100, 10, window=10)
    tx.stream_up(0)
    assert [tx.next_block(0)[0] for _ in range(7)] == [0, 10, 20, 30, 40, 50, 60]
    assert tx.mark(50)
    assert tx.watermark == 50
    assert not tx.mark(50)  # duplicate marker (rejoining stream)
    assert not tx.mark(30)  # stale marker from a slow stream
    assert tx.watermark == 50
    # Death of the stream: acked blocks are not requeued, and a
    # repeated death report does not duplicate pending entries.
    assert tx.stream_dead(0) == 2
    assert list(tx.pending) == [50, 60, 70, 80, 90]
    assert tx.stream_dead(0) == 0
    assert list(tx.pending) == [50, 60, 70, 80, 90]
    assert tx.requeued_blocks == 2


def test_send_state_requeue_puts_gap_blocks_first():
    """A dead stream's blocks are the lowest unacked offsets, and the
    sink's watermark is gated on them.  They must come off the queue
    before the unsent backlog: appended at the tail they hide behind it,
    and once every surviving stream fills its window with post-gap
    blocks the transfer deadlocks (windows only drain when the watermark
    moves, and the watermark is stuck below the requeued gap)."""
    tx = StripeSender(100, 10, window=4)
    tx.stream_up(0)
    tx.stream_up(1)
    # Streams have taken 0..40; 50..90 remain unsent.
    assert tx.next_block(0) == (0, 10)
    assert [tx.next_block(1)[0] for _ in range(4)] == [10, 20, 30, 40]
    tx.mark(10)  # sink acked the first block only
    # The stream holding 10..40 dies; its blocks come back in play.
    tx.stream_dead(1)
    assert list(tx.pending) == [10, 20, 30, 40, 50, 60, 70, 80, 90]


async def _start_deployment():
    outer = await AioOuterServer().start()
    inner = await AioInnerServer().start()
    client = AioProxyClient(
        outer_addr=("127.0.0.1", outer.control_port),
        inner_addr=("127.0.0.1", inner.nxport),
    )
    return outer, inner, client


def test_striped_transfer_through_relay_deployment():
    """End-to-end: k relay chains through outer+inner carry one
    striped transfer; client API spelling (send_striped/recv_striped)."""

    async def main():
        outer, inner, client = await _start_deployment()
        try:
            listener = await client.bind()
            host, port = listener.proxy_addr
            data = _payload(2_000_000)
            recv_task = asyncio.ensure_future(listener.recv_striped())
            report = await client.send_striped(
                host, port, data, streams=4, block_bytes=64 * 1024
            )
            got, rreport = await recv_task
            assert hashlib.sha256(got).digest() == hashlib.sha256(data).digest()
            assert report["bytes_sent"] == len(data)
            assert rreport["streams_seen"] == 4
            await listener.close()
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


def test_kill_one_stream_mid_transfer_resumes_from_marker():
    """Acceptance criterion: abort one stream's connection mid-
    transfer.  The transfer must complete with correct bytes (hash)
    WITHOUT restarting from offset 0 — only the dead stream's
    unacknowledged blocks are retransmitted."""

    async def main():
        outer, inner, client = await _start_deployment()
        try:
            listener = await client.bind()
            host, port = listener.proxy_addr
            data = _payload(3_000_000)
            block = 32 * 1024

            writers = []

            async def dial():
                r, w = await client.connect(host, port)
                writers.append(w)
                return r, w

            blocks_sent = [0]

            def on_block(stream_idx, offset, length):
                blocks_sent[0] += 1
                # A third of the way in, nuke the second connection
                # (once: the first stream may fill its whole window
                # before the second one is even dialed).
                if blocks_sent[0] >= 30 and len(writers) > 1 and writers[1]:
                    writers[1].transport.abort()
                    writers[1] = None

            recv_task = asyncio.ensure_future(recv_striped(listener.accept))
            report = await send_striped(
                dial, data, streams=4, block_bytes=block,
                on_block=on_block,
            )
            got, rreport = await recv_task
            assert hashlib.sha256(got).digest() == hashlib.sha256(data).digest()
            assert report["reconnects"] >= 1
            # No restart-from-zero: retransmission is bounded by the
            # dead stream's unacknowledged inflight, a small fraction
            # of the transfer.
            assert report["bytes_sent"] < 1.5 * len(data)
            assert report["requeued_blocks"] < len(data) // block // 2
            await listener.close()
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


def test_stream_death_without_reconnect_rides_siblings():
    """max_reconnects=0: the dead stream's blocks are requeued onto its
    siblings; the transfer still completes from the restart marker."""

    async def main():
        server, connect, accept = await _loopback_pair()
        data = _payload(1_500_000)
        writers = []

        async def dial():
            r, w = await connect()
            writers.append(w)
            return r, w

        count = [0]

        def on_block(stream_idx, offset, length):
            count[0] += 1
            if count[0] >= 10 and len(writers) > 1 and writers[1]:
                writers[1].transport.abort()
                writers[1] = None

        recv_task = asyncio.ensure_future(recv_striped(accept))
        report = await send_striped(
            dial, data, streams=4, block_bytes=32 * 1024,
            max_reconnects=0, on_block=on_block,
        )
        got, _ = await recv_task
        assert got == data
        assert report["reconnects"] == 0
        server.close()
        await server.wait_closed()

    run(main())


def test_all_streams_dead_raises_stripe_error():
    """With every stream dead and no reconnect budget, the send fails
    loudly instead of hanging."""

    async def main():
        server, connect, accept = await _loopback_pair()
        data = _payload(500_000)
        writers = []

        async def dial():
            r, w = await connect()
            writers.append(w)
            return r, w

        def on_block(stream_idx, offset, length):
            for w in writers:
                w.transport.abort()

        recv_task = asyncio.ensure_future(recv_striped(accept))
        with pytest.raises(StripeError):
            await send_striped(
                dial, data, streams=2, block_bytes=64 * 1024,
                max_reconnects=0, on_block=on_block,
            )
        recv_task.cancel()
        server.close()
        await server.wait_closed()

    run(main())


def test_daemon_stop_aborts_mid_transfer_streams():
    """Satellite: daemon shutdown must abort per-stream sockets
    registered mid-transfer, not leave them (and their pumps) alive."""

    async def main():
        outer, inner, client = await _start_deployment()
        listener = await client.bind()
        host, port = listener.proxy_addr

        # Open a chain and park it mid-transfer (no EOF, data pending).
        r, w = await client.connect(host, port)
        peer_r, peer_w = await listener.accept()
        w.write(b"hello across the relay")
        await w.drain()
        await peer_r.readexactly(22)

        await outer.stop()
        await inner.stop()
        # The parked chain's sockets were aborted by stop(): both ends
        # observe EOF/reset promptly instead of hanging.
        got = await asyncio.wait_for(peer_r.read(1024), timeout=5)
        assert got == b""
        with pytest.raises((ConnectionError, asyncio.IncompleteReadError)):
            data = await asyncio.wait_for(r.read(1024), timeout=5)
            if data == b"":
                raise ConnectionResetError("clean EOF")
        w.close()
        peer_w.close()
        await listener.close()

    run(main())


def test_no_task_runs_per_stream_during_a_transfer():
    """Both ends are protocol-driven: once its first restart marker is
    in, a stream is served by callbacks alone, so late in a 4-stream
    transfer no task exists beyond the test's, the sink's accept loop
    and the pending recv()."""

    async def main():
        server, connect, accept = await _loopback_pair()
        data = _payload(1_000_000)
        block = 16 * 1024
        sink = StripeSink(accept)
        recv_task = asyncio.ensure_future(sink.recv())
        await asyncio.sleep(0)
        expected = asyncio.all_tasks()
        extra = []

        def on_block(stream_idx, offset, length):
            if offset >= len(data) * 3 // 4:
                extra.extend(asyncio.all_tasks() - expected)

        await send_striped(connect, data, streams=4, block_bytes=block,
                           window_blocks=2, on_block=on_block)
        got, _ = await recv_task
        assert got == data
        assert extra == []
        await sink.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_sink_closes_a_dial_that_sends_no_hello(monkeypatch):
    """An idle dial must not pin a sink handler until close(): with no
    hello inside the deadline the sink hangs up."""
    monkeypatch.setattr(streams, "HELLO_TIMEOUT_S", 0.2, raising=False)

    async def main():
        server, connect, accept = await _loopback_pair()
        sink = StripeSink(accept)
        r, w = await connect()
        assert await asyncio.wait_for(r.read(), 5) == b""
        w.close()
        await sink.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_sender_gives_up_on_a_sink_that_never_marks(monkeypatch):
    """A peer that accepts and reads but never sends a restart marker:
    each stream's missing first marker counts as its death, spends the
    reconnect budget, and the send fails instead of hanging."""
    monkeypatch.setattr(streams, "HELLO_TIMEOUT_S", 0.2, raising=False)

    async def main():
        dials = []

        async def swallow(r, w):
            dials.append(1)
            while await r.read(65536):
                pass
            w.close()

        server = await asyncio.start_server(swallow, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]

        async def connect():
            return await asyncio.open_connection("127.0.0.1", port)

        with pytest.raises(StripeError):
            await asyncio.wait_for(
                send_striped(connect, _payload(300_000), streams=2,
                             block_bytes=16 * 1024, max_reconnects=1),
                5,
            )
        assert len(dials) == 4  # two streams, one redial each
        server.close()
        await server.wait_closed()

    run(main())


def test_sender_speaks_the_wire_format_to_a_scripted_sink():
    """Interop, sender side: ``send_striped`` against a sink written by
    hand from the wire format — JSON hello, ``!BQI`` BLOCK and END in,
    an immediate MARK and one per watermark advance out."""

    async def main():
        data = _payload(200_000)
        block = 16 * 1024
        buf = bytearray(len(data))
        have = set()
        state = {"watermark": 0}
        hellos, ends, frames, handlers = [], [], [], []

        async def scripted_sink(r, w):
            handlers.append(asyncio.current_task())
            hellos.append(json.loads(await r.readline()))
            w.write(WIRE.pack(MARK, state["watermark"], 0))
            while True:
                ftype, offset, length = WIRE.unpack(await r.readexactly(WIRE.size))
                if ftype == END:
                    ends.append((offset, length))
                    break
                frames.append((ftype, offset, length))
                buf[offset:offset + length] = await r.readexactly(length)
                have.add(offset)
                before = state["watermark"]
                while state["watermark"] in have:
                    state["watermark"] = min(state["watermark"] + block, len(data))
                if state["watermark"] > before:
                    w.write(WIRE.pack(MARK, state["watermark"], 0))
            w.close()

        server = await asyncio.start_server(scripted_sink, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]

        async def connect():
            return await asyncio.open_connection("127.0.0.1", port)

        report = await send_striped(connect, data, streams=2, block_bytes=block,
                                    xfer_id="feedface00000001")
        # The sender may return before the sink has read its END frames.
        await asyncio.wait_for(asyncio.gather(*handlers), 5)
        assert bytes(buf) == data
        assert sorted(h["stream"] for h in hellos) == [0, 1]
        for h in hellos:
            assert h == {"stripe": 1, "xfer": "feedface00000001", "stream": h["stream"],
                         "streams": 2, "total": len(data), "block": block}
        assert {f[0] for f in frames} == {BLOCK}
        assert all(length == min(block, len(data) - offset) for _, offset, length in frames)
        assert sorted(f[1] for f in frames) == list(range(0, len(data), block))
        assert ends == [(len(data), 0)] * 2
        assert report["bytes_sent"] == len(data)
        server.close()
        await server.wait_closed()

    run(main())


def test_sink_speaks_the_wire_format_to_a_scripted_sender():
    """Interop, sink side: a sender written by hand from the wire format
    against ``StripeSink`` — out-of-order blocks over two streams, the
    immediate marker on each hello, the final marker when the last gap
    fills, EOF after END."""

    async def main():
        server, connect, accept = await _loopback_pair()
        sink = StripeSink(accept)
        recv_task = asyncio.ensure_future(sink.recv())
        data = _payload(100_000)
        block = 16 * 1024
        total = len(data)
        conns = [await connect() for _ in range(2)]
        for i, (r, w) in enumerate(conns):
            w.write(json.dumps({"stripe": 1, "xfer": "cafe0001", "stream": i, "streams": 2,
                                "total": total, "block": block}).encode() + b"\n")
            assert WIRE.unpack(await r.readexactly(WIRE.size)) == (MARK, 0, 0)
        offsets = list(range(0, total, block))
        # Everything but offset 0, highest first: the watermark cannot move.
        for k, offset in enumerate(reversed(offsets[1:])):
            w = conns[k % 2][1]
            w.write(WIRE.pack(BLOCK, offset, min(block, total - offset))
                    + data[offset:offset + block])
        r1, w1 = conns[1]
        w1.write(WIRE.pack(BLOCK, 0, block) + data[:block])
        got, report = await recv_task
        assert got == data
        assert report == {"xfer": "cafe0001", "total_bytes": total, "streams_seen": 2,
                          "duplicate_blocks": 0, "marks_sent": 3}
        assert WIRE.unpack(await r1.readexactly(WIRE.size)) == (MARK, total, 0)
        for r, w in conns:
            w.write(WIRE.pack(END, total, 0))
            assert await asyncio.wait_for(r.read(), 5) == b""
            w.close()
        await sink.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_collected_stream_writers_do_not_close_sink_streams():
    """A sink stream is served by its protocol after the hello, so
    nothing else holds its ``StreamWriter``; collected, that writer
    would close the transport mid-transfer.  The sink must keep it."""

    async def main():
        server, connect, accept = await _loopback_pair()
        sink = StripeSink(accept)
        recv_task = asyncio.ensure_future(sink.recv())
        data = _payload(500_000)
        report = await send_striped(connect, data, streams=2, block_bytes=16 * 1024,
                                    window_blocks=2, on_block=lambda *_: gc.collect())
        got, rreport = await recv_task
        assert got == data
        assert report["reconnects"] == 0 and rreport["streams_seen"] == 2
        await sink.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_straggler_never_writes_into_a_handed_over_buffer():
    """A stream still reading a copy of block 0 in place when another
    stream completes the transfer finishes that copy into scratch: the
    caller's buffer keeps what the caller wrote into it."""

    async def main():
        server, connect, accept = await _loopback_pair()
        sink = StripeSink(accept)
        recv_task = asyncio.ensure_future(sink.recv())
        block = 16 * 1024
        data = _payload(2 * block)
        total = len(data)
        conns = [await connect() for _ in range(2)]
        for i, (r, w) in enumerate(conns):
            w.write(json.dumps({"stripe": 1, "xfer": "cafe0002", "stream": i, "streams": 2,
                                "total": total, "block": block}).encode() + b"\n")
            assert WIRE.unpack(await r.readexactly(WIRE.size)) == (MARK, 0, 0)
        (r0, w0), (r1, w1) = conns
        half = block // 2
        w0.write(WIRE.pack(BLOCK, 0, block) + data[:half])
        # Stream 0 is reading block 0 in place, half of it still to come.
        while not any(st.offset == 0 and st.left == block - half for st in sink._streams):
            await asyncio.sleep(0.005)
        w1.write(WIRE.pack(BLOCK, 0, block) + data[:block]
                 + WIRE.pack(BLOCK, block, block) + data[block:])
        got, report = await recv_task
        assert got == data and report["duplicate_blocks"] == 0
        got[:block] = b"x" * block
        w0.write(data[half:block])
        # The straggler's copy lands as a duplicate: the sink says so.
        assert WIRE.unpack(await r0.readexactly(WIRE.size)) == (MARK, total, 0)
        assert got[:block] == b"x" * block and got[block:] == data[block:]
        for r, w in conns:
            w.write(WIRE.pack(END, total, 0))
            w.close()
        await sink.close()
        server.close()
        await server.wait_closed()

    run(main())
