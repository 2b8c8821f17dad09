"""Mux observability under faults, and tagged/untagged interop.

Satellite guarantees under test:

* Every chain the mux plane opens produces exactly one closed
  ``mux/chain`` wall span — including chains killed by a link drop —
  so an aborted link can never leak an open span or lose the chain's
  byte accounting.
* Stall/reconnect counters survive the drop (monotonic across link
  generations, never reset).
* A tagging client interoperates with untagged (seed-format) peers in
  both directions: extra ``tctx`` keys are ignored by old inners, and
  missing ones leave the new code's contexts ``None``.
"""

import asyncio

import pytest

from repro.core.aio import AioInnerServer, AioOuterServer, AioProxyClient
from repro.obs import spans, trace

from tests.core.conftest import leak_check


def run(coro):
    """Run one live test under the leak check: every socket and task
    it started must be gone when it returns."""

    async def checked():
        async with leak_check():
            return await coro

    return asyncio.run(asyncio.wait_for(checked(), timeout=30))


@pytest.fixture(autouse=True)
def _obs_env():
    rec = spans.install()
    trace.enable("t")
    yield rec
    trace.disable()
    spans.uninstall()


async def start_deployment():
    outer = await AioOuterServer().start()
    inner = await AioInnerServer().start()
    client = AioProxyClient(
        outer_addr=("127.0.0.1", outer.control_port),
        inner_addr=("127.0.0.1", inner.nxport),
    )
    return outer, inner, client


async def echo_chain(listener):
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


def _chain_spans(rec):
    return [ev for ev in rec.events
            if ev.cat == "mux" and ev.name == "chain" and ev.ph == "X"]


def test_chain_spans_closed_across_link_drop(_obs_env):
    """Drop the mux link under a live chain: the chain's lifecycle
    span still closes, and post-reconnect chains record their own."""
    rec = _obs_env

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

            link = outer.mux_link("127.0.0.1", inner.nxport)
            await link.drop_link()
            assert await r1.read(4096) == b""
            w1.close()
            await asyncio.sleep(0.05)

            r2, w2 = await asyncio.open_connection(host, port)
            w2.write(b"recovered")
            await w2.drain()
            assert await r2.readexactly(9) == b"recovered"
            w2.write_eof()
            await r2.read(-1)
            w2.close()
            await asyncio.sleep(0.05)

            assert outer.stats.mux_reconnects == 1
            echo_task.cancel()
            await listener.close()
        finally:
            await outer.stop()
            await inner.stop()
        # Both sides recorded a closed chain span for every chain of
        # both link generations: 2 chains x 2 daemons.
        chains = _chain_spans(rec)
        assert len(chains) == 4, [(e.track, e.args) for e in chains]
        assert all(ev.dur >= 0 for ev in chains)
        # Chains carry their causal tag (bind minted one) even after
        # the reconnect.
        tagged = [ev for ev in chains if "trace" in ev.args]
        assert len(tagged) == 4
        # Byte accounting survived the drop: the healed chain moved
        # its 9 bytes.
        assert any(ev.args.get("bytes", 0) >= 9 for ev in chains)

    run(main())


def test_window_stall_counter_survives_reconnect(_obs_env):
    """mux_window_stalls and frame counters are cumulative across link
    generations — a reconnect must never reset them."""

    async def main():
        outer, inner, client = await start_deployment()
        try:
            listener = await client.bind()
            echo_task = asyncio.ensure_future(echo_chain(listener))
            host, port = listener.proxy_addr

            r1, w1 = await asyncio.open_connection(host, port)
            blob = b"x" * (1 << 20)
            w1.write(blob)
            await w1.drain()
            got = bytearray()
            while len(got) < len(blob):
                got.extend(await r1.read(1 << 16))
            w1.close()
            frames_before = outer.stats.mux_frames
            stalls_before = outer.stats.mux_window_stalls
            assert frames_before > 0

            link = outer.mux_link("127.0.0.1", inner.nxport)
            await link.drop_link()
            await asyncio.sleep(0.05)

            r2, w2 = await asyncio.open_connection(host, port)
            w2.write(blob)
            await w2.drain()
            got = bytearray()
            while len(got) < len(blob):
                got.extend(await r2.read(1 << 16))
            w2.close()
            assert outer.stats.mux_frames > frames_before
            assert outer.stats.mux_window_stalls >= stalls_before
            echo_task.cancel()
            await listener.close()
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


def test_tagging_client_vs_untagged_relayto(_obs_env):
    """Seed-wire-format clients interoperate with a tagging deployment:
    ``tctx`` is one extra key on the JSON control line, and its absence
    parses to None."""
    rec = _obs_env

    async def main():
        outer, inner, _client = await start_deployment()
        try:
            # Seed-format control line (no tctx key) still relays.
            import json as _json

            cr, cw = await asyncio.open_connection(
                "127.0.0.1", outer.control_port
            )
            target_r, target_w = None, None

            async def sink(sr, sw):
                nonlocal target_r, target_w
                target_r, target_w = sr, sw

            srv = await asyncio.start_server(sink, "127.0.0.1", 0)
            tport = srv.sockets[0].getsockname()[1]
            cw.write(_json.dumps(
                {"op": "connect", "host": "127.0.0.1", "port": tport}
            ).encode() + b"\n")
            await cw.drain()
            reply = _json.loads((await cr.readline()).decode())
            assert reply.get("ok")
            cw.write(b"untagged payload")
            await cw.drain()
            await asyncio.sleep(0.1)
            data = await target_r.read(4096)
            assert data == b"untagged payload"
            cw.close()
            target_w.close()
            srv.close()
            await srv.wait_closed()
        finally:
            await outer.stop()
            await inner.stop()

    run(main())
    # The untagged connect recorded its span with NO trace args.
    connects = [ev for ev in rec.events if ev.name == "active_chain"]
    assert connects
    assert all("trace" not in ev.args for ev in connects)
