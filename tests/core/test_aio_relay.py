"""Live (asyncio, real-socket) Nexus Proxy integration tests.

Everything runs on loopback with ephemeral ports; each test spins up
its own daemons and tears them down.
"""

import asyncio
import contextlib
import json
import socket
import time

import pytest

from repro.core.aio import (
    AioInnerServer,
    AioOuterServer,
    AioProxyClient,
    GuardedDialer,
)
from repro.core.aio import api, mux, relay
from repro.core.aio.mux import ChainReset, MuxConnector
from repro.core.protocol import NXProxyError
from repro.simnet.firewall import Firewall, FirewallBlocked

from tests.core.conftest import leak_check


def run(coro):
    """Run one live test under the leak check: every socket and task
    it started must be gone when it returns."""

    async def checked():
        async with leak_check():
            return await coro

    return asyncio.run(asyncio.wait_for(checked(), timeout=20))


async def start_deployment():
    outer = await AioOuterServer().start()
    inner = await AioInnerServer().start()
    client = AioProxyClient(
        outer_addr=("127.0.0.1", outer.control_port),
        inner_addr=("127.0.0.1", inner.nxport),
    )
    return outer, inner, client


async def start_echo_server():
    async def echo(reader, writer):
        while True:
            data = await reader.read(4096)
            if not data:
                break
            writer.write(data)
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(echo, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_active_open_relays_bytes():
    async def main():
        outer, inner, client = await start_deployment()
        echo_srv, echo_port = await start_echo_server()
        try:
            reader, writer = await client.connect("127.0.0.1", echo_port)
            writer.write(b"hello through the relay")
            await writer.drain()
            got = await reader.readexactly(23)
            assert got == b"hello through the relay"
            writer.close()
            await asyncio.sleep(0.05)
            assert outer.stats.active_connects == 1
            assert outer.stats.bytes_relayed >= 46  # both directions
        finally:
            echo_srv.close()
            await outer.stop()
            await inner.stop()

    run(main())


def test_active_open_large_transfer():
    async def main():
        outer, inner, client = await start_deployment()
        echo_srv, echo_port = await start_echo_server()
        payload = bytes(range(256)) * 4096  # 1 MiB
        try:
            reader, writer = await client.connect("127.0.0.1", echo_port)
            writer.write(payload)
            await writer.drain()
            writer.write_eof()
            got = await reader.readexactly(len(payload))
            assert got == payload
            writer.close()
        finally:
            echo_srv.close()
            await outer.stop()
            await inner.stop()

    run(main())


def test_connect_to_dead_port_reports_error():
    async def main():
        outer, inner, client = await start_deployment()
        try:
            with pytest.raises(NXProxyError, match="connect failed"):
                await client.connect("127.0.0.1", 1)  # nothing listens there
            assert outer.stats.failed_requests == 1
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


@contextlib.contextmanager
def black_hole():
    """A loopback port whose SYNs go unanswered: a ``listen(0)``
    listener whose accept queue is already full of unaccepted
    connects, so a further dial hangs until its caller gives up."""
    lsock = socket.socket()
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(0)
    port = lsock.getsockname()[1]
    fillers = []
    try:
        for _ in range(4):
            s = socket.socket()
            fillers.append(s)
            s.setblocking(False)
            with contextlib.suppress(BlockingIOError):
                s.connect(("127.0.0.1", port))
        time.sleep(0.1)  # let the handshakes fill the queue
        yield port
    finally:
        for s in fillers:
            s.close()
        lsock.close()


def test_active_connect_to_black_hole_times_out(monkeypatch):
    monkeypatch.setattr(relay, "DIAL_TIMEOUT_S", 0.3)

    async def main():
        outer, inner, client = await start_deployment()
        try:
            with black_hole() as port:
                with pytest.raises(NXProxyError, match="connect timed out"):
                    await asyncio.wait_for(client.connect("127.0.0.1", port), 3)
            assert outer.stats.failed_requests == 1
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


def test_passive_open_to_black_hole_times_out(monkeypatch):
    monkeypatch.setattr(mux, "DIAL_TIMEOUT_S", 0.3)

    async def main():
        inner = await AioInnerServer().start()
        link = MuxConnector("127.0.0.1", inner.nxport, AioOuterServer().stats)
        try:
            with black_hole() as port:
                with pytest.raises(ChainReset, match="connect timed out"):
                    await asyncio.wait_for(link.open_chain("127.0.0.1", port), 3)
            assert inner.stats.failed_requests == 1
        finally:
            await link.stop()
            await inner.stop()

    run(main())


async def _handshake_with_silent_outer(handshake):
    """Run ``handshake(client)`` against a control port that accepts and
    never answers; the client must give up with a typed error and close
    its end."""
    accepted = []

    async def hold(reader, writer):
        accepted.append((reader, writer))

    server = await asyncio.start_server(hold, "127.0.0.1", 0)
    client = AioProxyClient(
        outer_addr=("127.0.0.1", server.sockets[0].getsockname()[1]),
        inner_addr=("127.0.0.1", 1),
    )
    try:
        with pytest.raises(NXProxyError, match="timed out"):
            await asyncio.wait_for(handshake(client), 3)
        reader, _writer = accepted[0]
        assert b'"op"' in await reader.readline()  # the request arrived
        assert await reader.read() == b""  # then the client hung up
    finally:
        for _reader, writer in accepted:
            writer.close()
        server.close()
        await server.wait_closed()


def test_connect_to_silent_outer_times_out(monkeypatch):
    monkeypatch.setattr(api, "HANDSHAKE_TIMEOUT_S", 0.2, raising=False)
    run(_handshake_with_silent_outer(lambda c: c.connect("127.0.0.1", 1)))


def test_bind_to_silent_outer_times_out(monkeypatch):
    monkeypatch.setattr(api, "HANDSHAKE_TIMEOUT_S", 0.2, raising=False)
    run(_handshake_with_silent_outer(lambda c: c.bind()))


def test_handshake_deadline_outlasts_the_outer_dial():
    assert api.HANDSHAKE_TIMEOUT_S > mux.DIAL_TIMEOUT_S


def test_passive_open_full_chain():
    """Fig. 4 on real sockets: peer -> outer -> inner -> client."""

    async def main():
        outer, inner, client = await start_deployment()
        try:
            listener = await client.bind()
            proxy_host, proxy_port = listener.proxy_addr
            assert proxy_port != listener.local_addr[1]

            async def peer():
                r, w = await asyncio.open_connection(proxy_host, proxy_port)
                w.write(b"knock knock")
                await w.drain()
                reply = await r.readexactly(7)
                w.close()
                return reply

            peer_task = asyncio.create_task(peer())
            r, w = await listener.accept(timeout=10)
            data = await r.readexactly(11)
            assert data == b"knock knock"
            w.write(b"come in")
            await w.drain()
            assert await peer_task == b"come in"
            w.close()
            await listener.close()
            assert outer.stats.passive_binds == 1
            assert outer.stats.passive_chains == 1
            assert inner.stats.passive_chains == 1
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


def test_bind_released_on_listener_close():
    async def main():
        outer, inner, client = await start_deployment()
        try:
            listener = await client.bind()
            proxy_host, proxy_port = listener.proxy_addr
            await listener.close()
            await asyncio.sleep(0.1)  # let the outer server notice EOF
            with pytest.raises((ConnectionRefusedError, OSError)):
                await asyncio.open_connection(proxy_host, proxy_port)
        finally:
            await outer.stop()
            await inner.stop()

    run(main())


def test_multiple_concurrent_relayed_streams():
    async def main():
        outer, inner, client = await start_deployment()
        echo_srv, echo_port = await start_echo_server()

        async def one(i):
            reader, writer = await client.connect("127.0.0.1", echo_port)
            msg = f"stream-{i}".encode() * 100
            writer.write(msg)
            await writer.drain()
            got = await reader.readexactly(len(msg))
            writer.close()
            return got == msg

        try:
            results = await asyncio.gather(*[one(i) for i in range(8)])
            assert all(results)
            assert outer.stats.active_connects == 8
        finally:
            echo_srv.close()
            await outer.stop()
            await inner.stop()

    run(main())


def test_garbage_on_control_port_is_rejected():
    async def main():
        outer = await AioOuterServer().start()
        try:
            r, w = await asyncio.open_connection("127.0.0.1", outer.control_port)
            w.write(b"GET / HTTP/1.0\r\n\r\n")
            await w.drain()
            line = await r.readline()
            assert b'"ok":false' in line
            w.close()
            assert outer.stats.failed_requests == 1
        finally:
            await outer.stop()

    run(main())


def test_unknown_op_rejected():
    async def main():
        outer = await AioOuterServer().start()
        try:
            r, w = await asyncio.open_connection("127.0.0.1", outer.control_port)
            w.write(b'{"op": "teleport"}\n')
            await w.drain()
            line = await r.readline()
            assert b'"ok":false' in line and b"unknown op" in line
            w.close()
        finally:
            await outer.stop()

    run(main())


def test_inner_rejects_bad_request():
    async def main():
        inner = await AioInnerServer().start()
        try:
            r, w = await asyncio.open_connection("127.0.0.1", inner.nxport)
            w.write(b'{"op": "connect", "host": "x", "port": 1}\n')
            await w.drain()
            line = await r.readline()
            assert b'"ok":false' in line
            w.close()
            assert inner.stats.failed_requests == 1
        finally:
            await inner.stop()

    run(main())


async def _idle_until_refused(port):
    """Connect, send nothing, and wait (bounded) for the server's reply."""
    r, w = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await asyncio.wait_for(r.readline(), timeout=5)
    finally:
        w.close()


def test_idle_control_connection_refused_after_deadline(monkeypatch):
    from repro.core.aio import relay

    monkeypatch.setattr(relay, "FIRST_LINE_TIMEOUT_S", 0.2, raising=False)

    async def main():
        outer = await AioOuterServer().start()
        try:
            line = await _idle_until_refused(outer.control_port)
            assert b'"ok":false' in line and b"deadline" in line
            assert outer.stats.failed_requests == 1
        finally:
            await outer.stop()

    run(main())


def test_idle_nxport_connection_refused_after_deadline(monkeypatch):
    from repro.core.aio import relay

    monkeypatch.setattr(relay, "FIRST_LINE_TIMEOUT_S", 0.2, raising=False)

    async def main():
        inner = await AioInnerServer().start()
        try:
            line = await _idle_until_refused(inner.nxport)
            assert b'"ok":false' in line and b"deadline" in line
            assert inner.stats.failed_requests == 1
        finally:
            await inner.stop()

    run(main())


def test_invalid_port_rejected():
    async def main():
        outer = await AioOuterServer().start()
        try:
            r, w = await asyncio.open_connection("127.0.0.1", outer.control_port)
            w.write(b'{"op": "connect", "host": "127.0.0.1", "port": "nope"}\n')
            await w.drain()
            line = await r.readline()
            assert b'"ok":false' in line
            w.close()
        finally:
            await outer.stop()

    run(main())


@pytest.mark.parametrize("request_msg", [
    {"op": "connect", "host": 5, "port": 80},
    {"op": "connect", "host": ["a"], "port": 80},
    {"op": "connect", "host": "a\x00b", "port": 80},
    {"op": "connect", "host": "a..b", "port": 80},
    {"op": "bind", "client_host": 5, "client_port": 9,
     "inner_host": 7, "inner_port": 9},
])
def test_malformed_host_gets_typed_refusal(request_msg):
    """A hostile ``host`` field must not escape the handler as a
    TypeError/ValueError (bare close, uncounted) nor publish a port."""

    async def main():
        outer = await AioOuterServer().start()
        try:
            r, w = await asyncio.open_connection("127.0.0.1", outer.control_port)
            w.write(json.dumps(request_msg).encode() + b"\n")
            await w.drain()
            reply = json.loads(await asyncio.wait_for(r.readline(), 5))
            assert reply["ok"] is False and "invalid host" in reply["error"]
            assert await r.read() == b""
            w.close()
            assert outer.stats.failed_requests == 1
            assert outer.stats.passive_binds == 0
            assert not outer._public_servers
        finally:
            await outer.stop()

    run(main())


def test_client_without_outer_is_direct():
    async def main():
        echo_srv, echo_port = await start_echo_server()
        try:
            client = AioProxyClient()  # no proxy configured
            assert not client.enabled
            reader, writer = await client.connect("127.0.0.1", echo_port)
            writer.write(b"direct")
            await writer.drain()
            assert await reader.readexactly(6) == b"direct"
            writer.close()
        finally:
            echo_srv.close()

    run(main())


def test_bind_requires_configuration():
    async def main():
        with pytest.raises(NXProxyError):
            await AioProxyClient().bind()
        with pytest.raises(NXProxyError, match="inner server"):
            await AioProxyClient(outer_addr=("127.0.0.1", 1)).bind()

    run(main())


def test_guarded_dialer_enforces_policy():
    """The loopback 'firewall': inbound denied, proxy path allowed."""

    async def main():
        outer, inner, client = await start_deployment()
        echo_srv, echo_port = await start_echo_server()
        fw = Firewall.typical(name="rwcp", reject=True)
        dialer = GuardedDialer(
            site_of={"pa": "rwcp", "innerh": "rwcp"},  # pb/outerh outside
            firewalls={"rwcp": fw},
            resolve={"pa": ("127.0.0.1", echo_port)},
        )
        try:
            # Outside cannot dial the inside echo server...
            with pytest.raises(FirewallBlocked):
                await dialer.open_connection("pb", "pa")
            # ...but inside can dial out (to the outer server).
            r, w = await dialer.open_connection(
                "pa", "outerh", host="127.0.0.1", port=outer.control_port
            )
            w.close()
            assert fw.denied  # inbound denial was recorded
        finally:
            echo_srv.close()
            await outer.stop()
            await inner.stop()

    run(main())


def test_inner_allowed_peers_enforced():
    """The nxport daemon's defence-in-depth source check."""

    async def main():
        open_inner = await AioInnerServer(allowed_peers=["127.0.0.1"]).start()
        closed_inner = await AioInnerServer(allowed_peers=["203.0.113.9"]).start()
        try:
            # Permitted source: a protocol error reply, not a refusal.
            dialled = []
            target = await asyncio.start_server(
                lambda _r, tw: (dialled.append(1), tw.close()), "127.0.0.1", 0
            )
            tport = target.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", open_inner.nxport)
            w.write(b'{"op": "bogus"}\n')
            await w.drain()
            line = await r.readline()
            assert b"NXMUX/1 only" in line
            w.close()
            # ... including for the per-chain ``relayto`` op, which only
            # the sim plane speaks: typed refusal, nothing dialled.
            r, w = await asyncio.open_connection("127.0.0.1", open_inner.nxport)
            w.write(json.dumps(
                {"op": "relayto", "host": "127.0.0.1", "port": tport}
            ).encode() + b"\n")
            await w.drain()
            assert json.loads(await r.readline()) == {
                "ok": False, "error": "nxport speaks NXMUX/1 only"
            }
            assert await r.read() == b""
            w.close()
            assert open_inner.stats.failed_requests == 2
            assert open_inner.stats.passive_chains == 0
            assert not dialled
            target.close()
            await target.wait_closed()
            # Forbidden source: refused before any protocol handling.
            r, w = await asyncio.open_connection("127.0.0.1", closed_inner.nxport)
            w.write(b'{"op": "relayto", "host": "x", "port": 1}\n')
            await w.drain()
            line = await r.readline()
            assert b"not permitted" in line
            w.close()
            assert closed_inner.stats.failed_requests == 1
        finally:
            await open_inner.stop()
            await closed_inner.stop()

    run(main())
