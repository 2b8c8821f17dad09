"""Shared-secret authentication on the relay control port (both planes)."""

import asyncio

import pytest

from repro.core import NexusProxyClient, NXProxyError, RelayConfig
from repro.core.aio import AioInnerServer, AioOuterServer, AioProxyClient

from tests.core.conftest import leak_check


# -- simulated plane -----------------------------------------------------------


def make_secured_deployment():
    from repro.core import InnerServer, OuterServer
    from repro.simnet import Firewall, Network

    cfg = RelayConfig(secret="s3cret")
    net = Network()
    fw = Firewall.typical(reject=True)
    site = net.add_site("rwcp", firewall=fw)
    pa = net.add_host("pa", site=site)
    innerh = net.add_host("innerh", site=site)
    lan = net.add_router("lan", site=site)
    outerh = net.add_host("outerh", cores=2)
    pb = net.add_host("pb")
    net.link(pa, lan, 1e-4, 6.9e6)
    net.link(innerh, lan, 1e-4, 6.9e6)
    net.link(lan, outerh, 1e-4, 6.9e6)
    net.link(outerh, pb, 3.5e-3, 187.5e3)
    outer = OuterServer(outerh, cfg).start()
    inner = InnerServer(innerh, cfg)
    inner.open_firewall_pinhole("outerh")
    inner.start()
    return net, cfg, pa, pb, outer, inner


def test_sim_correct_secret_accepted():
    net, cfg, pa, pb, outer, inner = make_secured_deployment()
    out = {}

    def server():
        ls = pb.listen(9000)
        conn = yield ls.accept()
        from repro.core import FramedConnection

        framed = FramedConnection(conn, cfg.chunk_bytes)
        payload, _ = yield from framed.recv()
        out["got"] = payload

    def client():
        proxy = NexusProxyClient(pa, outer_addr=outer.control_addr,
                                 inner_addr=inner.addr, config=cfg)
        framed = yield from proxy.connect(("pb", 9000))
        yield framed.send("authenticated", nbytes=64)

    net.sim.process(server())
    net.sim.process(client())
    net.sim.run()
    assert out["got"] == "authenticated"


def test_sim_wrong_secret_refused():
    net, cfg, pa, pb, outer, inner = make_secured_deployment()
    bad_cfg = cfg.with_overrides(secret="wrong")

    def client():
        proxy = NexusProxyClient(pa, outer_addr=outer.control_addr,
                                 inner_addr=inner.addr, config=bad_cfg)
        with pytest.raises(NXProxyError, match="authentication failed"):
            yield from proxy.connect(("pb", 9000))
        with pytest.raises(NXProxyError, match="authentication failed"):
            yield from proxy.bind()
        return True

    p = net.sim.process(client())
    net.sim.run()
    assert p.value is True
    assert outer.stats.failed_requests == 2


def test_sim_missing_secret_refused():
    net, cfg, pa, pb, outer, inner = make_secured_deployment()
    no_secret = cfg.with_overrides(secret=None)

    def client():
        proxy = NexusProxyClient(pa, outer_addr=outer.control_addr,
                                 inner_addr=inner.addr, config=no_secret)
        with pytest.raises(NXProxyError, match="authentication failed"):
            yield from proxy.connect(("pb", 9000))
        return True

    p = net.sim.process(client())
    net.sim.run()
    assert p.value is True


# -- live plane ---------------------------------------------------------------------


def run(coro):
    """Run one live test under the leak check: every socket and task
    it started must be gone when it returns."""

    async def checked():
        async with leak_check():
            return await coro

    return asyncio.run(asyncio.wait_for(checked(), timeout=20))


def test_aio_secret_enforced():
    async def main():
        outer = await AioOuterServer(secret="hunter2").start()
        inner = await AioInnerServer().start()

        async def echo(reader, writer):
            data = await reader.read(100)
            writer.write(data)
            await writer.drain()
            writer.close()

        echo_srv = await asyncio.start_server(echo, "127.0.0.1", 0)
        echo_port = echo_srv.sockets[0].getsockname()[1]
        try:
            good = AioProxyClient(
                outer_addr=("127.0.0.1", outer.control_port),
                inner_addr=("127.0.0.1", inner.nxport),
                secret="hunter2",
            )
            r, w = await good.connect("127.0.0.1", echo_port)
            w.write(b"ok")
            await w.drain()
            assert await r.readexactly(2) == b"ok"
            w.close()

            bad = AioProxyClient(
                outer_addr=("127.0.0.1", outer.control_port),
                inner_addr=("127.0.0.1", inner.nxport),
                secret="wrong",
            )
            with pytest.raises(NXProxyError, match="authentication failed"):
                await bad.connect("127.0.0.1", echo_port)
            with pytest.raises(NXProxyError, match="authentication failed"):
                await bad.bind()

            anonymous = AioProxyClient(
                outer_addr=("127.0.0.1", outer.control_port),
                inner_addr=("127.0.0.1", inner.nxport),
            )
            with pytest.raises(NXProxyError, match="authentication failed"):
                await anonymous.connect("127.0.0.1", echo_port)
            assert outer.stats.failed_requests == 3
        finally:
            echo_srv.close()
            await outer.stop()
            await inner.stop()

    run(main())


def test_aio_no_secret_means_open():
    async def main():
        outer = await AioOuterServer().start()  # no secret
        try:
            client = AioProxyClient(outer_addr=("127.0.0.1", outer.control_port))
            # Request with a gratuitous secret is fine too.
            client.secret = "whatever"
            with pytest.raises(NXProxyError, match="connect failed"):
                await client.connect("127.0.0.1", 1)  # auth passed, dest dead
        finally:
            await outer.stop()

    run(main())
