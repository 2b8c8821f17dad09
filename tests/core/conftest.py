"""Shared fixtures: a leak check for live-plane tests, and a miniature
firewalled deployment.

Topology (a reduced Fig. 5)::

    pa, innerh, lan   -- inside site "rwcp" (deny-based firewall)
    outerh, pb        -- outside (the Internet)

    pa -- lan -- outerh -- pb
    innerh -- lan

The firewall rejects (rather than drops) in tests so that blocked
connects fail fast instead of burning simulated timeout.
"""

import asyncio
import contextlib
import os

import pytest

from repro.core import InnerServer, NexusProxyClient, OuterServer, RelayConfig
from repro.simnet import Firewall, Network


@contextlib.asynccontextmanager
async def leak_check():
    """Everything started inside is gone on exit: no task but the
    caller's, no file descriptor that was not open before."""
    tasks0 = asyncio.all_tasks()
    fds0 = set(os.listdir("/proc/self/fd"))
    yield
    for _ in range(200):
        tasks = asyncio.all_tasks() - tasks0
        fds = set(os.listdir("/proc/self/fd")) - fds0
        if not tasks and not fds:
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"leaked tasks {tasks} / fds {sorted(fds)}")


class Deployment:
    def __init__(self, config: RelayConfig = RelayConfig()) -> None:
        self.config = config
        self.net = Network()
        self.fw = Firewall.typical(reject=True)
        self.rwcp = self.net.add_site("rwcp", firewall=self.fw)
        self.pa = self.net.add_host("pa", site=self.rwcp)
        self.innerh = self.net.add_host("innerh", site=self.rwcp)
        self.lan = self.net.add_router("lan", site=self.rwcp)
        self.outerh = self.net.add_host("outerh", cores=2)
        self.pb = self.net.add_host("pb")
        self.net.link(self.pa, self.lan, 0.1e-3, 6.9e6)
        self.net.link(self.innerh, self.lan, 0.1e-3, 6.9e6)
        self.net.link(self.lan, self.outerh, 0.1e-3, 6.9e6)
        self.net.link(self.outerh, self.pb, 3.5e-3, 187.5e3)
        self.outer = OuterServer(self.outerh, config)
        self.inner = InnerServer(self.innerh, config)
        self.inner.open_firewall_pinhole("outerh")
        self.outer.start()
        self.inner.start()

    @property
    def sim(self):
        return self.net.sim

    def client(self, host=None) -> NexusProxyClient:
        return NexusProxyClient(
            host or self.pa,
            outer_addr=self.outer.control_addr,
            inner_addr=self.inner.addr,
            config=self.config,
        )


@pytest.fixture
def dep() -> Deployment:
    return Deployment()
