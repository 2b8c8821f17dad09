"""Shared fixtures: leak checks for live-plane tests, and a miniature
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
import time
from multiprocessing import resource_tracker

import pytest

from repro.core import InnerServer, NexusProxyClient, OuterServer, RelayConfig
from repro.simnet import Firewall, Network


def _fds() -> "set[str]":
    """The fds open now.  The listing is read through a directory fd
    opened here (and ``os.listdir``'s dup of it); neither is counted,
    so a snapshot does not depend on which fd numbers were free."""
    own = os.open("/proc/self/fd", os.O_RDONLY | os.O_DIRECTORY)
    try:
        listed = os.listdir(own)
        # The dup is closed by now: keep only what is still open.
        return {fd for fd in listed
                if fd != str(own) and os.path.lexists(f"/proc/self/fd/{fd}")}
    finally:
        os.close(own)


@contextlib.asynccontextmanager
async def leak_check():
    """Everything started inside is gone on exit: no task but the
    caller's, no file descriptor that was not open before."""
    tasks0 = asyncio.all_tasks()
    fds0 = _fds()
    yield
    for _ in range(200):
        tasks = asyncio.all_tasks() - tasks0
        fds = _fds() - fds0
        if not tasks and not fds:
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"leaked tasks {tasks} / fds {sorted(fds)}")


@pytest.fixture(autouse=True)
def no_fd_leak():
    """The fd half of :func:`leak_check` around every test here, so a
    live test cannot opt out of it."""
    # The first spawned fleet worker starts multiprocessing's resource
    # tracker, whose pipe stays open for the life of the process.
    resource_tracker.ensure_running()
    fds0 = _fds()
    yield
    for _ in range(200):
        fds = _fds() - fds0
        if not fds:
            return
        time.sleep(0.01)
    raise AssertionError(f"leaked fds {sorted(fds)}")


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
