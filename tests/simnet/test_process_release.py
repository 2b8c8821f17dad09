"""A finished simulated process is freed by refcount, not by the cyclic GC.

Each :class:`~repro.simnet.kernel.Process` caches one bound ``_resume``
for all its waits, which makes it a reference cycle while it runs.  The
kernel drops that cycle when the generator returns or raises, so a
Table 4 pass's ≈ 220 k processes never reach the cyclic collector.
These tests run with the collector disabled and count what it would
have had to free.
"""

from __future__ import annotations

import gc
import types
import weakref

import pytest

from repro.simnet.kernel import Interrupt, Process, Simulator


@pytest.fixture
def no_gc():
    """The collector off, with the garbage of earlier tests gone."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _returns(sim: Simulator) -> None:
    def body():
        yield sim.timeout(1.0)
        return 5

    for _ in range(10):
        sim.process(body())


def _raises_awaited(sim: Simulator) -> None:
    def bad():
        yield sim.timeout(1.0)
        raise ValueError("x")

    def waiter(proc):
        try:
            yield proc
        except ValueError:
            pass

    for _ in range(10):
        sim.process(waiter(sim.process(bad())))


def _raises_defused(sim: Simulator) -> None:
    def bad():
        yield sim.timeout(1.0)
        raise ValueError("x")

    for _ in range(10):
        sim.process(bad()).defuse()


def _interrupted(sim: Simulator) -> None:
    def sleeper():
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            return "interrupted"

    def interrupter(proc):
        yield sim.timeout(1.0)
        proc.interrupt("wake")

    for _ in range(10):
        sim.process(interrupter(sim.process(sleeper())))


@pytest.mark.parametrize(
    "scenario", [_returns, _raises_awaited, _raises_defused, _interrupted]
)
def test_finished_processes_leave_no_cyclic_garbage(no_gc, scenario) -> None:
    sim = Simulator()
    scenario(sim)
    sim.run()
    assert sim.now > 0.0
    assert gc.collect() == 0


def test_sim_relay_echo_leaves_no_process_garbage(no_gc) -> None:
    """Echo 16 B, 4 KiB and 64 KiB over one proxied connection; while
    the world is still alive, none of its finished processes (nor
    their generators) is cyclic garbage."""
    from repro.cluster.testbed import Testbed
    from repro.core.api import NexusProxyClient
    from repro.simnet.socket import SocketError

    tb = Testbed()
    sim = tb.sim
    server = NexusProxyClient(tb.rwcp_sun, **tb.proxy_addrs)
    peer = NexusProxyClient(tb.etl_sun, **tb.proxy_addrs)
    echoed: list[bool] = []

    def echo(listener):
        framed = yield from listener.accept()
        try:
            while True:
                payload, nbytes = yield from framed.recv()
                yield framed.send(payload, nbytes=nbytes)
        except SocketError:
            return

    def client():
        listener = yield from server.bind()
        sim.process(echo(listener), name="echo")
        framed = yield from peer.connect(listener.proxy_addr)
        for nbytes, trips in ((16, 20), (4096, 10), (64 * 1024, 1)):
            for trip in range(trips):
                sent = bytes([trip]) * 16
                yield framed.send(sent, nbytes=nbytes)
                payload, got = yield from framed.recv()
                echoed.append(payload == sent and got == nbytes)

    sim.run(until=sim.process(client(), name="client"))
    assert len(echoed) == 31 and all(echoed)

    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    leaked = [
        type(obj).__name__
        for obj in gc.garbage
        if isinstance(obj, (Process, types.GeneratorType))
    ]
    assert leaked == []
    del tb


def test_table4_rows_do_not_overlap(no_gc, monkeypatch) -> None:
    """Building a row's Testbed frees the previous row's world, without
    waiting for the collector to happen to run."""
    from repro.bench.sweep import Table4Task, run_table4_task
    from repro.bench.table4 import Table4Config
    from repro.cluster import testbed

    built: list[weakref.ref] = []
    real = testbed.Testbed

    def build(*args, **kwargs):
        world = real(*args, **kwargs)
        assert [ref for ref in built if ref() is not None] == []
        # The Testbed object itself dies by refcount; its simulator is
        # part of the world's cycles and lives as long as they do.
        built.append(weakref.ref(world.sim))
        return world

    monkeypatch.setattr(testbed, "Testbed", build)
    config = Table4Config(n_items=24, target_nodes=60_000, seed=5)
    for label, system in (("sequential", None), ("COMPaS", "COMPaS")):
        assert run_table4_task(Table4Task(config, label, system, None))[0] == label
    assert len(built) == 2
