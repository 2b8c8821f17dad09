"""Fast-path kernel regressions: the shipped kernel's fast path
(callback slot, Timeout free-list, inlined drain loop, resume released
at the end) must be behaviourally invisible against the seed kernel
kept in :mod:`tests.simnet.seed_kernel`.

Two layers of guarantee:

* scenario tests exercising the edge cases the fast path could
  plausibly break — interrupt delivery while waiting on a condition,
  same-instant FIFO dispatch through the slot/list promotion,
  strict-failure propagation out of ``run()``, and free-list recycling
  never resurrecting state a caller still holds;
* a trace-hash determinism test: the *exact* event trace (time +
  event type, in dispatch order) of a real wide-area knapsack run is
  bit-identical between the seed kernel and the shipped one.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.simnet.kernel import (
    AnyOf,
    Interrupt,
    SimError,
    Simulator,
    Timeout,
)
from tests.simnet import seed_kernel


@pytest.fixture(params=["seed", "fast"])
def sim(request) -> Simulator:
    return seed_kernel.Simulator() if request.param == "seed" else Simulator()


# -- interrupt during AnyOf ---------------------------------------------------


def test_interrupt_during_anyof(sim: Simulator) -> None:
    """An interrupt mid-AnyOf detaches the waiter; the process can
    catch it and wait again on the still-pending events."""
    log: list = []
    a = sim.event()
    b = sim.event()

    def firer():
        yield sim.timeout(10.0)
        a.succeed("a")
        yield sim.timeout(10.0)
        b.succeed("b")

    def waiter():
        try:
            yield AnyOf(sim, [a, b])
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        # Wait again: the original events are still live.
        got = yield AnyOf(sim, [a, b])
        log.append(("woke", sim.now, sorted(got.values())))

    def interrupter(target):
        yield sim.timeout(5.0)
        target.interrupt("steal-request")

    sim.process(firer())
    proc = sim.process(waiter())
    sim.process(interrupter(proc))
    sim.run()
    assert log == [
        ("interrupted", 5.0, "steal-request"),
        ("woke", 10.0, ["a"]),
    ]


def test_interrupt_of_finished_process_is_noop(sim: Simulator) -> None:
    def quick():
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(quick())
    sim.run()
    proc.interrupt("too late")
    sim.run()
    assert proc.value == "done"


# -- same-instant FIFO --------------------------------------------------------


def test_same_instant_timeouts_fire_in_scheduling_order(sim: Simulator) -> None:
    order: list[int] = []

    def waiter(tag: int, delay: float):
        yield sim.timeout(delay)
        order.append(tag)

    # Three timeouts for the same instant, scheduled 0..2; then one
    # earlier-scheduled but later-firing timeout to prove the key is
    # (time, eid), not just eid.
    sim.process(waiter(0, 5.0))
    sim.process(waiter(1, 5.0))
    sim.process(waiter(2, 5.0))
    sim.process(waiter(3, 4.0))
    sim.run()
    assert order == [3, 0, 1, 2]


def test_multiwaiter_dispatch_is_fifo(sim: Simulator) -> None:
    """Slot -> list promotion keeps registration order, and a raw
    callback appended through the public list after two waiters have
    registered still dispatches last."""
    ev = sim.event()
    order: list[str] = []

    def waiter(tag: str):
        yield ev
        order.append(tag)

    sim.process(waiter("first"))
    sim.process(waiter("second"))

    def trigger():
        yield sim.timeout(1.0)
        # Both waiters are registered by now (slot promoted to list);
        # materializing the public list must preserve their order.
        cbs = ev.callbacks
        assert cbs is not None and len(cbs) == 2
        cbs.append(lambda e: order.append("third"))
        ev.succeed()

    sim.process(trigger())
    sim.run()
    assert order == ["first", "second", "third"]


def test_slot_promotion_direct() -> None:
    """_add_callback: slot for one waiter, promotion to a list for the
    second, public materialization for the third — FIFO throughout."""
    sim = Simulator()
    ev = sim.event()
    order: list[str] = []
    ev._add_callback(lambda e: order.append("first"))
    assert ev._cb1 is not None and ev._cbs is None
    ev._add_callback(lambda e: order.append("second"))
    assert ev._cb1 is None and len(ev._cbs) == 2
    ev.callbacks.append(lambda e: order.append("third"))
    ev.succeed()
    sim.run()
    assert order == ["first", "second", "third"]


def test_callbacks_is_none_after_processing(sim: Simulator) -> None:
    ev = sim.event()
    assert ev.callbacks == []
    ev.succeed("v")
    sim.run()
    assert ev.processed
    assert ev.callbacks is None


# -- strict failure -----------------------------------------------------------


def test_unwaited_failed_event_raises_out_of_run(sim: Simulator) -> None:
    class Boom(RuntimeError):
        pass

    sim.event().fail(Boom("nobody listening"))
    with pytest.raises(Boom):
        sim.run()


def test_unwaited_failed_process_raises_out_of_run(sim: Simulator) -> None:
    def dies():
        yield sim.timeout(1.0)
        raise ValueError("daemon died")

    sim.process(dies())
    with pytest.raises(ValueError, match="daemon died"):
        sim.run()


def test_defused_failure_does_not_raise(sim: Simulator) -> None:
    ev = sim.event()
    ev.fail(RuntimeError("handled"))
    ev.defuse()
    sim.run()
    assert not ev.ok


# -- free-list safety ---------------------------------------------------------


def test_pool_never_recycles_a_held_timeout() -> None:
    sim = Simulator()
    held = sim.timeout(1.0, value="keep-me")
    sim.run()
    assert held.processed and held.value == "keep-me"
    # The held timeout must not come back from the pool.
    fresh = [sim.timeout(float(i)) for i in range(8)]
    assert all(t is not held for t in fresh)
    sim.run()
    assert held.value == "keep-me"


def test_recycled_timeouts_have_fresh_state() -> None:
    sim = Simulator()
    times: list[tuple[float, object]] = []

    def looper():
        for i in range(50):
            value = yield sim.timeout(1.0, value=i)
            times.append((sim.now, value))

    sim.process(looper())
    sim.run()
    assert times == [(float(i + 1), i) for i in range(50)]
    # Recycling happened (pool non-empty) yet every wait saw its own
    # delay and value.
    assert sim._pool, "free-list never engaged"


def test_pooled_timeout_class_only() -> None:
    """Subclasses (Process, _Initialize, conditions) are never pooled."""
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        return "x"

    proc = sim.process(body(), name="p")
    sim.run()
    assert all(type(t) is Timeout for t in sim._pool)
    assert proc.value == "x"


# -- misc kernel contract kept by both kernels ---------------------------------


def test_negative_timeout_rejected(sim: Simulator) -> None:
    with pytest.raises(SimError):
        sim.timeout(-0.5)
    # Also on the pooled path.
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimError):
        sim.timeout(-0.5)


def test_events_scheduled_counts_posts(sim: Simulator) -> None:
    base = sim.events_scheduled

    def body():
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    sim.process(body())
    sim.run()
    # _Initialize + 2 timeouts + process completion.
    assert sim.events_scheduled - base == 4


# -- trace-hash determinism ---------------------------------------------------


def _trace_hash(mode: str, monkeypatch) -> str:
    """Sha256 over the (time, event-type) dispatch sequence of a small
    wide-area knapsack run."""
    from repro.apps.knapsack.driver import run_system
    from repro.apps.knapsack.instance import scaled_instance
    from repro.apps.knapsack.master_slave import SchedulingParams
    from repro.cluster.testbed import Testbed

    with monkeypatch.context() as patch:
        if mode == "seed":
            seed_kernel.install(patch)
        testbed = Testbed()
    assert (type(testbed.sim) is seed_kernel.Simulator) == (mode == "seed")
    digest = hashlib.sha256()
    update = digest.update

    def hook(t: float, ev) -> None:
        update(f"{t!r}:{type(ev).__name__}\n".encode())

    testbed.sim.on_event = hook
    instance = scaled_instance(n=24, target_nodes=60_000, seed=5)
    result = run_system(
        testbed, "Wide-area Cluster", instance, SchedulingParams()
    )
    update(f"{result.execution_time!r}:{result.total_nodes}\n".encode())
    return digest.hexdigest()


def test_trace_identical_between_kernel_modes(monkeypatch) -> None:
    assert _trace_hash("seed", monkeypatch) == _trace_hash("fast", monkeypatch)
