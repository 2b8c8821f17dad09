"""The seed kernel, kept as the reference the shipped kernel is hashed against.

It runs the shipped :mod:`repro.simnet.kernel` classes with none of the
fast path: every wait registers through the public
:attr:`~repro.simnet.kernel.Event.callbacks` list, ``run`` steps one
event at a time, no :class:`~repro.simnet.kernel.Timeout` is ever
recycled, and a finished process keeps its generator and its bound
``_resume`` (as every process did before the kernel released them).
The determinism tests drive one program under both kernels and assert
the traces are bit-identical, so any fast-path change that moves,
adds or drops an event fails there.

``install(monkeypatch)`` makes every :class:`~repro.simnet.topology.Network`
(hence every ``Testbed``) built afterwards run on this kernel.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional

from repro.simnet import kernel, topology
from repro.simnet.kernel import Event, ProcGen, SimError

__all__ = ["Process", "Simulator", "install"]


class Process(kernel.Process):
    """A process whose waits go through the public callbacks list and
    that keeps its generator and bound ``_resume`` once finished."""

    __slots__ = ()

    def _resume(self, event: Event) -> None:
        sim = self.sim
        self._target = None
        sim._active = self
        while True:
            try:
                if event._ok:
                    next_ev = self._send(event._value)
                else:
                    event._defused = True
                    next_ev = self._throw(event._value)
            except StopIteration as stop:
                sim._active = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                sim._active = None
                self.fail(exc)
                return
            if not isinstance(next_ev, Event):
                sim._active = None
                self.fail(
                    SimError(
                        f"process {self.name!r} yielded {next_ev!r}, "
                        "which is not an Event"
                    )
                )
                return
            if next_ev.sim is not sim:
                sim._active = None
                self.fail(SimError("yielded an event from a different simulator"))
                return
            callbacks = next_ev.callbacks
            if callbacks is not None:
                # Pending or triggered-but-unprocessed: wait for it.
                callbacks.append(self._resume_fn)
                self._target = next_ev
                sim._active = None
                return
            # Already processed: resume synchronously with its outcome.
            event = next_ev


class Simulator(kernel.Simulator):
    """One event per :meth:`step`, dispatched from the materialized
    callbacks list; the Timeout free-list stays empty."""

    def process(self, gen: ProcGen, name: str = "") -> Process:
        return Process(self, gen, name)

    def step(self) -> None:
        if not self._heap:
            raise SimError("step() on an empty event queue")
        t, _, ev = heapq.heappop(self._heap)
        if t < self.now:  # pragma: no cover - heap invariant
            raise SimError("time went backwards")
        self.now = t
        if self.on_event is not None:
            self.on_event(t, ev)
        callbacks = ev.callbacks
        assert callbacks is not None
        ev._processed = True
        ev._cbs = None
        for cb in callbacks:
            cb(ev)
        if not ev._ok and not ev._defused:
            raise ev._value

    def run(self, until: "float | Event | None" = None) -> Any:
        stop_event: Optional[Event] = None
        deadline: Optional[float] = None
        stopped = False
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                stopped = True
            else:
                def _stop(_: Event) -> None:
                    nonlocal stopped
                    stopped = True

                callbacks = stop_event.callbacks
                assert callbacks is not None
                callbacks.append(_stop)
                stop_event._defused = True
        elif until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise SimError(f"until={deadline} is in the past (now={self.now})")

        while self._heap and not stopped:
            if deadline is not None and self.peek() > deadline:
                break
            self.step()

        if deadline is not None:
            self.now = max(self.now, deadline)
        if stop_event is not None:
            if not stopped:
                raise SimError(
                    "run(until=event): queue drained but event never fired "
                    "(deadlock in the simulated program?)"
                )
            if not stop_event.ok:
                raise stop_event._value
            return stop_event._value
        return None


def install(monkeypatch) -> None:
    """Build every later ``Network`` (and ``Testbed``) on this kernel."""
    monkeypatch.setattr(topology, "Simulator", Simulator)
