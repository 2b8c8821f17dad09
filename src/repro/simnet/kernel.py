"""Discrete-event simulation kernel.

A small, strict, generator-based DES in the SimPy tradition.  Simulated
activities are Python generators that ``yield`` :class:`Event` objects;
the :class:`Simulator` advances a virtual clock and resumes each process
when the event it waits on fires.

Design rules (they matter for everything layered on top):

* **Determinism.**  Events scheduled for the same instant fire in
  scheduling order (a monotone tie-breaker is part of the heap key), so
  a given program produces one and only one trace.
* **Strict failure.**  An exception escaping a process fails the
  process event.  If *nothing* is waiting on a failed event when it is
  processed, the exception propagates out of :meth:`Simulator.run` —
  silent death of a simulated daemon would otherwise turn into a hang.
* **No global state.**  All state hangs off the :class:`Simulator`
  instance; independent simulations never interact.

Fast path
---------

Every experiment in this repo funnels through this loop (a Table 4 run
processes hundreds of thousands of events), so the hot path is tuned
while keeping the three rules above bit-identical:

* **Single-waiter slot.**  The dominant case — exactly one process
  waiting on an event — stores the callback in ``_cb1`` instead of
  allocating a one-element list per event.  The public
  :attr:`Event.callbacks` list materializes lazily on first access, so
  external code that appends to / removes from / ``is None``-tests the
  list keeps working unchanged.  Dispatch order is FIFO either way.
* **Timeout free-list.**  Processed :class:`Timeout` objects that
  nothing else references (checked with ``sys.getrefcount`` — a
  caller that kept the timeout keeps its object) are recycled by
  :meth:`Simulator.timeout` instead of re-allocated.
* **Inlined drain loop.**  :meth:`Simulator.run` with no deadline and
  no stop event runs a tight loop with the heap, pool and dispatch
  locals cached instead of calling :meth:`step` per event.

``Simulator(mode="seed")`` (or ``REPRO_SIM_KERNEL=seed``) disables the
free-list and the callback slot — every registration allocates the
list, like the original kernel — so the determinism suite can compare
traces between the seed slow path and the fast path.
"""

from __future__ import annotations

import heapq
import os
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimError",
    "AnyOf",
    "AllOf",
    "ProcGen",
]

#: Type of generator a :class:`Process` runs.
ProcGen = Generator["Event", Any, Any]

_PENDING = object()

#: Recycled Timeouts kept per simulator (bounds worst-case retention).
_MAX_POOL = 1024


class SimError(RuntimeError):
    """Misuse of the simulation kernel (not a simulated failure)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    ``cause`` carries whatever the interrupter passed; the interrupted
    process may catch it and continue.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event is *triggered* once :meth:`succeed` or :meth:`fail` is
    called and *processed* once the simulator has run its callbacks.
    Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "_cb1", "_cbs", "_processed", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Single-waiter slot; promoted to ``_cbs`` on a second waiter.
        self._cb1: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[list[Callable[["Event"], None]]] = None
        self._processed = False
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def callbacks(self) -> Optional[list[Callable[["Event"], None]]]:
        """Callbacks run when the event is processed; ``None`` after.

        Accessing this materializes the callback list (moving a
        slot-stored single waiter into it), so mutate freely.
        """
        if self._processed:
            return None
        cbs = self._cbs
        if cbs is None:
            cb1 = self._cb1
            cbs = [] if cb1 is None else [cb1]
            self._cb1 = None
            self._cbs = cbs
        return cbs

    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Internal fast registration (semantics of ``callbacks.append``)."""
        if self.sim._fast:
            if self._cbs is not None:
                self._cbs.append(cb)
            elif self._cb1 is None:
                self._cb1 = cb
            else:
                self._cbs = [self._cb1, cb]
                self._cb1 = None
        else:
            cbs = self.callbacks
            assert cbs is not None
            cbs.append(cb)

    def _discard_callback(self, cb: Callable[["Event"], None]) -> None:
        """Internal removal (no-op when absent or already processed)."""
        if self._cb1 is cb:
            self._cb1 = None
            return
        cbs = self._cbs
        if cbs is not None:
            try:
                cbs.remove(cb)
            except ValueError:  # pragma: no cover - defensive
                pass

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        """True iff the event succeeded.  Only valid once triggered."""
        if self._value is _PENDING:
            raise SimError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._value is _PENDING:
            raise SimError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value``."""
        if self._value is not _PENDING:
            raise SimError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._post(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exc, BaseException):
            raise SimError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _PENDING:
            raise SimError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self.sim._post(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so run() won't re-raise it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else f"failed({self._value!r})")
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimError(f"negative timeout: {delay!r}")
        self.sim = sim
        self._cb1 = None
        self._cbs = None
        self._processed = False
        self._defused = False
        self._ok = True
        self._value = value
        heapq.heappush(sim._heap, (sim.now + delay, sim._eid, self))
        sim._eid += 1


class _Initialize(Event):
    """Internal: kicks a freshly created process at the current time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        super().__init__(sim)
        self._ok = True
        self._value = None
        self._add_callback(process._resume_fn)
        sim._post(self)


class Process(Event):
    """A running activity; also an event that fires when it finishes.

    The success value is the generator's ``return`` value; a process
    that raises fails with that exception.
    """

    __slots__ = ("_gen", "_send", "_throw", "_resume_fn", "_target", "name")

    def __init__(self, sim: "Simulator", gen: ProcGen, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise SimError(f"process body must be a generator, got {gen!r}")
        super().__init__(sim)
        self._gen = gen
        self._send = gen.send
        self._throw = gen.throw
        #: One bound method reused for every wait: registration and
        #: removal (interrupt) then work by identity, and each yield
        #: skips a bound-method allocation.
        self._resume_fn = self._resume
        self._target: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op; a process may not
        interrupt itself (that is a plain ``raise``).
        """
        if self.triggered:
            return
        if self.sim._active is self:
            raise SimError("a process cannot interrupt itself")
        kick = Event(self.sim)
        kick._ok = False
        kick._value = Interrupt(cause)
        kick._defused = True
        kick._add_callback(self._resume_interrupt)
        self.sim._post(kick)

    def _resume_interrupt(self, event: Event) -> None:
        if self.triggered:
            return  # finished in the meantime; interrupt evaporates
        target = self._target
        if target is not None and not target._processed:
            target._discard_callback(self._resume_fn)
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        sim = self.sim
        fast = sim._fast
        self._target = None
        sim._active = self
        send = self._send
        throw = self._throw
        resume = self._resume_fn
        while True:
            try:
                if event._ok:
                    next_ev = send(event._value)
                else:
                    event._defused = True
                    next_ev = throw(event._value)
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
            if not next_ev._processed:
                # Pending or triggered-but-unprocessed: wait for it.
                if fast:
                    if next_ev._cbs is not None:
                        next_ev._cbs.append(resume)
                    elif next_ev._cb1 is None:
                        next_ev._cb1 = resume
                    else:
                        next_ev._cbs = [next_ev._cb1, resume]
                        next_ev._cb1 = None
                else:
                    next_ev._add_callback(resume)
                self._target = next_ev
                sim._active = None
                return
            # Already processed: resume synchronously with its outcome.
            event = next_ev

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'done' if self.triggered else 'alive'}>"


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("_events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._done = 0
        if any(ev.sim is not sim for ev in self._events):
            raise SimError("condition mixes events from different simulators")
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev._processed:
                self._check(ev)
                if self.triggered:
                    break
            else:
                ev._add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._satisfied():
            self.succeed(self._results())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _results(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._events if ev.triggered and ev._ok}


class AnyOf(_Condition):
    """Fires when the first of ``events`` fires (fails if that one failed)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= 1


class AllOf(_Condition):
    """Fires when all of ``events`` have fired successfully."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= len(self._events)


class Simulator:
    """The event loop: a clock plus a time-ordered heap of events.

    ``mode`` selects the implementation path: ``"fast"`` (default)
    enables the Timeout free-list and the single-waiter callback slot;
    ``"seed"`` reproduces the original kernel's allocation behaviour.
    Both produce bit-identical traces (guarded by the trace-hash test
    in ``tests/simnet/test_kernel_fastpath.py``).  The default can be
    overridden with ``REPRO_SIM_KERNEL=seed|fast``.
    """

    def __init__(self, mode: Optional[str] = None) -> None:
        if mode is None:
            mode = os.environ.get("REPRO_SIM_KERNEL", "fast")
        if mode not in ("fast", "seed"):
            raise SimError(f"unknown kernel mode {mode!r} (want 'fast' or 'seed')")
        self.mode = mode
        self._fast = mode == "fast"
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._eid = 0
        self._active: Optional[Process] = None
        self._pool: list[Timeout] = []
        #: Optional per-event hook ``hook(time, event)`` called as each
        #: event is processed (before its callbacks run).  Used by the
        #: determinism suite to hash traces; ``None`` costs one branch.
        self.on_event: Optional[Callable[[float, Event], None]] = None

    # -- scheduling ----------------------------------------------------

    def _post(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._heap, (self.now + delay, self._eid, event))
        self._eid += 1

    # -- factory helpers ----------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        pool = self._pool
        if pool:
            if delay < 0:
                raise SimError(f"negative timeout: {delay!r}")
            ev = pool.pop()
            ev._processed = False
            ev._defused = False
            ev._value = value
            heapq.heappush(self._heap, (self.now + delay, self._eid, ev))
            self._eid += 1
            return ev
        return Timeout(self, delay, value)

    def process(self, gen: ProcGen, name: str = "") -> Process:
        """Start ``gen`` as a process immediately (at the current time)."""
        return Process(self, gen, name)

    def every(
        self, interval: float, fn: Callable[[float], Any], name: str = "periodic"
    ) -> Process:
        """Call ``fn(now)`` every ``interval`` simulated seconds.

        The canonical sim-clock sampling hook: samplers (fleet
        heartbeats, the time-series sampler) attach through this so
        their wakeups are ordinary heap events — the perturbation is
        identical under every kernel mode, which is what keeps
        sim-domain series byte-stable.  The process never ends on its
        own; its pending timeout simply stays on the heap when a
        ``run(until=...)`` driver stops.
        """
        if interval <= 0:
            raise SimError(f"every() needs a positive interval, got {interval!r}")

        def loop() -> ProcGen:
            while True:
                yield self.timeout(interval)
                fn(self.now)

        return self.process(loop(), name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution ------------------------------------------------------

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimError("step() on an empty event queue")
        t, _, ev = heapq.heappop(self._heap)
        if t < self.now:  # pragma: no cover - heap invariant
            raise SimError("time went backwards")
        self.now = t
        if self.on_event is not None:
            self.on_event(t, ev)
        ev._processed = True
        cb = ev._cb1
        if cb is not None:
            ev._cb1 = None
            cb(ev)
        else:
            cbs = ev._cbs
            if cbs is not None:
                ev._cbs = None
                for cb in cbs:
                    cb(ev)
        if not ev._ok and not ev._defused:
            raise ev._value
        if (
            self._fast
            and ev.__class__ is Timeout
            and len(self._pool) < _MAX_POOL
            and getrefcount(ev) == 2
        ):
            self._pool.append(ev)

    def run(
        self, until: "float | Event | None" = None
    ) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain), a time (run to that instant),
        or an :class:`Event` (run until it triggers; its value is
        returned, and if it failed the exception is raised).
        """
        stop_event: Optional[Event] = None
        deadline: Optional[float] = None
        stopped = False
        if isinstance(until, Event):
            stop_event = until
            if stop_event._processed:
                stopped = True
            else:
                def _stop(_: Event) -> None:
                    nonlocal stopped
                    stopped = True

                stop_event._add_callback(_stop)
                stop_event._defused = True
        elif until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise SimError(f"until={deadline} is in the past (now={self.now})")

        heap = self._heap
        pool = self._pool
        heappop = heapq.heappop
        pooling = self._fast
        if stop_event is None and deadline is None:
            # Drain loop: the hot path for whole-job runs.
            while heap:
                t, _, ev = heappop(heap)
                self.now = t
                if self.on_event is not None:
                    self.on_event(t, ev)
                ev._processed = True
                cb = ev._cb1
                if cb is not None:
                    ev._cb1 = None
                    cb(ev)
                else:
                    cbs = ev._cbs
                    if cbs is not None:
                        ev._cbs = None
                        for cb in cbs:
                            cb(ev)
                if not ev._ok and not ev._defused:
                    raise ev._value
                if pooling and ev.__class__ is Timeout and len(pool) < _MAX_POOL \
                        and getrefcount(ev) == 2:
                    pool.append(ev)
            return None

        while heap and not stopped:
            if deadline is not None and heap[0][0] > deadline:
                break
            t, _, ev = heappop(heap)
            self.now = t
            if self.on_event is not None:
                self.on_event(t, ev)
            ev._processed = True
            cb = ev._cb1
            if cb is not None:
                ev._cb1 = None
                cb(ev)
            else:
                cbs = ev._cbs
                if cbs is not None:
                    ev._cbs = None
                    for cb in cbs:
                        cb(ev)
            if not ev._ok and not ev._defused:
                raise ev._value
            if pooling and ev.__class__ is Timeout and len(pool) < _MAX_POOL \
                    and getrefcount(ev) == 2:
                pool.append(ev)

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

    # -- introspection ---------------------------------------------------

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active

    @property
    def events_scheduled(self) -> int:
        """Total events posted to the heap so far (the contract
        benchmark's ``simnet.kernel.events``, and the denominator of
        ``simnet.kernel.us_per_event``)."""
        return self._eid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} queued={len(self._heap)}>"
