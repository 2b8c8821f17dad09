"""Span-based tracing with two clock domains.

The instrumentation substrate behind every layer of the system:

* **sim domain** — timestamps are *simulated* seconds read off a DES
  kernel clock.  Spans and instants recorded here are a pure function
  of the simulated program, so a sim-domain trace is byte-stable
  across kernel implementations (``REPRO_SIM_KERNEL=seed|fast``) and
  across host machines — the property the determinism suite hashes.
* **wall domain** — timestamps are host seconds from a monotonic
  clock, relative to recorder creation.  The asyncio relay daemons
  (one real process, real sockets) record here.

Both domains share one event model (:class:`SpanEvent`) and one export
path (:mod:`repro.obs.export`: JSON summary + Chrome ``trace_event``
JSON loadable in Perfetto / ``chrome://tracing``).

Zero cost when disabled
-----------------------

Instrumented code guards every emission with the module-global
:data:`RECORDER`::

    rec = spans.RECORDER
    if rec is not None:
        rec.sim_instant("steal", "serve", sim.now, ...)

so a disabled run pays one attribute load and one ``is None`` branch
per *instrumentation point* (which sit at communication boundaries,
never inside the kernel or branch hot loops).  The overhead test in
``tests/obs/test_clock_domains.py`` holds this under 3% on a Table 4
row.  :class:`NullRecorder` takes the enabled branch but records
nothing — it exists to measure exactly that guard + dispatch cost.

Byte-stability rule for instrumenters: only record sim-domain events
at points where the seed and fast engines are lockstep-equivalent
(communication boundaries, job state transitions, chain lifecycle) —
never per-branch-batch inside a fused compute region.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Iterator, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SpanEvent",
    "ObsRecorder",
    "NullRecorder",
    "RECORDER",
    "install",
    "uninstall",
    "recorder",
    "observe",
    "SIM",
    "WALL",
]

#: Clock-domain labels.
SIM = "sim"
WALL = "wall"

#: Chrome trace_event phase codes used by the event model.
PH_SPAN = "X"
PH_INSTANT = "i"
PH_COUNTER = "C"

#: Simulated-seconds period of :meth:`ObsRecorder.start_kernel_sampler`.
KERNEL_SAMPLE_INTERVAL = 0.5


class SpanEvent:
    """One recorded occurrence: a complete span, an instant, or a
    counter sample.  ``ts``/``dur`` are seconds in the event's clock
    domain; ``track`` names the logical timeline (rank, host, daemon)
    the event belongs to."""

    __slots__ = ("domain", "ph", "cat", "name", "ts", "dur", "track", "args")

    def __init__(
        self,
        domain: str,
        ph: str,
        cat: str,
        name: str,
        ts: float,
        dur: float,
        track: str,
        args: "Optional[dict[str, Any]]",
    ) -> None:
        self.domain = domain
        self.ph = ph
        self.cat = cat
        self.name = name
        self.ts = ts
        self.dur = dur
        self.track = track
        self.args = args

    def to_dict(self) -> "dict[str, Any]":
        out: dict[str, Any] = {
            "domain": self.domain,
            "ph": self.ph,
            "cat": self.cat,
            "name": self.name,
            "ts": self.ts,
            "track": self.track,
        }
        if self.ph == PH_SPAN:
            out["dur"] = self.dur
        if self.args:
            out["args"] = self.args
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SpanEvent {self.domain}/{self.ph} {self.cat}:{self.name} "
            f"ts={self.ts:.6f} dur={self.dur:.6f} track={self.track!r}>"
        )


class ObsRecorder:
    """Collects :class:`SpanEvent` records and owns the run's
    :class:`~repro.obs.metrics.MetricsRegistry`.

    :data:`KERNEL_SAMPLE_INTERVAL` is the simulated-seconds period of
    the kernel-throughput sampler (:meth:`start_kernel_sampler`); the
    sampler is a simulated process, so enabling it perturbs the event
    *heap* identically under every kernel implementation and leaves
    simulated results unchanged.
    """

    def __init__(self, wall_clock=None) -> None:
        self.events: list[SpanEvent] = []
        self.registry = MetricsRegistry()
        self._wall_clock = wall_clock if wall_clock is not None else time.perf_counter
        self._wall0 = self._wall_clock()
        self._sampled_sims: list[Any] = []

    # -- sim domain -------------------------------------------------------

    def sim_span(
        self,
        cat: str,
        name: str,
        t0: float,
        t1: float,
        track: str = "sim",
        **args: Any,
    ) -> None:
        self.events.append(
            SpanEvent(SIM, PH_SPAN, cat, name, t0, t1 - t0, track, args or None)
        )

    def sim_instant(
        self, cat: str, name: str, t: float, track: str = "sim", **args: Any
    ) -> None:
        self.events.append(
            SpanEvent(SIM, PH_INSTANT, cat, name, t, 0.0, track, args or None)
        )

    def sim_counter(
        self,
        cat: str,
        name: str,
        t: float,
        values: "dict[str, float]",
        track: str = "sim",
    ) -> None:
        self.events.append(
            SpanEvent(SIM, PH_COUNTER, cat, name, t, 0.0, track, dict(values))
        )

    # -- wall domain ------------------------------------------------------

    def wall_ts(self) -> float:
        """Seconds since recorder creation on the monotonic clock."""
        return self._wall_clock() - self._wall0

    def wall_span_end(
        self, cat: str, name: str, t0: float, track: str = "wall", **args: Any
    ) -> None:
        """Close a wall span opened at ``t0 = rec.wall_ts()``."""
        t1 = self.wall_ts()
        self.events.append(
            SpanEvent(WALL, PH_SPAN, cat, name, t0, t1 - t0, track, args or None)
        )

    @contextlib.contextmanager
    def wall_span(self, cat: str, name: str, track: str = "wall", **args: Any):
        t0 = self.wall_ts()
        try:
            yield
        finally:
            self.wall_span_end(cat, name, t0, track, **args)

    def wall_instant(
        self, cat: str, name: str, track: str = "wall", **args: Any
    ) -> None:
        self.events.append(
            SpanEvent(WALL, PH_INSTANT, cat, name, self.wall_ts(), 0.0, track,
                      args or None)
        )

    def wall_counter(
        self, cat: str, name: str, values: "dict[str, float]", track: str = "wall"
    ) -> None:
        self.events.append(
            SpanEvent(WALL, PH_COUNTER, cat, name, self.wall_ts(), 0.0, track,
                      dict(values))
        )

    # -- registry shorthands ---------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.registry.counter(name).inc(n)

    def count_pair(self, name: str, key: str, n: int = 1) -> None:
        self.registry.counter2d(name, key).inc(n)

    def adopt(self, prefix: str, stats: Any) -> None:
        """Register an existing stats object (anything with a
        ``snapshot()``) as a registry collector under ``prefix``."""
        self.registry.register_collector(prefix, stats.snapshot)

    # -- kernel throughput ------------------------------------------------

    def start_kernel_sampler(self, sim: Any, track: str = "kernel") -> None:
        """Sample ``sim.events_scheduled`` every
        :data:`KERNEL_SAMPLE_INTERVAL` simulated seconds as counter events
        (the events/sec timeline in the exported trace).

        The sampler is an ordinary simulated process: it never ends on
        its own, which is fine for ``run(until=...)`` drivers; its
        pending timeout simply stays on the heap when the driver stops.
        """
        if any(s is sim for s in self._sampled_sims):
            return  # already sampling this kernel
        self._sampled_sims.append(sim)
        base = sim.events_scheduled
        t_base = sim.now

        def sampler() -> Iterator[Any]:
            while True:
                yield sim.timeout(KERNEL_SAMPLE_INTERVAL)
                events = sim.events_scheduled - base
                elapsed = sim.now - t_base
                self.sim_counter(
                    "kernel", "events_scheduled", sim.now,
                    {"events": events,
                     "events_per_sim_s": events / elapsed if elapsed > 0 else 0},
                    track=track,
                )

        sim.process(sampler(), name="obs-kernel-sampler")

    def __len__(self) -> int:
        return len(self.events)


class NullRecorder(ObsRecorder):
    """A recorder whose every emission is a no-op.

    Install it to pay the guard + dispatch cost at every
    instrumentation point without retaining anything — the measurement
    arm of the overhead test.
    """

    def _drop(self, *a: Any, **k: Any) -> None:
        return None

    sim_span = _drop
    sim_instant = _drop
    sim_counter = _drop
    wall_span_end = _drop
    wall_instant = _drop
    wall_counter = _drop
    count = _drop
    count_pair = _drop
    adopt = _drop
    start_kernel_sampler = _drop

    @contextlib.contextmanager
    def wall_span(self, cat: str, name: str, track: str = "wall", **args: Any):
        yield


#: The installed recorder, or ``None`` (tracing disabled — the
#: default).  Hot code reads this exactly once per instrumentation
#: point.
RECORDER: Optional[ObsRecorder] = None


def install(rec: Optional[ObsRecorder] = None) -> ObsRecorder:
    """Install (and return) the active recorder."""
    global RECORDER
    if rec is None:
        rec = ObsRecorder()
    RECORDER = rec
    return rec


def uninstall() -> Optional[ObsRecorder]:
    """Disable tracing; returns the recorder that was active."""
    global RECORDER
    rec, RECORDER = RECORDER, None
    return rec


def recorder() -> Optional[ObsRecorder]:
    return RECORDER


@contextlib.contextmanager
def observe(rec: Optional[ObsRecorder] = None):
    """``with observe() as rec: ...`` — scoped install/uninstall."""
    rec = install(rec)
    try:
        yield rec
    finally:
        if RECORDER is rec:
            uninstall()
