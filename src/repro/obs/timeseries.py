"""Fixed-interval time-series history over a metrics snapshot.

The telemetry endpoints (PR 4) and the fleet snapshot (PR 7) are
*point-in-time* scrapes: they say what the counters are now, not how
they moved.  This module turns any snapshot callable (a
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, a
:meth:`~repro.core.aio.fleet.FleetManager.snapshot`, an aggregator's
merged view) into bounded history plus windowed rollups:

* :class:`TimeSeriesSampler` — a ring buffer of flattened samples
  taken every ``interval_s``.  Scalars (ints/floats/bools) and
  log-histogram dicts (``{"<=N": count}``) are kept separately so the
  rollup can compute counter *rates/deltas* and window *percentiles*
  (p50/p95/p99 from bucket-count deltas) without re-walking nested
  snapshots.
* Two clock domains, mirroring :mod:`repro.obs.spans`: a wall-domain
  sampler is driven by its owner's :meth:`sample` calls (the fleet
  aggregator takes one per scrape round) or by :meth:`start_wall` (an
  asyncio task on ``loop.time``); the simulation plane attaches it to
  the DES kernel with :meth:`attach_sim` (``sim.every`` — the sampler's
  wakeups are ordinary heap events, so the perturbation is identical
  under ``REPRO_SIM_KERNEL=seed|fast`` and the exported series is
  **byte-stable** across kernel modes, the property
  ``tests/obs/test_timeseries.py`` hashes).
* :meth:`TimeSeriesSampler.export` — a deterministic plain-JSON
  document (schema-versioned, sorted keys through
  :func:`repro.obs.export.dumps`), the form the byte-stability test
  compares.

Capacity is fixed (default 240 samples ≈ 4 minutes at 1 Hz): the ring
evicts the oldest sample and counts the eviction, so a long-lived
daemon's memory is bounded and "how much history did I lose" is
observable rather than silent.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "TIMESERIES_SCHEMA_VERSION",
    "TIMESERIES_FORMAT_TAG",
    "flatten_numeric",
    "hist_total",
    "hist_delta",
    "hist_quantile",
    "TimeSeriesSampler",
]

#: Bumped whenever the exported sample/rollup shape changes; consumers
#: (aggregator, ``repro-obs top``) check it before trusting a payload.
TIMESERIES_SCHEMA_VERSION = 1

#: Stamped into every :meth:`TimeSeriesSampler.export` document.
TIMESERIES_FORMAT_TAG = "repro-obs-timeseries-v1"

#: The percentiles every histogram rollup reports.
_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def _is_hist_dict(value: "dict[str, Any]") -> bool:
    return bool(value) and all(
        isinstance(k, str) and k.startswith("<=") for k in value
    )


def flatten_numeric(
    snapshot: "dict[str, Any]", prefix: str = ""
) -> "tuple[dict[str, float], dict[str, dict[str, int]]]":
    """Flatten one snapshot into ``(scalars, hists)``.

    Scalar leaves (ints, floats, bools-as-ints) land under their dotted
    path; ``{"<=N": count}`` dicts land in ``hists`` untouched; strings
    and other leaves are dropped (they carry no series).
    """
    scalars: dict[str, float] = {}
    hists: dict[str, dict[str, int]] = {}
    for key in sorted(snapshot):
        value = snapshot[key]
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, bool):
            scalars[name] = int(value)
        elif isinstance(value, (int, float)):
            scalars[name] = value
        elif isinstance(value, dict):
            if _is_hist_dict(value):
                hists[name] = {
                    k: int(v) for k, v in value.items()
                    if isinstance(v, (int, float))
                }
            else:
                sub_scalars, sub_hists = flatten_numeric(value, name)
                scalars.update(sub_scalars)
                hists.update(sub_hists)
    return scalars, hists


def hist_total(hist: "dict[str, int]") -> int:
    return sum(int(v) for v in hist.values())


def hist_delta(
    newer: "dict[str, int]", older: "Optional[dict[str, int]]"
) -> "dict[str, int]":
    """Per-bucket ``newer - older`` (sparse; negative deltas clamp to
    zero — a histogram reset reads as a fresh window, not corruption)."""
    if not older:
        return dict(newer)
    out: dict[str, int] = {}
    for bound, count in newer.items():
        d = int(count) - int(older.get(bound, 0))
        if d > 0:
            out[bound] = d
    return out


def _hist_bounds(hist: "dict[str, int]") -> "list[tuple[int, int]]":
    bounds: list[tuple[int, int]] = []
    for key, count in hist.items():
        try:
            bounds.append((int(key[2:]), int(count)))
        except (ValueError, TypeError):
            continue
    bounds.sort()
    return bounds


def hist_quantile(hist: "dict[str, int]", q: float) -> int:
    """The upper bound of the log bucket containing quantile ``q``.

    Log-bucketed histograms can only answer to bucket resolution; the
    conservative (upper-bound) answer is the one an SLO ceiling wants.
    Returns 0 for an empty histogram.
    """
    bounds = _hist_bounds(hist)
    total = sum(count for _b, count in bounds)
    if total <= 0:
        return 0
    want = q * total
    cum = 0
    for upper, count in bounds:
        cum += count
        if cum >= want:
            return upper
    return bounds[-1][0]


class TimeSeriesSampler:
    """Ring-buffered sampling of a snapshot callable.

    ``snapshot_fn`` is read once per :meth:`sample`; each sample is
    stored flattened as ``(t, scalars, hists)``.  ``domain`` labels the
    clock the timestamps come from (``"wall"`` or ``"sim"``, same
    labels as :mod:`repro.obs.spans`) so mixed-domain series are never
    silently compared.
    """

    def __init__(
        self,
        snapshot_fn: Callable[[], "dict[str, Any]"],
        interval_s: float = 1.0,
        capacity: int = 240,
        domain: str = "wall",
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.snapshot_fn = snapshot_fn
        self.interval_s = interval_s
        self.capacity = capacity
        self.domain = domain
        self.samples: "deque[tuple[float, dict[str, float], dict[str, dict[str, int]]]]" = deque(
            maxlen=capacity
        )
        #: Samples evicted by the ring (lost history is observable).
        self.evicted = 0
        self._task: Any = None

    def __len__(self) -> int:
        return len(self.samples)

    # -- sampling ---------------------------------------------------------

    def sample(self, t: float) -> None:
        """Take one sample at time ``t`` (the caller's clock)."""
        scalars, hists = flatten_numeric(self.snapshot_fn())
        if len(self.samples) == self.capacity:
            self.evicted += 1
        self.samples.append((t, scalars, hists))

    def attach_sim(self, sim: Any, name: str = "obs-series-sampler") -> Any:
        """Sample on the DES clock every ``interval_s`` simulated
        seconds (see :meth:`repro.simnet.kernel.Simulator.every`)."""
        if self.domain != "sim":
            raise ValueError(
                f"attach_sim on a {self.domain!r}-domain sampler; "
                "construct with domain='sim'"
            )
        return sim.every(self.interval_s, self.sample, name=name)

    def start_wall(self) -> Any:
        """Sample every ``interval_s`` wall seconds on the running
        asyncio loop; returns the task (cancel it, or :meth:`stop`)."""
        import asyncio

        if self.domain != "wall":
            raise ValueError(
                f"start_wall on a {self.domain!r}-domain sampler; "
                "construct with domain='wall'"
            )

        async def run() -> None:
            loop = asyncio.get_running_loop()
            while True:
                self.sample(loop.time())
                await asyncio.sleep(self.interval_s)

        self._task = asyncio.get_running_loop().create_task(run())
        return self._task

    async def stop(self) -> None:
        import asyncio
        import contextlib

        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    # -- reading ----------------------------------------------------------

    def window(
        self, window_s: Optional[float] = None
    ) -> "list[tuple[float, dict[str, float], dict[str, dict[str, int]]]]":
        """Samples no older than ``window_s`` before the newest sample
        (everything retained when ``None``)."""
        if not self.samples:
            return []
        if window_s is None:
            return list(self.samples)
        horizon = self.samples[-1][0] - window_s
        return [s for s in self.samples if s[0] >= horizon]

    def series(
        self, key: str, window_s: Optional[float] = None
    ) -> "list[tuple[float, float]]":
        """The ``(t, value)`` points of one scalar key in the window."""
        return [
            (t, scalars[key])
            for t, scalars, _hists in self.window(window_s)
            if key in scalars
        ]

    def rollup(self, window_s: Optional[float] = None) -> "dict[str, Any]":
        """Windowed aggregates over the buffered history.

        Scalars get ``last``/``min``/``max``/``delta``/``rate`` (delta
        and rate are newest-minus-oldest over the window span — the
        counter-as-rate reading); histograms get the window's sample
        ``count`` plus bucket-resolution ``p50``/``p95``/``p99`` from
        the bucket-count delta between the window's edges.
        """
        window = self.window(window_s)
        out: dict[str, Any] = {
            "schema_version": TIMESERIES_SCHEMA_VERSION,
            "domain": self.domain,
            "samples": len(window),
            "span_s": 0.0,
            "scalars": {},
            "hists": {},
        }
        if not window:
            return out
        t0, first_scalars, first_hists = window[0]
        t1, last_scalars, last_hists = window[-1]
        span = t1 - t0
        out["span_s"] = span
        for key in sorted(last_scalars):
            values = [
                scalars[key] for _t, scalars, _h in window if key in scalars
            ]
            last = last_scalars[key]
            entry: dict[str, Any] = {
                "last": last,
                "min": min(values),
                "max": max(values),
            }
            if key in first_scalars and span > 0:
                delta = last - first_scalars[key]
                entry["delta"] = delta
                entry["rate"] = delta / span
            out["scalars"][key] = entry
        for key in sorted(last_hists):
            delta = hist_delta(last_hists[key], first_hists.get(key))
            window_hist = delta if hist_total(delta) > 0 else last_hists[key]
            entry = {
                "count": hist_total(window_hist),
                "window_is_delta": hist_total(delta) > 0,
            }
            for label, q in _QUANTILES:
                entry[label] = hist_quantile(window_hist, q)
            out["hists"][key] = entry
        return out

    # -- export -----------------------------------------------------------

    def export(
        self,
        window_s: Optional[float] = None,
        extra_meta: "Optional[dict[str, Any]]" = None,
    ) -> "dict[str, Any]":
        """The full plain-JSON time-series document: raw samples in the
        window plus the rollup.  Serialize with
        :func:`repro.obs.export.dumps` for the byte-stability
        guarantee (sim-domain documents are identical across kernel
        modes)."""
        window = self.window(window_s)
        doc: dict[str, Any] = {
            "format": TIMESERIES_FORMAT_TAG,
            "schema_version": TIMESERIES_SCHEMA_VERSION,
            "domain": self.domain,
            "interval_s": self.interval_s,
            "capacity": self.capacity,
            "evicted": self.evicted,
            "samples": [
                {"t": t, "scalars": scalars, "hists": hists}
                for t, scalars, hists in window
            ],
            "rollup": self.rollup(window_s),
        }
        if extra_meta:
            doc["meta"] = dict(extra_meta)
        return doc
