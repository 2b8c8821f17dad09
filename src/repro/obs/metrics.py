"""Metrics primitives: counters, gauges, log-bucketed histograms, and
the registry that collects them.

One :class:`MetricsRegistry` is the single aggregation point for a run:
native metrics (created through :meth:`MetricsRegistry.counter` /
:meth:`gauge` / :meth:`histogram`) and *collectors* — existing stats
objects (``RelayStats``, ``AioRelayStats``, ``RankStats``, ...) that
keep their plain-attribute hot paths and contribute a ``snapshot()``
dict when the registry is read.  The collector pattern is what lets the
five pre-existing stats classes ride the registry without slowing a
single hot path: registration costs one dict entry, reading costs one
call at snapshot time, and the increment sites stay native ints.

:class:`LogHistogram` is the former ``repro.core.aio.relay.Histogram``,
promoted here so the sim and live relay planes (and any future
subsystem) share one histogram implementation and one snapshot schema.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "hist_buckets",
]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value (phase wall time, queue depth, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


def hist_buckets(value: "dict[str, Any]") -> "Optional[list[tuple[int, int]]]":
    """The ``(upper bound, count)`` pairs of a ``{"<=N": count}``
    histogram snapshot (malformed buckets skipped), or ``None`` when
    ``value`` is some other dict."""
    if not value or not all(
        isinstance(k, str) and k.startswith("<=") for k in value
    ):
        return None
    out = []
    for bound, count in value.items():
        try:
            out.append((int(bound[2:]), int(count)))
        except (ValueError, TypeError):
            continue
    return out


class LogHistogram:
    """Fixed-bucket power-of-two histogram: no per-record allocation,
    one ``bit_length`` and one list increment per sample."""

    __slots__ = ("counts",)

    #: Bucket ``i`` counts samples with ``2**(i-1) < value <= 2**i - 1``
    #: by bit length; the last bucket absorbs everything larger.
    NBUCKETS = 32

    def __init__(self) -> None:
        self.counts = [0] * self.NBUCKETS

    def record(self, value: int) -> None:
        idx = value.bit_length() if value > 0 else 0
        if idx >= self.NBUCKETS:
            idx = self.NBUCKETS - 1
        self.counts[idx] += 1

    @property
    def total(self) -> int:
        return sum(self.counts)

    def merge(self, other: "LogHistogram") -> None:
        """Fold another histogram's buckets into this one."""
        for i, count in enumerate(other.counts):
            self.counts[i] += count

    def to_dict(self) -> "dict[str, int]":
        """Sparse ``{"<=upper_bound": count}`` mapping of non-empty
        buckets (the stable snapshot schema)."""
        out = {}
        for i, count in enumerate(self.counts):
            if count:
                out[f"<={(1 << i) - 1}"] = count
        return out

    snapshot = to_dict


class MetricsRegistry:
    """The aggregation point: named metrics plus external collectors.

    Metric names are dotted paths (``mpi.bytes_sent``); a 2-D family
    like per-rank-pair traffic uses :meth:`counter2d`, which interns
    ``(name, key)`` counters on first touch so the hot path is a dict
    hit.  :meth:`snapshot` returns one plain-data dict — native metrics
    under their names, each collector's ``snapshot()`` under its
    prefix — with deterministically sorted keys, so two identical runs
    serialize identically.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._pairs: Dict[tuple[str, str], Counter] = {}
        self._collectors: Dict[str, Callable[[], Any]] = {}

    # -- native metrics ---------------------------------------------------

    def _named(self, name: str, factory) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory(name)
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._named(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._named(name, Gauge)

    def histogram(self, name: str) -> LogHistogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = LogHistogram()
        elif not isinstance(metric, LogHistogram):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter2d(self, name: str, key: str) -> Counter:
        """A keyed counter family (e.g. ``mpi.bytes`` keyed ``"0->1"``)."""
        pair = (name, key)
        counter = self._pairs.get(pair)
        if counter is None:
            counter = self._pairs[pair] = Counter(f"{name}[{key}]")
        return counter

    # -- collectors -------------------------------------------------------

    def register_collector(self, prefix: str, snapshot_fn: Callable[[], Any]) -> None:
        """Attach an external stats object: ``snapshot_fn()`` is called
        at read time and its result lands under ``prefix``."""
        self._collectors[prefix] = snapshot_fn

    def unregister_collector(self, prefix: str) -> None:
        self._collectors.pop(prefix, None)

    # -- merging ----------------------------------------------------------

    def absorb(self, snapshot: "dict[str, Any]", prefix: str = "") -> None:
        """Deep-merge a plain ``snapshot()`` dict into this registry's
        native metrics — the parent-side half of cross-process metric
        collection (``fan_out(..., profile=True)`` workers ship their
        registry snapshots home through the executor).

        Merge rules, keyed by the snapshot leaf shape: ints add into
        counters, floats add into gauges, ``{"<=N": count}`` dicts merge
        into histograms, flat str→int dicts add into ``counter2d``
        families, and any other nested dict recurses with a dotted
        prefix (so a collector's snapshot lands as native metrics under
        its prefix — collectors themselves cannot cross processes).
        """
        for key in sorted(snapshot):
            value = snapshot[key]
            name = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, bool):
                continue
            if isinstance(value, int):
                self.counter(name).inc(value)
            elif isinstance(value, float):
                self.gauge(name).add(value)
            elif isinstance(value, dict):
                buckets = hist_buckets(value)
                if buckets is not None:
                    hist = self.histogram(name)
                    for upper, n in buckets:
                        idx = min(upper.bit_length(), LogHistogram.NBUCKETS - 1)
                        hist.counts[idx] += n
                elif value and all(
                    isinstance(v, int) and not isinstance(v, bool)
                    for v in value.values()
                ):
                    for k, v in value.items():
                        self.counter2d(name, str(k)).inc(v)
                else:
                    self.absorb(value, prefix=name)
            # Strings and other leaf types carry no mergeable quantity.

    # -- reading ----------------------------------------------------------

    def snapshot(self) -> "dict[str, Any]":
        """One plain-data view of everything, sorted for determinism."""
        out: dict[str, Any] = {}
        for name in sorted(self._metrics):
            out[name] = self._metrics[name].snapshot()
        families: dict[str, dict[str, int]] = {}
        for (name, key), counter in self._pairs.items():
            families.setdefault(name, {})[key] = counter.value
        for name in sorted(families):
            out[name] = dict(sorted(families[name].items()))
        for prefix in sorted(self._collectors):
            out[prefix] = self._collectors[prefix]()
        return out

    def __len__(self) -> int:
        return len(self._metrics) + len(self._pairs) + len(self._collectors)
