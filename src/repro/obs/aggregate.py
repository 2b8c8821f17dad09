"""Cross-worker telemetry aggregation for the relay fleet.

PR 7 left the fleet with N isolated per-worker telemetry endpoints:
each worker answers for itself, nobody answers for the fleet.
:class:`FleetAggregator` closes that gap on the ``repro-fleet serve``
process:

1. **Discover** — ``GET /fleet`` on the admin port returns the fleet
   snapshot plus per-worker wiring (pid, control port, telemetry
   port).  Discovery is re-done every poll, so workers that die,
   drain, or join are picked up without restarting the aggregator.
2. **Scrape** — every worker's ``/metrics.json`` is polled
   concurrently.  A worker that fails a scrape (dying mid-drain,
   restarting) is marked **stale** — its last-good payload is kept and
   its age reported — rather than failing the whole fleet view; a
   worker with no telemetry port is listed as unscraped.
3. **Merge + re-export** — the merged view is served on one aggregated
   endpoint (a :class:`~repro.obs.telemetry.TelemetryServer` whose
   ``/metrics`` is replaced by :func:`render_fleet_prometheus`, which
   preserves per-worker identity as a ``worker="w0"`` label instead of
   flattening it into metric names) and sampled into a
   :class:`~repro.obs.timeseries.TimeSeriesSampler`, giving the SLO
   engine windowed rates/percentiles over fleet-wide series.

Mixed-version fleets are detectable: each worker payload carries its
emit-time ``git_sha`` (telemetry schema v2) and the merged view sets
``mixed_versions`` when workers disagree.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Any, Callable, Dict, Optional

from repro.obs.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetryServer,
    _sanitize,
    render_prometheus,
)
from repro.obs.timeseries import TimeSeriesSampler, flatten_numeric

__all__ = [
    "AGGREGATE_FORMAT_TAG",
    "http_get",
    "http_get_json",
    "render_fleet_prometheus",
    "FleetAggregator",
]

#: Stamped into the aggregated ``/metrics.json`` body.
AGGREGATE_FORMAT_TAG = "repro-obs-fleet-aggregate-v1"
#: Deadline (seconds) for each of a scrape's connect and read.
SCRAPE_TIMEOUT_S = 3.0
#: Aggregator rounds the fleet time series keeps.
SERIES_CAPACITY = 240


async def http_get(host: str, port: int, path: str) -> bytes:
    """Minimal HTTP/1.0 GET returning the response body.

    The stdlib ``urllib`` blocks the event loop; the aggregator polls
    from inside the fleetctl loop, so scrapes must be native-async.
    Raises :class:`ConnectionError` on any failure (refused, timeout
    after :data:`SCRAPE_TIMEOUT_S`, non-200) so callers have one
    exception to map to "stale".
    """
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), SCRAPE_TIMEOUT_S
        )
    except (OSError, asyncio.TimeoutError) as exc:
        raise ConnectionError(f"{host}:{port}: connect failed ({exc})")
    try:
        writer.write(
            f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), SCRAPE_TIMEOUT_S)
    except (OSError, asyncio.TimeoutError) as exc:
        raise ConnectionError(f"{host}:{port}{path}: read failed ({exc})")
    finally:
        with contextlib.suppress(Exception):
            writer.close()
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ConnectionError(f"{host}:{port}{path}: truncated response")
    status_line = head.split(b"\r\n", 1)[0].split()
    if len(status_line) < 2 or status_line[1] != b"200":
        raise ConnectionError(
            f"{host}:{port}{path}: HTTP {status_line[1:2] or b'?'}"
        )
    return body


async def http_get_json(host: str, port: int, path: str) -> "dict[str, Any]":
    body = await http_get(host, port, path)
    try:
        obj = json.loads(body)
    except ValueError as exc:
        raise ConnectionError(f"{host}:{port}{path}: bad JSON ({exc})")
    if not isinstance(obj, dict):
        raise ConnectionError(f"{host}:{port}{path}: expected JSON object")
    return obj


def render_fleet_prometheus(view: "dict[str, Any]") -> str:
    """Prometheus text for a merged fleet view, worker identity as a
    label.

    Per-worker registries become ``repro_worker_<metric>{worker=...}``
    families (histograms keep their cumulative ``le`` buckets, with the
    worker label on every bucket line); liveness is
    ``repro_worker_up`` (0 for stale/unscraped workers).  The
    fleet-level snapshot and derived totals render through the plain
    single-process renderer under ``repro_fleet``.
    """
    # family name -> (type, [sample lines]) so every family's samples
    # stay contiguous, as the exposition format requires.
    families: "dict[str, tuple[str, list[str]]]" = {}

    def add(name: str, ftype: str, line: str) -> None:
        entry = families.get(name)
        if entry is None:
            entry = families[name] = (ftype, [])
        entry[1].append(line)

    workers = view.get("workers", {})
    up_name = "repro_worker_up"
    for wid in sorted(workers):
        w = workers[wid]
        up = 0 if (w.get("stale") or not w.get("scraped")) else 1
        add(up_name, "gauge", f'{up_name}{{worker="{wid}"}} {up}')
        scalars, hists = flatten_numeric(w.get("registry", {}))
        for key in sorted(scalars):
            value = scalars[key]
            name = f"repro_worker_{_sanitize(key.replace('.', '_'))}"
            ftype = "gauge" if isinstance(value, float) else "counter"
            add(name, ftype, f'{name}{{worker="{wid}"}} {value}')
        for key in sorted(hists):
            name = f"repro_worker_{_sanitize(key.replace('.', '_'))}"
            bounds: list[tuple[int, int]] = []
            for k, v in hists[key].items():
                try:
                    bounds.append((int(k[2:]), int(v)))
                except (ValueError, TypeError):
                    continue
            bounds.sort()
            cum = 0
            for upper, count in bounds:
                cum += count
                add(
                    name, "histogram",
                    f'{name}_bucket{{worker="{wid}",le="{upper}"}} {cum}',
                )
            add(
                name, "histogram",
                f'{name}_bucket{{worker="{wid}",le="+Inf"}} {cum}',
            )
            add(name, "histogram", f'{name}_count{{worker="{wid}"}} {cum}')

    lines: list[str] = []
    for name in sorted(families):
        ftype, samples = families[name]
        lines.append(f"# TYPE {name} {ftype}")
        lines.extend(samples)
    out = "\n".join(lines) + "\n" if lines else ""

    fleet_level: dict[str, Any] = {}
    if isinstance(view.get("fleet"), dict):
        fleet_level.update(view["fleet"])
    if isinstance(view.get("derived"), dict):
        fleet_level["derived"] = view["derived"]
    if fleet_level:
        out += render_prometheus(fleet_level, prefix="repro_fleet")
    return out


class FleetAggregator:
    """Poll a fleet's admin port + worker telemetry into one view.

    ``admin_host``/``admin_port`` point at the ``repro-fleet serve``
    admin listener (usually the aggregator's own process, but a remote
    fleet works identically).  :meth:`refresh` performs one
    discover-and-scrape round; :meth:`start` runs it on an interval and
    samples the merged numeric view into :attr:`sampler` for windowed
    rollups.
    """

    def __init__(
        self,
        admin_host: str,
        admin_port: int,
        interval_s: float = 0.5,
        on_refresh: "Optional[Callable[[dict, float], None]]" = None,
    ) -> None:
        self.admin_host = admin_host
        self.admin_port = admin_port
        self.interval_s = interval_s
        #: Called after every round with ``(view, now)`` — the SLO
        #: engine clocks its evaluations off this.
        self.on_refresh = on_refresh
        #: wid -> scrape record (last payload kept across failures).
        self.workers: "dict[str, dict[str, Any]]" = {}
        self.fleet: "dict[str, Any]" = {}
        self.admin_ok = False
        self.rounds = 0
        self.scrape_failures = 0
        self._clock = 0.0
        self.sampler = TimeSeriesSampler(
            self.numeric_view,
            interval_s=interval_s,
            capacity=SERIES_CAPACITY,
            domain="wall",
        )
        self._task: "Optional[asyncio.Task]" = None

    # -- one round --------------------------------------------------------

    async def refresh(self, now: "Optional[float]" = None) -> "dict[str, Any]":
        """One discover + scrape round; returns the merged view.

        Never raises: an unreachable admin port flips ``admin_ok`` and
        keeps the previous wiring; a failed worker scrape marks that
        worker stale.  ``now`` is the caller's clock (defaults to the
        loop's)."""
        if now is None:
            now = asyncio.get_running_loop().time()
        self._clock = now
        self.rounds += 1
        wiring: "dict[str, Any]" = {}
        try:
            admin = await http_get_json(self.admin_host, self.admin_port, "/fleet")
            self.admin_ok = bool(admin.get("ok"))
            if isinstance(admin.get("fleet"), dict):
                self.fleet = admin["fleet"]
            if isinstance(admin.get("wiring"), dict):
                wiring = admin["wiring"]
        except ConnectionError:
            self.admin_ok = False
            wiring = {
                wid: {"telemetry_port": w.get("telemetry_port")}
                for wid, w in self.workers.items()
            }

        async def scrape(wid: str, tport: "Optional[int]") -> None:
            rec = self.workers.setdefault(
                wid,
                {
                    "registry": {}, "scraped": False, "stale": False,
                    "last_ok_t": None, "failures": 0,
                    "git_sha": None, "dirty": None, "schema_version": None,
                },
            )
            rec["telemetry_port"] = tport
            if not tport:
                rec["stale"] = bool(rec["scraped"])
                return
            try:
                payload = await http_get_json(
                    self.admin_host, int(tport), "/metrics.json"
                )
            except ConnectionError:
                self.scrape_failures += 1
                rec["failures"] += 1
                rec["stale"] = True
                return
            rec["scraped"] = True
            rec["stale"] = False
            rec["last_ok_t"] = now
            rec["registry"] = payload.get("registry", {})
            rec["git_sha"] = payload.get("git_sha")
            rec["dirty"] = payload.get("dirty")
            rec["schema_version"] = payload.get("schema_version")

        # Forget workers the admin no longer reports as wired at all
        # (fully gone, not merely down: their series would never
        # recover), then scrape the wired set concurrently.
        if self.admin_ok:
            for wid in list(self.workers):
                if wid not in wiring:
                    del self.workers[wid]
        await asyncio.gather(
            *(
                scrape(wid, (wiring[wid] or {}).get("telemetry_port"))
                for wid in sorted(wiring)
            )
        )
        self.sampler.sample(now)
        view = self.view()
        if self.on_refresh is not None:
            self.on_refresh(view, now)
        return view

    # -- merged views -----------------------------------------------------

    def _derived(self) -> "dict[str, Any]":
        """Fleet-wide totals the SLO rules reference by dotted path."""
        total_bytes = 0
        total_chains = 0
        up = 0
        stale = 0
        shas = set()
        for w in self.workers.values():
            if w.get("stale") or not w.get("scraped"):
                stale += 1
            else:
                up += 1
            shas.add(w.get("git_sha"))
            reg = w.get("registry", {})
            relay = reg.get("relay", reg)
            if isinstance(relay, dict):
                total_bytes += int(relay.get("bytes_relayed", 0) or 0)
                total_chains += int(relay.get("active_chains", 0) or 0)
        return {
            "bytes_relayed_total": total_bytes,
            "active_chains_total": total_chains,
            "workers_up": up,
            "workers_stale": stale,
            "mixed_versions": len({s for s in shas if s is not None}) > 1,
        }

    def view(self) -> "dict[str, Any]":
        """The full merged fleet view (plain data, JSON-safe)."""
        derived = self._derived()
        workers: "dict[str, Any]" = {}
        for wid in sorted(self.workers):
            w = self.workers[wid]
            age = (
                None if w.get("last_ok_t") is None
                else round(self._clock - w["last_ok_t"], 6)
            )
            workers[wid] = dict(w, age_s=age)
        return {
            "format": AGGREGATE_FORMAT_TAG,
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "admin_ok": self.admin_ok,
            "rounds": self.rounds,
            "scrape_failures": self.scrape_failures,
            "fleet": self.fleet,
            "workers": workers,
            "derived": derived,
        }

    def numeric_view(self) -> "dict[str, Any]":
        """The slice of the view the time-series sampler records: the
        fleet snapshot, derived totals, and per-worker registries."""
        return {
            "fleet": self.fleet,
            "derived": self._derived(),
            "workers": {
                wid: w.get("registry", {})
                for wid, w in self.workers.items()
            },
        }

    # -- serving ----------------------------------------------------------

    def start(self) -> "asyncio.Task":
        """Run refresh rounds on ``interval_s`` until :meth:`stop`."""

        async def run() -> None:
            while True:
                await self.refresh()
                await asyncio.sleep(self.interval_s)

        self._task = asyncio.get_running_loop().create_task(run())
        return self._task

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    def make_endpoint(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        extra_routes: "Optional[dict[str, Callable[[], tuple[str, str]]]]" = None,
        window_s: "Optional[float]" = None,
    ) -> TelemetryServer:
        """The aggregated endpoint: ``/metrics`` renders the merged
        fleet view with per-worker labels, ``/metrics.json`` carries
        the view + windowed rollup, and ``extra_routes`` (e.g. the SLO
        engine's ``/alerts``) mount alongside."""
        routes: "dict[str, Callable[[], tuple[str, str]]]" = {
            "/metrics": lambda: (
                "text/plain; version=0.0.4",
                render_fleet_prometheus(self.view()),
            ),
        }
        if extra_routes:
            routes.update(extra_routes)
        return TelemetryServer(
            self.numeric_view,
            host=host,
            port=port,
            extra_fn=lambda: {
                "aggregate": self.view(),
                "rollup": self.sampler.rollup(window_s),
            },
            routes=routes,
        )
