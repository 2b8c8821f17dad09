"""Fleet telemetry aggregation: discovery, merge, staleness under
churn, and the per-worker-labelled Prometheus re-export."""

import asyncio
import json

import pytest

from repro.obs.aggregate import (
    AGGREGATE_FORMAT_TAG,
    FleetAggregator,
    http_get,
    http_get_json,
    render_fleet_prometheus,
)
from repro.obs.metrics import LogHistogram, MetricsRegistry
from repro.obs.telemetry import TelemetryServer


def _worker_registry(bytes_relayed: int) -> MetricsRegistry:
    """Shaped like a real worker's registry: relay stats under a
    'relay' collector prefix, histogram included."""
    reg = MetricsRegistry()
    hist = LogHistogram()
    hist.record(100)
    hist.record(60_000)
    reg.register_collector("relay", lambda: {
        "bytes_relayed": bytes_relayed,
        "active_chains": 2,
        "chunk_bytes_hist": hist.snapshot(),
    })
    return reg


class _SyntheticFleet:
    """An admin endpoint + N worker telemetry endpoints with no actual
    fleet behind them — the aggregator only ever sees HTTP."""

    def __init__(self, nworkers: int = 2) -> None:
        self.registries = {
            f"w{i}": _worker_registry(1000 * (i + 1)) for i in range(nworkers)
        }
        self.workers: "dict[str, TelemetryServer]" = {}
        self.wiring: "dict[str, dict]" = {}
        self.fleet_snapshot = {
            "mode": "handoff", "drains_started": 0, "drains_completed": 0,
        }
        self.admin_ok = True
        self.admin: TelemetryServer | None = None

    def _fleet_route(self):
        return (
            "application/json",
            json.dumps({
                "ok": self.admin_ok,
                "fleet": self.fleet_snapshot,
                "wiring": self.wiring,
            }) + "\n",
        )

    async def start(self) -> "_SyntheticFleet":
        for wid, reg in self.registries.items():
            server = await TelemetryServer(reg.snapshot, port=0).start()
            self.workers[wid] = server
            self.wiring[wid] = {"telemetry_port": server.bound_port}
        self.admin = await TelemetryServer(
            dict, port=0, routes={"/fleet": self._fleet_route}
        ).start()
        return self

    async def stop(self) -> None:
        for server in self.workers.values():
            await server.stop()
        if self.admin is not None:
            await self.admin.stop()


def test_aggregator_merges_all_live_workers():
    async def main():
        fake = await _SyntheticFleet(2).start()
        try:
            agg = FleetAggregator("127.0.0.1", fake.admin.bound_port)
            view = await agg.refresh(now=10.0)
            assert view["format"] == AGGREGATE_FORMAT_TAG
            assert view["admin_ok"] is True
            assert sorted(view["workers"]) == ["w0", "w1"]
            for wid, w in view["workers"].items():
                assert w["scraped"] and not w["stale"]
                assert w["schema_version"] == 2
                assert w["git_sha"]  # emit-time provenance propagated
                assert w["age_s"] == 0.0
            derived = view["derived"]
            assert derived["bytes_relayed_total"] == 3000
            assert derived["active_chains_total"] == 4
            assert derived["workers_up"] == 2
            assert derived["workers_stale"] == 0
            assert derived["mixed_versions"] is False
            # Each refresh also feeds the fleet time-series.
            assert len(agg.sampler) == 1
            key = "workers.w1.relay.bytes_relayed"
            assert agg.sampler.series(key) == [(10.0, 2000)]
        finally:
            await fake.stop()

    asyncio.run(asyncio.wait_for(main(), timeout=15))


def test_worker_dying_mid_scrape_goes_stale_not_error():
    async def main():
        fake = await _SyntheticFleet(2).start()
        try:
            agg = FleetAggregator("127.0.0.1", fake.admin.bound_port)
            await agg.refresh(now=1.0)
            # w1 dies but stays wired (mid-restart): stale, last
            # payload kept, fleet view still served.
            await fake.workers["w1"].stop()
            view = await agg.refresh(now=2.0)
            w1 = view["workers"]["w1"]
            assert w1["stale"] and w1["scraped"]
            assert w1["registry"]["relay"]["bytes_relayed"] == 2000  # kept
            assert w1["age_s"] == 1.0
            assert view["derived"]["workers_up"] == 1
            assert view["derived"]["workers_stale"] == 1
            assert agg.scrape_failures == 1
            # Once the admin stops wiring it, the worker is dropped.
            del fake.wiring["w1"]
            view = await agg.refresh(now=3.0)
            assert sorted(view["workers"]) == ["w0"]
        finally:
            await fake.stop()

    asyncio.run(asyncio.wait_for(main(), timeout=15))


def test_admin_outage_keeps_last_wiring():
    async def main():
        fake = await _SyntheticFleet(1).start()
        try:
            agg = FleetAggregator("127.0.0.1", fake.admin.bound_port)
            await agg.refresh(now=1.0)
            await fake.admin.stop()
            fake.admin = None
            # Admin gone: workers keep being scraped via the last
            # known wiring instead of vanishing from the view.
            view = await agg.refresh(now=2.0)
            assert view["admin_ok"] is False
            assert view["workers"]["w0"]["scraped"]
            assert not view["workers"]["w0"]["stale"]
        finally:
            await fake.stop()

    asyncio.run(asyncio.wait_for(main(), timeout=15))


def test_render_fleet_prometheus_labels_and_families():
    view = {
        "workers": {
            "w0": {
                "scraped": True, "stale": False,
                "registry": {
                    "relay.bytes_relayed": 1000,
                    "relay.chunk_bytes_hist": {"<=127": 1, "<=65535": 1},
                },
            },
            "w1": {"scraped": True, "stale": True, "registry": {
                "relay.bytes_relayed": 2000,
            }},
        },
        "fleet": {"placed_chains": 4},
        "derived": {"workers_up": 1},
    }
    text = render_fleet_prometheus(view)
    lines = text.splitlines()
    assert 'repro_worker_up{worker="w0"} 1' in lines
    assert 'repro_worker_up{worker="w1"} 0' in lines  # stale == down
    assert 'repro_worker_relay_bytes_relayed{worker="w0"} 1000' in lines
    assert 'repro_worker_relay_bytes_relayed{worker="w1"} 2000' in lines
    hist_lines = [
        l for l in lines if l.startswith("repro_worker_relay_chunk_bytes")
    ]
    assert 'repro_worker_relay_chunk_bytes_hist_bucket{worker="w0",le="127"} 1' in hist_lines
    assert 'repro_worker_relay_chunk_bytes_hist_bucket{worker="w0",le="+Inf"} 2' in hist_lines
    assert 'repro_worker_relay_chunk_bytes_hist_count{worker="w0"} 2' in hist_lines
    # Family samples stay contiguous: every series of one family sits
    # directly under its single # TYPE line.
    type_idx = [i for i, l in enumerate(lines) if l.startswith("# TYPE")]
    for i, idx in enumerate(type_idx):
        end = type_idx[i + 1] if i + 1 < len(type_idx) else len(lines)
        family = lines[idx].split()[2]
        assert all(
            lines[j].startswith(family) for j in range(idx + 1, end)
            if lines[j] and not lines[j].startswith("#")
        )
    # Fleet-level snapshot renders under its own prefix.
    assert "repro_fleet_placed_chains 4" in lines
    assert 'repro_fleet_derived{key="workers_up"} 1' in lines


def test_http_get_maps_failures_to_connection_error():
    async def main():
        with pytest.raises(ConnectionError):
            await http_get("127.0.0.1", 1, "/metrics.json")
        server = await TelemetryServer(dict, port=0).start()
        try:
            with pytest.raises(ConnectionError):  # 404 is a failure too
                await http_get_json("127.0.0.1", server.bound_port, "/nope")
            body = await http_get_json(
                "127.0.0.1", server.bound_port, "/metrics.json"
            )
            assert body["schema_version"] == 2
        finally:
            await server.stop()

    asyncio.run(asyncio.wait_for(main(), timeout=15))


def test_aggregated_endpoint_serves_merged_view():
    async def main():
        fake = await _SyntheticFleet(2).start()
        endpoint = None
        try:
            agg = FleetAggregator("127.0.0.1", fake.admin.bound_port)
            await agg.refresh(now=1.0)
            endpoint = await agg.make_endpoint().start()
            payload = await http_get_json(
                "127.0.0.1", endpoint.bound_port, "/metrics.json"
            )
            assert payload["aggregate"]["format"] == AGGREGATE_FORMAT_TAG
            assert sorted(payload["aggregate"]["workers"]) == ["w0", "w1"]
            assert payload["rollup"]["samples"] == 1
            prom = (await http_get(
                "127.0.0.1", endpoint.bound_port, "/metrics"
            )).decode()
            assert 'repro_worker_up{worker="w0"} 1' in prom
            assert 'repro_worker_up{worker="w1"} 1' in prom
        finally:
            if endpoint is not None:
                await endpoint.stop()
            await fake.stop()

    asyncio.run(asyncio.wait_for(main(), timeout=15))


@pytest.mark.slow
def test_concurrent_scrapes_during_real_fleet_drain():
    """Telemetry under churn: the aggregator keeps polling a real
    2-worker fleet while one worker drains away; no round errors, the
    drained (gone, still-wired) worker turns stale with its last
    payload kept, and the survivor stays live."""
    from repro.core.aio.fleet import FleetManager, FleetSpec
    from repro.core.aio.fleetctl import FleetAdminServer

    async def main():
        fleet = await FleetManager(FleetSpec(
            workers=2, heartbeat_s=0.1, telemetry=True,
        )).start()
        admin = await FleetAdminServer(fleet).start()
        agg = FleetAggregator(
            "127.0.0.1", admin.bound_port, interval_s=0.05
        )
        try:
            agg.start()
            for _ in range(100):
                await asyncio.sleep(0.05)
                if agg.rounds >= 2:
                    break
            assert sorted(agg.view()["workers"]) == ["w0", "w1"]
            # Scrapes continue concurrently with the drain.
            await fleet.drain("w0", grace_s=0.2)
            for _ in range(100):
                await asyncio.sleep(0.05)
                view = agg.view()
                w0 = view["workers"].get("w0", {})
                if w0.get("stale") and view["fleet"].get(
                    "drains_completed"
                ) == 1:
                    break
            view = agg.view()
            # The gone worker stays wired (the manager keeps its
            # handle for reporting), so the aggregator keeps it as a
            # stale entry with its last-good payload instead of
            # erroring or dropping history.
            w0 = view["workers"]["w0"]
            assert w0["stale"] and w0["scraped"]
            assert view["workers"]["w1"]["scraped"]
            assert not view["workers"]["w1"]["stale"]
            assert view["fleet"]["drains_completed"] == 1
            assert view["fleet"]["workers"]["w0"]["state"] == "gone"
            assert view["derived"]["workers_up"] == 1
            assert view["derived"]["workers_stale"] == 1
            assert len(agg.sampler) >= 2
        finally:
            await agg.stop()
            await admin.stop()
            await fleet.stop()

    asyncio.run(asyncio.wait_for(main(), timeout=60))
