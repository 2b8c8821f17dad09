"""The ``repro-obs top`` dashboard: pure rendering plus the CLI
subcommands against a live aggregated endpoint."""

import asyncio
import json

from repro.obs.cli import EXIT_DIFFERS, EXIT_OK, EXIT_RETRIES
from repro.obs.cli import main as obs_main
from repro.obs.top import SPARK_WIDTH, fmt_bytes, fmt_rate, render, sparkline


def _payload():
    return {
        "aggregate": {
            "admin_ok": True,
            "rounds": 12,
            "fleet": {
                "mode": "handoff",
                "placed_chains": 9,
                "drains_started": 1,
                "drains_completed": 0,
                "workers": {
                    "w0": {"state": "up", "active_chains": 3,
                           "bytes_relayed": 5 * 1024 * 1024,
                           "byte_rate": 0.0, "heartbeats": 40},
                    "w1": {"state": "draining", "active_chains": 1,
                           "bytes_relayed": 2048,
                           "byte_rate": 0.0, "heartbeats": 38},
                },
            },
            "workers": {
                "w0": {"scraped": True, "stale": False, "age_s": 0.2},
                "w1": {"scraped": True, "stale": True, "age_s": 4.0},
            },
            "derived": {
                "bytes_relayed_total": 5 * 1024 * 1024 + 2048,
                "active_chains_total": 4,
                "workers_up": 1,
                "workers_stale": 1,
                "mixed_versions": True,
            },
        },
        "rollup": {
            "scalars": {
                "derived.bytes_relayed_total": {"rate": 2.5 * 1024 * 1024},
                "workers.w0.relay.bytes_relayed": {"rate": 1024.0},
            },
        },
    }


def test_formatting_helpers():
    assert fmt_bytes(None) == "-"
    assert fmt_bytes(512) == "512 B"
    assert fmt_bytes(2048) == "2.0 KB"
    assert fmt_bytes(5 * 1024 * 1024) == "5.0 MB"
    assert fmt_rate(1024.0) == "1.0 KB/s"
    assert sparkline([]) == " " * 40
    line = sparkline([0, 1, 2, 4])
    assert len(line) == SPARK_WIDTH
    assert line.endswith("@")  # max maps to the densest glyph
    assert sparkline(range(2 * SPARK_WIDTH)) == sparkline(range(SPARK_WIDTH, 2 * SPARK_WIDTH))


def test_render_frame_shape():
    frame = render(_payload(), alerts=None, rate_history=[1.0, 2.0, 4.0])
    assert "\x1b" not in frame  # pipe/CI-safe: never any escape codes
    lines = frame.splitlines()
    assert lines[0].startswith("repro fleet top  mode=handoff")
    assert "workers=2 up=1 stale=1" in lines[0]
    assert "admin=ok" in lines[0]
    assert any("WARNING: workers report mixed git revisions" == l.strip()
               for l in lines)
    assert any("5.0 MB relayed" in l and "pending_drains=1" in l
               for l in lines)
    assert any("2.5 MB/s" in l for l in lines)
    w0 = next(l for l in lines if l.startswith("w0"))
    assert "up" in w0 and "1.0 KB/s" in w0 and "0.2s ago" in w0
    w1 = next(l for l in lines if l.startswith("w1"))
    assert "draining" in w1 and "stale" in w1
    assert any("no SLO engine attached" in l for l in lines)


def test_render_alerts_section():
    alerts = {
        "evaluations": 7,
        "rules": [
            {"name": "floor", "state": "firing", "value": 3.0},
            {"name": "ceiling", "state": "ok", "value": 12.0},
        ],
        "active": {"floor": {}},
        "history": [
            {"rule": "drain-recovery", "state": "resolved",
             "duration_s": 0.8, "breached": False},
            {"rule": "floor", "state": "firing"},
        ],
    }
    frame = render(_payload(), alerts=alerts)
    assert "alerts: 2 rules, 1 firing (7 evaluations)" in frame
    assert "[!!] floor" in frame
    assert "[ok] ceiling" in frame
    assert "resolved drain-recovery after 0.80s" in frame


def test_render_empty_payload():
    frame = render({})
    assert "(no workers discovered yet)" in frame
    assert "rate:  -" in frame


class _FiringEngine:
    """Minimal /alerts document source with one firing alert."""

    def __init__(self, firing: bool) -> None:
        self.firing = firing

    def route(self):
        doc = {
            "format": "repro-obs-slo-v1",
            "evaluations": 3,
            "rules": [{"name": "floor",
                       "state": "firing" if self.firing else "ok",
                       "value": 1.0}],
            "active": {"floor": {"rule": "floor"}} if self.firing else {},
            "history": [],
        }
        return ("application/json", json.dumps(doc) + "\n")


def _serve_and_run(argv_fn, firing=False):
    """Serve _payload() + /alerts on a real socket, run obs_main in a
    worker thread, return (exit_code, endpoint)."""
    from repro.obs.telemetry import TelemetryServer

    payload = _payload()
    engine = _FiringEngine(firing)
    result: dict = {}

    async def main():
        server = await TelemetryServer(
            dict, port=0,
            extra_fn=lambda: payload,
            routes={"/alerts": engine.route},
        ).start()
        try:
            endpoint = f"127.0.0.1:{server.bound_port}"
            loop = asyncio.get_running_loop()
            result["code"] = await loop.run_in_executor(
                None, obs_main, argv_fn(endpoint)
            )
        finally:
            await server.stop()

    asyncio.run(asyncio.wait_for(main(), timeout=15))
    return result["code"]


def test_top_once_renders_from_live_endpoint(capsys):
    code = _serve_and_run(lambda ep: ["top", ep, "--once"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "repro fleet top  mode=handoff" in out
    assert "\x1b" not in out
    assert "[!!] floor" not in out  # engine not firing
    assert "[ok] floor" in out  # but its rules are listed


def test_alerts_once_exit_codes(capsys):
    assert _serve_and_run(
        lambda ep: ["alerts", ep, "--once"], firing=False
    ) == EXIT_OK
    assert "floor" in capsys.readouterr().out
    # A firing alert is a semantic failure for scripts/CI.
    assert _serve_and_run(
        lambda ep: ["alerts", ep, "--once"], firing=True
    ) == EXIT_DIFFERS


def test_alerts_json_output(capsys):
    code = _serve_and_run(lambda ep: ["alerts", ep, "--once", "--json"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "repro-obs-slo-v1"


def test_top_unreachable_exhausts_retries(capsys):
    code = obs_main([
        "top", "127.0.0.1:1", "--once", "--timeout", "1", "--retries", "0",
    ])
    assert code == EXIT_RETRIES
    assert "retries exhausted" in capsys.readouterr().err
