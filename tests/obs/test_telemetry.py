"""The live telemetry plane: Prometheus rendering and the HTTP endpoint."""

import asyncio
import json

from repro.obs.metrics import LogHistogram, MetricsRegistry
from repro.obs.telemetry import (
    TELEMETRY_FORMAT_TAG,
    TELEMETRY_SCHEMA_VERSION,
    MAX_HEADER_BYTES,
    TelemetryServer,
    git_dirty,
    git_revision,
    render_prometheus,
)


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("relay.chunks").inc(7)
    reg.gauge("phase.wall_s").set(1.5)
    reg.counter2d("mpi.bytes", "0->1").inc(64)
    reg.counter2d("mpi.bytes", "1->0").inc(128)
    hist = reg.histogram("chunk_bytes")
    hist.record(3)
    hist.record(3)
    hist.record(4000)
    reg.register_collector("stats", lambda: {"nested": {"deep": 2}, "flat": 5})
    return reg


def test_render_prometheus_shapes():
    text = render_prometheus(_populated_registry().snapshot())
    lines = text.splitlines()
    assert "# TYPE repro_relay_chunks counter" in lines
    assert "repro_relay_chunks 7" in lines
    assert "repro_phase_wall_s 1.5" in lines
    assert 'repro_mpi_bytes{key="0->1"} 64' in lines
    assert 'repro_mpi_bytes{key="1->0"} 128' in lines
    # Histogram buckets are cumulative and end with +Inf and _count.
    assert 'repro_chunk_bytes_bucket{le="3"} 2' in lines
    assert 'repro_chunk_bytes_bucket{le="4095"} 3' in lines
    assert 'repro_chunk_bytes_bucket{le="+Inf"} 3' in lines
    assert "repro_chunk_bytes_count 3" in lines
    # Collector snapshots flatten with underscores; an all-numeric
    # inner dict renders as one labelled family.
    assert "repro_stats_flat 5" in lines
    assert 'repro_stats_nested{key="deep"} 2' in lines


def test_render_sanitizes_names():
    text = render_prometheus({"weird-name.with spaces": 1})
    assert "repro_weird_name_with_spaces 1" in text


async def _http_get(port: int, path: str) -> "tuple[int, str]":
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    head, _, body = raw.decode().partition("\r\n\r\n")
    status = int(head.split()[1])
    return status, body


def test_telemetry_server_serves_both_endpoints():
    reg = _populated_registry()

    async def main():
        server = await TelemetryServer(
            reg.snapshot, port=0, extra={"role": "test"}
        ).start()
        try:
            status, body = await _http_get(server.bound_port, "/metrics")
            assert status == 200
            assert "repro_relay_chunks 7" in body
            status, body = await _http_get(server.bound_port, "/metrics.json")
            assert status == 200
            payload = json.loads(body)
            assert payload["format"] == TELEMETRY_FORMAT_TAG
            assert payload["schema_version"] == TELEMETRY_SCHEMA_VERSION
            # Emit-time provenance (v2): resolved once at start().
            # Both are None outside a git checkout.
            assert payload["git_sha"] == git_revision()
            assert payload["dirty"] == git_dirty()
            assert payload["role"] == "test"
            assert payload["registry"]["relay.chunks"] == 7
            assert payload["scrapes"] == 2
            status, _ = await _http_get(server.bound_port, "/nope")
            assert status == 404
        finally:
            await server.stop()

    asyncio.run(asyncio.wait_for(main(), timeout=15))


def test_endless_header_block_is_answered_at_the_bound():
    """A client that never ends its header block is answered once
    ``MAX_HEADER_BYTES`` of headers are read, not read from forever."""
    reg = MetricsRegistry()
    line = b"X-Pad: " + b"y" * 991 + b"\r\n"  # 1000 bytes
    count = MAX_HEADER_BYTES // len(line) + 1

    async def main():
        server = await TelemetryServer(reg.snapshot, port=0).start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.bound_port)
            writer.write(b"GET /metrics HTTP/1.0\r\n" + line * count)
            raw = await asyncio.wait_for(reader.read(-1), 3)
            writer.close()
            assert raw.startswith(b"HTTP/1.0 200 OK\r\n")
        finally:
            await server.stop()

    asyncio.run(asyncio.wait_for(main(), timeout=15))


def test_telemetry_reflects_live_updates():
    reg = MetricsRegistry()
    c = reg.counter("live.count")

    async def main():
        server = await TelemetryServer(reg.snapshot, port=0).start()
        try:
            _, body = await _http_get(server.bound_port, "/metrics.json")
            assert json.loads(body)["registry"]["live.count"] == 0
            c.inc(41)
            c.inc()
            _, body = await _http_get(server.bound_port, "/metrics.json")
            assert json.loads(body)["registry"]["live.count"] == 42
        finally:
            await server.stop()

    asyncio.run(asyncio.wait_for(main(), timeout=15))


def test_obs_tail_follows_endpoint(capsys):
    """`repro-obs tail --count 2` polls the JSON endpoint and prints
    series deltas."""
    from repro.obs.cli import main as obs_main

    reg = MetricsRegistry()
    reg.counter("tailed.value").inc(5)
    result: dict = {}

    async def main():
        server = await TelemetryServer(reg.snapshot, port=0).start()
        try:
            loop = asyncio.get_running_loop()
            result["code"] = await loop.run_in_executor(
                None, obs_main,
                ["tail", f"127.0.0.1:{server.bound_port}",
                 "--count", "2", "--interval", "0.05"],
            )
        finally:
            await server.stop()

    asyncio.run(asyncio.wait_for(main(), timeout=15))
    assert result["code"] == 0
    out = capsys.readouterr().out
    assert "tailed.value = 5" in out
    assert "1 series" in out


def test_obs_tail_unreachable_exhausts_retries_exits_3(capsys):
    from repro.obs.cli import EXIT_RETRIES, main as obs_main

    code = obs_main([
        "tail", "127.0.0.1:1", "--count", "1", "--timeout", "1",
        "--retries", "0",
    ])
    assert code == EXIT_RETRIES == 3
    assert "repro-obs:" in capsys.readouterr().err
