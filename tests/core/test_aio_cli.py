"""Daemon CLI argument parsing (without running the servers)."""

import pytest

from repro.core.aio import cli, fleetctl
from repro.core.aio.fleet import FleetSpec


def test_outer_parser_defaults(monkeypatch):
    captured = {}

    def fake_run(coro):
        coro.close()
        captured["ran"] = True

    monkeypatch.setattr(cli.asyncio, "run", fake_run)
    assert cli.outer_main([]) == 0
    assert captured["ran"]


def test_outer_parser_options(monkeypatch):
    built = {}

    class FakeServer:
        def __init__(self, host, port, secret):
            built.update(host=host, port=port, secret=secret)

    monkeypatch.setattr(cli, "AioOuterServer", FakeServer)
    monkeypatch.setattr(cli.asyncio, "run", lambda coro: coro.close())
    cli.outer_main(
        ["--host", "0.0.0.0", "--control-port", "7777", "--secret", "s3cret"]
    )
    assert built == {"host": "0.0.0.0", "port": 7777, "secret": "s3cret"}


def test_inner_parser_options(monkeypatch):
    built = {}

    class FakeServer:
        def __init__(self, host, nxport, allowed_peers):
            built.update(host=host, nxport=nxport, allowed_peers=allowed_peers)

    monkeypatch.setattr(cli, "AioInnerServer", FakeServer)
    monkeypatch.setattr(cli.asyncio, "run", lambda coro: coro.close())
    cli.inner_main(
        ["--nxport", "7100", "--allow-from", "203.0.113.1",
         "--allow-from", "203.0.113.2"]
    )
    assert built["nxport"] == 7100
    assert built["allowed_peers"] == ["203.0.113.1", "203.0.113.2"]


def test_inner_allow_from_defaults_to_open(monkeypatch):
    built = {}

    class FakeServer:
        def __init__(self, host, nxport, allowed_peers):
            built["allowed_peers"] = allowed_peers

    monkeypatch.setattr(cli, "AioInnerServer", FakeServer)
    monkeypatch.setattr(cli.asyncio, "run", lambda coro: coro.close())
    cli.inner_main([])
    assert built["allowed_peers"] is None


def test_bad_arguments_exit():
    with pytest.raises(SystemExit):
        cli.outer_main(["--control-port", "not-a-port"])


def _served_spec(monkeypatch, argv):
    """The FleetSpec ``repro-fleet serve ARGV`` would start, without
    spawning workers."""
    seen = {}

    async def fake_serve(args):
        seen["spec"] = fleetctl._spec_from_args(args)
        return 0

    monkeypatch.setattr(fleetctl, "_serve", fake_serve)
    assert fleetctl.main(["serve", *argv]) == 0
    return seen["spec"]


def test_fleet_serve_defaults_match_spec_defaults(monkeypatch):
    # --port is the one deliberate difference: the CLI publishes 7000.
    assert _served_spec(monkeypatch, []) == FleetSpec(port=7000)


def test_fleet_serve_arguments_reach_spec(monkeypatch):
    spec = _served_spec(monkeypatch, [
        "--workers", "3", "--host", "0.0.0.0", "--port", "7123",
        "--secret", "s3cret", "--quota", "5",
        "--heartbeat", "0.1", "--drain-grace", "4", "--telemetry",
        "--trace-dir", "/tmp/t", "--trace-site", "ci",
    ])
    assert spec == FleetSpec(
        workers=3, host="0.0.0.0", port=7123, secret="s3cret",
        max_chains_per_client=5, heartbeat_s=0.1, drain_grace_s=4.0,
        telemetry=True, trace_dir="/tmp/t", trace_site="ci",
    )
