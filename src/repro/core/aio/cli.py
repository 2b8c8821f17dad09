"""Console entry points for the live relay daemons.

Installed as ``repro-outer-server`` and ``repro-inner-server``::

    # Outside the firewall:
    repro-outer-server --host 0.0.0.0 --control-port 7000

    # Inside the firewall (open TCP 7100 inbound from the outer host):
    repro-inner-server --host 0.0.0.0 --nxport 7100

Both run until interrupted and log connects/binds/chains to stderr.

Observability flags (all off by default):

* ``--telemetry-port N`` — serve the live metrics registry on
  ``http://host:N/metrics`` (Prometheus text) and ``/metrics.json``
  (the stream ``repro-obs tail`` follows).
* ``--trace-out BASE`` — record wall-clock spans while running and
  write ``BASE.trace.json`` + ``BASE.summary.json`` on shutdown.
* ``--trace-site LABEL`` — also turn on causal tracing, prefixing
  every id this daemon mints with ``LABEL`` so ``repro-obs assemble``
  can stitch its trace with the other processes' without id
  collisions.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import logging

from repro.core.aio.relay import AioInnerServer, AioOuterServer
from repro.obs import spans as _obs
from repro.obs import trace as _trace
from repro.obs.export import write_artifacts
from repro.obs.telemetry import TelemetryServer

__all__ = ["outer_main", "inner_main"]

log = logging.getLogger("repro.nexus_proxy")


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="address to bind")
    parser.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="serve /metrics (Prometheus text) and /metrics.json on "
        "this port while running (default: no telemetry listener)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="BASE",
        help="record spans and write BASE.trace.json + BASE.summary.json "
        "on shutdown",
    )
    parser.add_argument(
        "--trace-site", default=None, metavar="LABEL",
        help="enable causal tracing with this site label (ids this "
        "process mints are prefixed LABEL, e.g. 'outer')",
    )
    parser.add_argument("-v", "--verbose", action="store_true")


def _setup_logging(verbose: bool) -> None:
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


async def _serve_forever(server, args, role: str) -> None:
    rec = None
    if args.trace_out is not None:
        rec = _obs.ObsRecorder()
        rec.registry.register_collector("relay", server.stats.snapshot)
        _obs.install(rec)
    if args.trace_site is not None:
        _trace.enable(args.trace_site)
    await server.start()
    telemetry = None
    if args.telemetry_port is not None:
        registry = rec.registry if rec is not None else None
        if registry is None:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            registry.register_collector("relay", server.stats.snapshot)
        telemetry = TelemetryServer(
            registry.snapshot, host=args.host, port=args.telemetry_port,
            extra={"role": role, "host": args.host},
        )
        await telemetry.start()
        log.info("telemetry on http://%s:%d/metrics", args.host,
                 telemetry.bound_port)
    try:
        await asyncio.Event().wait()  # until cancelled
    finally:
        if telemetry is not None:
            await telemetry.stop()
        await server.stop()
        if rec is not None:
            _obs.uninstall()
            paths = write_artifacts(rec, args.trace_out,
                                    extra_meta={"role": role})
            log.info("wrote %s and %s", *paths)


def outer_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-outer-server",
        description="Nexus Proxy outer server (runs outside the firewall)",
    )
    _common(parser)
    parser.add_argument("--control-port", type=int, default=7000)
    parser.add_argument(
        "--secret", default=None,
        help="shared secret clients must present (default: open)",
    )
    args = parser.parse_args(argv)
    _setup_logging(args.verbose)
    server = AioOuterServer(args.host, args.control_port, secret=args.secret)
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_serve_forever(server, args, role="outer"))
    return 0


def inner_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-inner-server",
        description="Nexus Proxy inner server (runs inside the firewall; "
        "open the nxport inbound from the outer server only)",
    )
    _common(parser)
    parser.add_argument("--nxport", type=int, default=7100)
    parser.add_argument(
        "--allow-from", action="append", default=None, metavar="ADDR",
        help="only accept nxport connections from this source address "
        "(repeatable; default: accept any — rely on the packet filter)",
    )
    args = parser.parse_args(argv)
    _setup_logging(args.verbose)
    server = AioInnerServer(
        args.host, args.nxport, allowed_peers=args.allow_from
    )
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_serve_forever(server, args, role="inner"))
    return 0
