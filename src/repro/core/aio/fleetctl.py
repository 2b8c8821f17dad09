"""Fleet control plane: admin endpoint + the ``repro-fleet`` CLI.

The :class:`~repro.core.aio.fleet.FleetManager` is an in-process
object; this module puts it on the wire so operators (and CI) can run
and steer a fleet from a shell::

    # Terminal 1 — run a 4-worker fleet, admin endpoint on 7900:
    repro-fleet serve --workers 4 --port 7000 --admin-port 7900

    # Terminal 2 — inspect and drain:
    repro-fleet status --admin-port 7900
    repro-fleet drain w2 --admin-port 7900 --grace 5
    repro-fleet stop --admin-port 7900

The admin server is the same dependency-free asyncio HTTP shape as the
telemetry endpoint (PR 4), with three routes:

* ``GET /fleet`` — the fleet snapshot
  plus per-worker wiring (pid, private control port, telemetry port).
* ``POST /drain?worker=<id>[&grace_s=<s>]`` — start a graceful drain;
  returns immediately, the drain completes in the background
  (``GET /fleet`` shows ``draining`` → ``gone``).
* ``POST /stop`` — stop the whole fleet and exit ``serve``.

``GET`` is accepted on the mutating routes too, for curl-ability; the
CLI uses ``POST``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import logging
import sys
from typing import Any, Optional
from urllib.parse import parse_qs, urlsplit

from repro.core.aio.fleet import FleetManager, FleetSpec

__all__ = ["FleetAdminServer", "main"]

log = logging.getLogger("repro.fleet")

_MAX_REQUEST = 16 * 1024


class FleetAdminServer:
    """Minimal asyncio HTTP endpoint steering one fleet manager."""

    def __init__(
        self,
        manager: FleetManager,
        host: str = "127.0.0.1",
        port: int = 0,
        on_stop: "Optional[asyncio.Event]" = None,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        #: Set when a ``/stop`` request lands — ``serve`` exits on it.
        self.on_stop = on_stop
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def bound_port(self) -> int:
        if self._server is None:
            raise RuntimeError("admin server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "FleetAdminServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self.bound_port
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            self._server = None

    # -- request handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(
                reader.readline(), timeout=5.0
            )
        except (asyncio.TimeoutError, ConnectionError, OSError):
            writer.close()
            return
        try:
            parts = request.decode("latin-1").split()
            method, target = parts[0], parts[1]
        except (UnicodeDecodeError, IndexError, ValueError):
            writer.close()
            return
        # Drain (and ignore) the header block.
        drained = 0
        while drained < _MAX_REQUEST:
            try:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                break
            drained += len(line)
            if line in (b"\r\n", b"\n", b""):
                break
        status, body = await self._route(method, target)
        payload = json.dumps(body, indent=2).encode()
        head = (
            f"HTTP/1.0 {status} {'OK' if status == 200 else 'ERR'}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        with contextlib.suppress(ConnectionError, OSError):
            writer.write(head + payload)
            await writer.drain()
        writer.close()

    async def _route(
        self, method: str, target: str
    ) -> "tuple[int, dict[str, Any]]":
        url = urlsplit(target)
        query = parse_qs(url.query)
        path = url.path.rstrip("/") or "/"
        if method not in ("GET", "POST"):
            return 405, {"ok": False, "error": f"method {method} not allowed"}
        if path == "/fleet":
            return 200, {
                "ok": True,
                "fleet": self.manager.snapshot(),
                "endpoint": {
                    "host": self.manager.host,
                    "port": self.manager.port,
                },
                "wiring": {
                    wid: {
                        "pid": h.pid,
                        "control_port": h.control_port,
                        "telemetry_port": h.telemetry_port,
                    }
                    for wid, h in self.manager.handles.items()
                },
            }
        if path == "/drain":
            worker = (query.get("worker") or [None])[0]
            if worker is None:
                return 400, {"ok": False, "error": "missing ?worker=<id>"}
            if worker not in self.manager.handles:
                return 404, {"ok": False, "error": f"no such worker {worker!r}"}
            grace_raw = (query.get("grace_s") or [None])[0]
            try:
                grace = float(grace_raw) if grace_raw is not None else None
            except ValueError:
                return 400, {"ok": False, "error": f"bad grace_s {grace_raw!r}"}
            asyncio.get_running_loop().create_task(
                self.manager.drain(worker, grace_s=grace)
            )
            return 200, {"ok": True, "draining": worker}
        if path == "/stop":
            if self.on_stop is not None:
                self.on_stop.set()
            return 200, {"ok": True, "stopping": True}
        return 404, {"ok": False, "error": f"no route {path!r}"}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _spec_from_args(args: argparse.Namespace) -> FleetSpec:
    """The ``serve`` arguments as a :class:`FleetSpec`."""
    return FleetSpec(
        workers=args.workers,
        host=args.host,
        port=args.port,
        secret=args.secret,
        max_chains_per_client=args.quota,
        heartbeat_s=args.heartbeat,
        drain_grace_s=args.drain_grace,
        telemetry=args.telemetry,
        trace_dir=args.trace_dir,
        trace_site=args.trace_site,
    )


async def _serve(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    manager = FleetManager(spec)
    await manager.start()
    stop_event = asyncio.Event()
    admin = FleetAdminServer(
        manager, host=args.admin_host, port=args.admin_port,
        on_stop=stop_event,
    )
    await admin.start()

    log.info(
        "fleet endpoint %s:%d (%d workers); admin http://%s:%d/fleet",
        manager.host, manager.port, spec.workers,
        args.admin_host, admin.bound_port,
    )
    try:
        await stop_event.wait()
    finally:
        await admin.stop()
        await manager.stop()
    return 0


def _admin_request(
    args: argparse.Namespace, method: str, target: str
) -> "dict[str, Any]":
    import http.client

    conn = http.client.HTTPConnection(
        args.admin_host, args.admin_port, timeout=10
    )
    try:
        conn.request(method, target)
        resp = conn.getresponse()
        raw = resp.read()
    finally:
        conn.close()
    try:
        return json.loads(raw)
    except ValueError:
        return {"ok": False, "error": f"unparseable admin reply: {raw[:200]!r}"}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="Sharded Nexus-proxy relay fleet: N outer workers "
        "behind one logical endpoint, with least-loaded placement, "
        "per-client quotas and graceful drain.",
    )
    parser.add_argument(
        "--admin-host", default="127.0.0.1",
        help="admin endpoint address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--admin-port", type=int, default=7900,
        help="admin endpoint port (default 7900)",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="cmd", required=True)

    serve = sub.add_parser("serve", help="run a fleet until /stop or ^C")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7000,
        help="logical fleet endpoint port (0 = pick one)",
    )
    serve.add_argument("--secret", default=None)
    serve.add_argument(
        "--quota", type=int, default=None, metavar="N",
        help="max concurrent chains per client address",
    )
    serve.add_argument("--heartbeat", type=float, default=0.25)
    serve.add_argument("--drain-grace", type=float, default=2.0)
    serve.add_argument(
        "--telemetry", action="store_true",
        help="per-worker /metrics endpoints (ports in GET /fleet wiring)",
    )
    serve.add_argument(
        "--trace-dir", default=None,
        help="write per-worker trace artifacts here on shutdown "
        "(worker-<id>.trace.json; feed them to repro-obs assemble)",
    )
    serve.add_argument("--trace-site", default="fleet")

    status = sub.add_parser("status", help="print GET /fleet")
    status.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-poll every SECONDS until interrupted",
    )

    drain = sub.add_parser("drain", help="gracefully retire one worker")
    drain.add_argument("worker", help="worker id, e.g. w0")
    drain.add_argument("--grace", type=float, default=None,
                       help="seconds busy chains get before abort")

    sub.add_parser("stop", help="stop the fleet")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )

    if args.cmd == "serve":
        with contextlib.suppress(KeyboardInterrupt):
            return asyncio.run(_serve(args))
        return 0
    if args.cmd == "status":
        import time

        while True:
            body = _admin_request(args, "GET", "/fleet")
            json.dump(body, sys.stdout, indent=2)
            sys.stdout.write("\n")
            if args.watch is None:
                break
            try:
                time.sleep(args.watch)
            except KeyboardInterrupt:
                break
        return 0 if body.get("ok") else 1
    if args.cmd == "drain":
        target = f"/drain?worker={args.worker}"
        if args.grace is not None:
            target += f"&grace_s={args.grace}"
        body = _admin_request(args, "POST", target)
        json.dump(body, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0 if body.get("ok") else 1
    if args.cmd == "stop":
        body = _admin_request(args, "POST", "/stop")
        json.dump(body, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0 if body.get("ok") else 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
