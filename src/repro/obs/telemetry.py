"""Live telemetry plane: Prometheus-style text exposition over HTTP.

The relay daemons accumulate everything interesting in a
:class:`~repro.obs.metrics.MetricsRegistry` (their stats objects are
registered as collectors); this module puts that registry on the wire
while the daemon runs, instead of only at exit:

* :func:`render_prometheus` — flatten one registry snapshot into the
  Prometheus text exposition format (v0.0.4), entirely from the
  snapshot's plain-data shapes: ints become counters, floats gauges,
  str→int dicts labelled counter families, and ``{"<=N": n}`` dicts
  cumulative ``_bucket{le=...}`` series.
* :class:`HttpEndpoint` — a dependency-free asyncio HTTP/1.0
  listener (one request per connection); the fleet admin endpoint is
  one too.
* :class:`TelemetryServer` — the endpoint serving ``GET /metrics``
  (text exposition) and ``GET /metrics.json`` (the raw snapshot, which
  ``repro-obs tail`` streams).
* :func:`git_revision` / :func:`git_dirty` — the provenance pair that
  ``/metrics.json`` carries and ``repro-bench`` artifacts are stamped
  with.

The server reads the registry only inside the event loop the daemon
already runs on, so no locking is needed and scrapes can never tear a
snapshot.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import subprocess
from pathlib import Path
from typing import Any, Callable, Optional

from repro.obs.metrics import hist_buckets

__all__ = [
    "TELEMETRY_FORMAT_TAG",
    "TELEMETRY_SCHEMA_VERSION",
    "render_prometheus",
    "HttpEndpoint",
    "TelemetryServer",
    "git_dirty",
    "git_revision",
]

#: Stamped into the ``format`` key of every ``/metrics.json`` body.
TELEMETRY_FORMAT_TAG = "repro-obs-telemetry-v1"

#: Payload shape version.  v2 added ``schema_version`` itself plus the
#: emit-time ``git_sha``/``dirty`` provenance pair, so artifacts
#: collected from a mixed-version fleet are detectable.
TELEMETRY_SCHEMA_VERSION = 2

#: Deadline (seconds) for each line of an HTTP request.
REQUEST_LINE_TIMEOUT_S = 5.0
#: Most header bytes an endpoint reads before it answers anyway.
MAX_HEADER_BYTES = 16 * 1024
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed"}


def _git(*args: str) -> Optional[str]:
    """stdout of ``git ARGS`` run in the repository root, or ``None``
    when that is not a git checkout (or git is missing)."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=Path(__file__).resolve().parents[3],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    return out.stdout if out.returncode == 0 else None


def git_revision() -> Optional[str]:
    """Short commit hash of the working tree, or ``None`` outside git."""
    return (_git("rev-parse", "--short", "HEAD") or "").strip() or None


def git_dirty() -> Optional[bool]:
    """Whether the working tree differs from HEAD (``None`` outside
    git).  An artifact whose ``dirty`` flag is true was produced
    by code no commit hash identifies."""
    out = _git("status", "--porcelain")
    return None if out is None else bool(out.strip())


def _sanitize(name: str) -> str:
    """Prometheus metric names: ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out or "_"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_one(name: str, value: Any, lines: "list[str]") -> None:
    if isinstance(value, bool):
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {int(value)}")
    elif isinstance(value, int):
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {value}")
    elif isinstance(value, float):
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {value}")
    elif isinstance(value, dict):
        buckets = hist_buckets(value)
        if buckets is not None:
            # Log2-bucketed histogram → cumulative le-labelled buckets.
            lines.append(f"# TYPE {name} histogram")
            cum = 0
            for upper, count in sorted(buckets):
                cum += count
                lines.append(f'{name}_bucket{{le="{upper}"}} {cum}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {cum}')
            lines.append(f"{name}_count {cum}")
        elif value and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in value.values()
        ):
            # Keyed counter family → one labelled series.
            lines.append(f"# TYPE {name} counter")
            for k in sorted(value):
                lines.append(f'{name}{{key="{_escape_label(str(k))}"}} {value[k]}')
        else:
            # Nested collector snapshot: recurse with a joined name.
            for k in sorted(value):
                _render_one(f"{name}_{_sanitize(str(k))}", value[k], lines)
    # Strings and other leaves have no numeric exposition.


def render_prometheus(
    snapshot: "dict[str, Any]", prefix: str = "repro"
) -> str:
    """Flatten a registry snapshot into Prometheus text exposition."""
    lines: list[str] = []
    for key in sorted(snapshot):
        _render_one(f"{prefix}_{_sanitize(str(key))}", snapshot[key], lines)
    return "\n".join(lines) + "\n"


class HttpEndpoint:
    """Minimal asyncio HTTP/1.0 endpoint: one request per connection.

    The request line and header block are read (each line within
    :data:`REQUEST_LINE_TIMEOUT_S`, at most :data:`MAX_HEADER_BYTES`
    of headers, which are ignored), :meth:`route` answers, and the
    connection closes after the framed response.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    @property
    def bound_port(self) -> int:
        if self._server is None:
            raise RuntimeError(f"{type(self).__name__} not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self):
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

    def route(self, method: str, target: str) -> "tuple[int, str, str]":
        """``(status, content type, body)`` for one request."""
        raise NotImplementedError

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(
                reader.readline(), REQUEST_LINE_TIMEOUT_S
            )
            drained = 0
            while drained < MAX_HEADER_BYTES:
                line = await asyncio.wait_for(
                    reader.readline(), REQUEST_LINE_TIMEOUT_S
                )
                drained += len(line)
                if line in (b"\r\n", b"\n", b""):
                    break
            method, target = (request.decode("latin-1").split() + ["", ""])[:2]
            status, ctype, body = self.route(method, target)
            data = body.encode()
            head = (
                f"HTTP/1.0 {status} {_REASONS.get(status, 'Error')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + data)
            await writer.drain()
        except (asyncio.TimeoutError, ValueError, OSError):
            pass
        finally:
            writer.close()


class TelemetryServer(HttpEndpoint):
    """The telemetry endpoint over a live registry.

    ``snapshot_fn`` is called per scrape (on the daemon's own event
    loop) and must return the registry snapshot dict.  ``extra`` is
    merged into the ``/metrics.json`` body — daemons put their identity
    (role, bound ports) there so ``repro-obs tail`` output is
    self-describing.
    """

    def __init__(
        self,
        snapshot_fn: Callable[[], "dict[str, Any]"],
        host: str = "127.0.0.1",
        port: int = 0,
        extra: "Optional[dict[str, Any]]" = None,
    ) -> None:
        super().__init__(host, port)
        self.snapshot_fn = snapshot_fn
        self.extra = dict(extra) if extra else {}
        self.scrapes = 0
        self._git_sha: Optional[str] = None
        self._git_dirty: Optional[bool] = None

    async def start(self) -> "TelemetryServer":
        # Resolve provenance once at bind time (it forks git): the
        # serving process can't change revision underneath itself, and
        # scrapes must never block on a subprocess.
        self._git_sha = git_revision()
        self._git_dirty = git_dirty()
        return await super().start()

    def route(self, method: str, target: str) -> "tuple[int, str, str]":
        if method != "GET":
            return 405, "text/plain", "only GET is supported\n"
        path = target.split("?", 1)[0]
        self.scrapes += 1
        if path == "/metrics":
            return (200, "text/plain; version=0.0.4",
                    render_prometheus(self.snapshot_fn()))
        if path == "/metrics.json":
            payload: dict[str, Any] = {
                "format": TELEMETRY_FORMAT_TAG,
                "schema_version": TELEMETRY_SCHEMA_VERSION,
                "git_sha": self._git_sha,
                "dirty": self._git_dirty,
                "scrapes": self.scrapes,
                "registry": self.snapshot_fn(),
            }
            payload.update(self.extra)
            return (200, "application/json",
                    json.dumps(payload, sort_keys=True) + "\n")
        return 404, "text/plain", "try /metrics or /metrics.json\n"
