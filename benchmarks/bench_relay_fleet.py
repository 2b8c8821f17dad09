"""Relay fleet benchmark: aggregate striped throughput vs worker count.

The fleet's perf claim is *horizontal*: one outer daemon owns one
relay host's WAN link; N workers with distinct onward source addresses
own N links.  On a single-core CI box the raw relay core moves
~160 MB/s (``parallel_streams.k8``), which would mask any fleet win —
so this harness models the thing the fleet actually scales: each
worker binds its own loopback source alias (``onward_bind_hosts``) and
the emulated WAN applies a **per-source-host byte-rate cap**
(:data:`HOST_CAP_MB_S`, default 24 MB/s ≈ a FastEthernet-era site
uplink, far below the CPU ceiling) on top of the usual 3.5 ms one-way
latency.  A single daemon tops out at one host cap; a 4-worker fleet
has 4× the link capacity and the sweep shows whether the data plane
(front-door handoff, per-worker pumps, stripe spread) delivers it.

Writes a ``fleet`` section into ``BENCH_relay.json`` (merging with the
existing sections, which ``repro-bench regress`` gates):

* ``workers.w{1,2,4}.agg_mb_per_s`` — aggregate striped MB/s with N
  workers (2 striped clients, 4 streams each, through the handoff
  front door);
* ``w4_vs_w1_speedup`` — the fleet scaling claim (acceptance ≥ 1.7×).

``--smoke-drain`` runs the CI integration scenario instead: 2 workers,
one k=4 striped transfer, drain the busier worker mid-flight, verify
the payload arrived bit-exact (zero lost/duplicated bytes) and that
the per-worker + client traces assemble with ``unresolved_parents ==
0``.  Exit 0 on success, 1 on any violated invariant.

``--overhead`` measures the cost of the observability plane itself:
the same points with worker telemetry + time-series samplers off vs
on, recorded as ``meta.obs_overhead`` (bound: <3%).

Run::

    PYTHONPATH=src python benchmarks/bench_relay_fleet.py [--quick]
    PYTHONPATH=src python benchmarks/bench_relay_fleet.py --smoke-drain
    PYTHONPATH=src python benchmarks/bench_relay_fleet.py --overhead
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.bench.results import bench_arg_parser, bench_meta, emit_results, repo_root
from repro.core.aio.fleet import FleetManager, FleetSpec
from repro.core.aio.pump import STREAM_LIMIT, maybe_drain, tune_stream
from repro.core.aio.streams import StripeSink, send_striped

MB = 1024 * 1024
WAN_DELAY_S = 3.5e-3
#: Per-relay-host WAN link capacity (MB/s).  Well below the harness
#: CPU ceiling (~40 MB/s aggregate with 4 workers + 2 client threads
#: timesharing one CI core) so the sweep measures link aggregation,
#: not CPU contention.
HOST_CAP_MB_S = 16.0
#: Onward source addresses, one per worker — all of 127/8 is loopback
#: on Linux, so these need no interface configuration.
ONWARD_HOSTS = ["127.0.0.11", "127.0.0.12", "127.0.0.13", "127.0.0.14"]
#: Stripe geometry for the sweep.  The wide per-stream window is
#: load-bearing: chains are placed cold (no byte rates yet → hash
#: ring), so the chain→worker spread can skew, and a narrow window
#: couples every stream to the global restart-marker watermark —
#: aggregate throughput collapses to the slowest host's drain rate.
#: Wide windows let relay-chain buffering (~0.5 MB/chain) bound each
#: stream's inflight instead, so fast hosts run ahead while requeue
#: exposure on a stream death stays chain-buffer-sized.
STRIPE_STREAMS = 4
STRIPE_BLOCK = 128 * 1024
STRIPE_WINDOW = 64
#: Each client's payload moves as ~this-sized sequential striped
#: sub-transfers; re-dialing between them gives placement fresh
#: byte-rate signal (see :func:`_send_side_thread`).
SUB_XFER_MB = 4


class _LinkBucket:
    """Token bucket (``rate`` bytes/s, ``burst`` bytes) modelling one
    relay host's WAN link.  One bucket serializes its waiters — the
    link *is* the shared resource — and debits in burst-sized
    installments, so a read larger than the burst still completes."""

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = time.monotonic()
        self._lock = asyncio.Lock()

    async def acquire(self, n: int) -> None:
        async with self._lock:
            while n > 0:
                now = time.monotonic()
                self.tokens = min(
                    self.burst, self.tokens + (now - self._last) * self.rate
                )
                self._last = now
                step = min(n, self.burst)
                if self.tokens >= step:
                    self.tokens -= step
                    n -= step
                else:
                    delay = (step - self.tokens) / self.rate
                    await asyncio.sleep(max(delay, 0.001))


async def _wan_pipe(reader, writer, delay: float, bucket=None) -> None:
    """One direction of an emulated WAN hop: fixed one-way latency,
    optionally debiting a shared per-host token bucket first (the
    relay host's link capacity)."""
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()

    async def flush() -> None:
        try:
            while True:
                item = await queue.get()
                if item is None:
                    break
                due, data = item
                lag = due - loop.time()
                if lag > 0:
                    await asyncio.sleep(lag)
                writer.write(data)
                await maybe_drain(writer)
        except (ConnectionError, OSError):
            pass
        with contextlib.suppress(Exception):
            writer.close()

    flusher = asyncio.ensure_future(flush())
    try:
        while True:
            data = await reader.read(1 << 16)
            if not data:
                break
            if bucket is not None:
                await bucket.acquire(len(data))
            queue.put_nowait((loop.time() + delay, data))
    except (ConnectionError, OSError):
        pass
    queue.put_nowait(None)
    await flusher


class WanEmulator:
    """WAN hop in front of one stripe sink, with per-source-host caps.

    ``buckets`` maps onward source IP → shared :class:`_LinkBucket`;
    pass one dict across emulators so every stream a relay host
    originates — whichever client/sink it serves — contends for that
    host's link, exactly like a real site uplink.
    """

    def __init__(
        self,
        sink_port: int,
        buckets: "dict[str, _LinkBucket]",
        cap_mb_per_s: float = HOST_CAP_MB_S,
        delay_s: float = WAN_DELAY_S,
    ) -> None:
        self.sink_port = sink_port
        self.buckets = buckets
        self.cap = cap_mb_per_s * MB
        self.delay_s = delay_s
        self._server = None
        self._tasks: set = set()

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    async def start(self, sock: "socket.socket | None" = None) -> "WanEmulator":
        if sock is not None:
            # Pre-bound listener (the sweep binds in the main thread so
            # senders can dial before this thread's loop is running —
            # the kernel queues the SYNs).
            self._server = await asyncio.start_server(
                self._on_conn, sock=sock, limit=STREAM_LIMIT
            )
        else:
            self._server = await asyncio.start_server(
                self._on_conn, "127.0.0.1", 0, limit=STREAM_LIMIT
            )
        return self

    async def _on_conn(self, reader, writer) -> None:
        self._tasks.add(asyncio.current_task())
        try:
            src = (writer.get_extra_info("peername") or ("?",))[0]
            bucket = self.buckets.get(src)
            if bucket is None:
                # Small burst (1/8 s of link) so a transfer can't ride
                # a banked backlog past the cap.
                bucket = _LinkBucket(self.cap, self.cap / 8)
                self.buckets[src] = bucket
            onward_r, onward_w = await asyncio.open_connection(
                "127.0.0.1", self.sink_port, limit=STREAM_LIMIT
            )
            tune_stream(writer)
            tune_stream(onward_w)
            await asyncio.gather(
                # Bulk direction pays for link capacity; the return
                # path (restart markers) only pays latency.
                _wan_pipe(reader, onward_w, self.delay_s, bucket),
                _wan_pipe(onward_r, writer, self.delay_s),
            )
        except (ConnectionError, OSError):
            pass
        finally:
            self._tasks.discard(asyncio.current_task())

    async def stop(self) -> None:
        # Let delay queues flush (final restart markers) before close.
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self._server.close()
        await self._server.wait_closed()


async def _dial_chain(fleet_port: int, host: str, port: int):
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", fleet_port, limit=STREAM_LIMIT
    )
    try:
        tune_stream(writer)
        writer.write(
            json.dumps({"op": "connect", "host": host, "port": port}).encode()
            + b"\n"
        )
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ConnectionError("fleet endpoint closed the connection")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise ConnectionError(str(reply.get("error", "refused")))
        return reader, writer
    except BaseException:
        with contextlib.suppress(Exception):
            writer.close()
        raise


async def _one_client(
    fleet_port: int,
    payload: bytes,
    buckets: "dict[str, _LinkBucket]",
    streams: int = 4,
    block: int = 128 * 1024,
    window: int = 8,
) -> dict:
    """One striped client: own sink + WAN hop, chains dialed through
    the fleet endpoint.  Verifies the payload hash end to end."""
    want = hashlib.sha256(payload).hexdigest()
    sink_conns: asyncio.Queue = asyncio.Queue()

    async def on_conn(reader, writer):
        await sink_conns.put((reader, writer))

    sink_srv = await asyncio.start_server(
        on_conn, "127.0.0.1", 0, limit=STREAM_LIMIT
    )
    sink_port = sink_srv.sockets[0].getsockname()[1]
    wan = await WanEmulator(sink_port, buckets).start()

    async def dial():
        return await _dial_chain(fleet_port, "127.0.0.1", wan.port)

    # The sink outlives the send: a stream the fleet aborts right as
    # the payload completes redials, and only an open StripeSink can
    # answer it with the final restart marker.
    sink = StripeSink(sink_conns.get)
    try:
        recv_task = asyncio.ensure_future(sink.recv())
        report = await send_striped(
            dial, payload, streams=streams,
            block_bytes=block, window_blocks=window,
        )
        data, _sink_report = await recv_task
        if hashlib.sha256(data).hexdigest() != want:
            raise AssertionError("stripe corruption through the fleet")
        return report
    finally:
        await sink.close()
        await wan.stop()
        sink_srv.close()


def _listen_sock(backlog: int = 64) -> "socket.socket":
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    sock.listen(backlog)
    return sock


def _sink_side_thread(
    jobs: list, senders_done: "threading.Event", out: dict
) -> None:
    """Sink half of the sweep, on its own loop in its own OS thread:
    per-client stripe sink + WAN emulator, sharing one per-host bucket
    dict so every client contends for the same emulated links.

    Splitting sinks from senders across threads mirrors the deployed
    shape (different machines) and lets their socket syscalls overlap —
    a single loop runs out of core before a 4-worker fleet does.
    """

    async def run_job(job: dict, buckets: dict) -> bool:
        sink_conns: asyncio.Queue = asyncio.Queue()

        async def on_conn(reader, writer):
            await sink_conns.put((reader, writer))

        sink_srv = await asyncio.start_server(
            on_conn, sock=job["sink_sock"], limit=STREAM_LIMIT
        )
        sink_port = sink_srv.sockets[0].getsockname()[1]
        wan = await WanEmulator(sink_port, buckets).start(
            sock=job["wan_sock"]
        )
        sink = StripeSink(sink_conns.get)
        try:
            digest = hashlib.sha256()
            for _sub in range(job["subs"]):
                data, _report = await sink.recv()
                digest.update(data)
            ok = digest.hexdigest() == job["want"]
            # Keep the sink open past the last payload: a stream that
            # died as its sub-transfer completed redials, and only the
            # sink's completed-transfer memory can answer it.  The
            # event is set on the sender thread once all senders have
            # returned.
            await asyncio.to_thread(senders_done.wait)
            return ok
        finally:
            await sink.close()
            await wan.stop()
            sink_srv.close()
            await sink_srv.wait_closed()

    async def amain() -> None:
        buckets: "dict[str, _LinkBucket]" = {}
        oks = await asyncio.gather(
            *[run_job(job, buckets) for job in jobs]
        )
        out["ok"] = all(oks)

    asyncio.run(amain())


def _send_side_thread(
    fleet_port: int,
    wan_ports: "list[int]",
    payload: bytes,
    subs: int,
    streams: int,
    block: int,
    window: int,
    senders_done: "threading.Event",
    out: dict,
) -> None:
    """Sender half of the sweep: all striped clients on one loop in a
    second OS thread, dialing chains through the fleet front door.

    Each client moves its payload as ``subs`` sequential striped
    sub-transfers (bulk jobs arriving over time, not one endless
    stream).  That sequencing is what lets the fleet's placement
    policy act: the first wave of dials is cold (hash ring — possibly
    skewed), but every later wave sees live per-worker byte rates from
    heartbeats and lands least-loaded, rebalancing the fleet within
    one sub-transfer.
    """

    async def one(wan_port: int) -> list:
        async def dial():
            return await _dial_chain(fleet_port, "127.0.0.1", wan_port)

        sub_len = (len(payload) + subs - 1) // subs
        reports = []
        for sub in range(subs):
            chunk = payload[sub * sub_len:(sub + 1) * sub_len]
            reports.append(await send_striped(
                dial, chunk, streams=streams,
                block_bytes=block, window_blocks=window,
            ))
        return reports

    async def amain() -> None:
        t0 = time.perf_counter()
        out["reports"] = await asyncio.gather(
            *[one(port) for port in wan_ports]
        )
        out["elapsed"] = time.perf_counter() - t0

    try:
        asyncio.run(amain())
    finally:
        senders_done.set()  # releases the sink thread's linger


async def fleet_point(
    workers: int, per_client_bytes: int, clients: int, repeats: int,
    streams: int = STRIPE_STREAMS, telemetry: bool = False,
    sample_interval_s: float = 0.25,
) -> float:
    """Aggregate MB/s of ``clients`` concurrent striped transfers
    through a ``workers``-worker fleet (best of ``repeats``).

    The main loop keeps the fleet manager (front door, heartbeats);
    sinks+WAN emulators and senders each get their own thread+loop so
    the harness doesn't starve the workers it is measuring.
    ``telemetry`` turns on each worker's telemetry endpoint *and*
    time-series sampler — the knob the ``--overhead`` mode flips.
    """
    payload = bytes(bytearray(range(256)) * (per_client_bytes // 256))
    want = hashlib.sha256(payload).hexdigest()
    subs = max(2, per_client_bytes // (SUB_XFER_MB * MB))
    best = 0.0
    for _ in range(repeats):
        fleet = await FleetManager(FleetSpec(
            workers=workers,
            heartbeat_s=0.1,
            onward_bind_hosts=ONWARD_HOSTS[:workers],
            telemetry=telemetry,
            sample_interval_s=sample_interval_s if telemetry else 0.0,
        )).start()
        jobs, wan_ports = [], []
        for _client in range(clients):
            job = {
                "sink_sock": _listen_sock(16),
                "wan_sock": _listen_sock(64),
                "want": want,
                "subs": subs,
            }
            wan_ports.append(job["wan_sock"].getsockname()[1])
            jobs.append(job)
        sink_out: dict = {}
        send_out: dict = {}
        senders_done = threading.Event()
        try:
            await asyncio.gather(
                asyncio.to_thread(
                    _sink_side_thread, jobs, senders_done, sink_out
                ),
                asyncio.to_thread(
                    _send_side_thread, fleet.port, wan_ports, payload,
                    subs, streams, STRIPE_BLOCK, STRIPE_WINDOW,
                    senders_done, send_out,
                ),
            )
            if not sink_out.get("ok"):
                raise AssertionError("stripe corruption through the fleet")
            best = max(
                best, clients * len(payload) / MB / send_out["elapsed"]
            )
        finally:
            await fleet.stop()
    return best


async def run_sweep(quick: bool) -> dict:
    worker_counts = (1, 2) if quick else (1, 2, 4)
    clients = 2
    repeats = 1 if quick else 2
    # Scale the payload with the fleet's link capacity so every point
    # transfers for roughly the same wall time.
    per_mb = 3 if quick else 12
    section: dict = {
        "mode": "handoff",
        "clients": clients,
        "streams_per_client": STRIPE_STREAMS,
        "stripe_window_blocks": STRIPE_WINDOW,
        "wan_delay_ms": WAN_DELAY_S * 1e3,
        "host_cap_mb_per_s": HOST_CAP_MB_S,
        "workers": {},
    }
    for workers in worker_counts:
        agg = await fleet_point(
            workers, per_mb * workers * MB, clients, repeats
        )
        section["workers"][f"w{workers}"] = {"agg_mb_per_s": round(agg, 1)}
        print(f"fleet workers={workers}  aggregate {agg:8.1f} MB/s "
              f"(host cap {HOST_CAP_MB_S:.0f} MB/s x {workers})")
    ws = section["workers"]
    if "w1" in ws and "w4" in ws:
        section["w4_vs_w1_speedup"] = round(
            ws["w4"]["agg_mb_per_s"] / ws["w1"]["agg_mb_per_s"], 2
        )
    elif "w1" in ws and "w2" in ws:
        section["w2_vs_w1_speedup"] = round(
            ws["w2"]["agg_mb_per_s"] / ws["w1"]["agg_mb_per_s"], 2
        )
    return section


async def run_overhead(quick: bool) -> dict:
    """Re-measure the observability-overhead bound with the PR-9 plane
    enabled: each point runs sampler-off then sampler-on (worker
    telemetry endpoints + 0.25 s time-series samplers) and records the
    throughput delta.  ``single_chain`` is one 1-stream transfer
    through a 1-worker fleet (the adaptive relay path, no striping to
    hide behind); ``fleet_w4`` is the full 4-worker striped point.  The
    acceptance bar stays <3% — the same bound the span recorder held
    in earlier PRs, now including the sampler.
    """
    repeats = 1 if quick else 2
    per_mb = 3 if quick else 8
    w4 = 2 if quick else 4
    section: dict = {"bound_pct": 3.0, "sample_interval_s": 0.25}
    worst = 0.0
    for label, workers, clients, streams in (
        ("single_chain", 1, 1, 1),
        (f"fleet_w{w4}", w4, 2, STRIPE_STREAMS),
    ):
        nbytes = per_mb * workers * MB
        off = await fleet_point(
            workers, nbytes, clients, repeats, streams=streams
        )
        on = await fleet_point(
            workers, nbytes, clients, repeats, streams=streams,
            telemetry=True,
        )
        pct = round((off - on) / off * 100.0, 2)
        section[label] = {
            "off_mb_per_s": round(off, 1),
            "on_mb_per_s": round(on, 1),
            "overhead_pct": pct,
        }
        worst = max(worst, pct)
        print(f"obs overhead {label}: {off:7.1f} -> {on:7.1f} MB/s "
              f"({pct:+.2f}%)")
    section["worst_pct"] = round(worst, 2)
    section["pass"] = worst < section["bound_pct"]
    return section


async def run_smoke_drain(trace_dir: str) -> int:
    """CI scenario: drain a worker under an in-flight striped
    transfer; the payload must arrive bit-exact and all traces must
    assemble flow-linked.

    Since PR 9 the smoke also exercises the fleet observability plane
    end to end: per-worker telemetry + samplers, the admin endpoint,
    a :class:`~repro.obs.aggregate.FleetAggregator` discovering the
    workers through it, and an SLO engine whose ``drain-recovery``
    rule must fire when the drain starts and resolve after the redial
    — with the alert spans landing in the assembled causal trace.  The
    aggregated time-series is written to ``timeseries.json`` in the
    trace dir (the CI artifact).  Returns a process exit code."""
    from repro.core.aio import AioProxyClient
    from repro.core.aio.fleetctl import FleetAdminServer
    from repro.obs import spans as _obs
    from repro.obs import trace as _trace
    from repro.obs.aggregate import FleetAggregator, http_get, http_get_json
    from repro.obs.assemble import assemble
    from repro.obs.export import dumps, write_artifacts
    from repro.obs.slo import SLOEngine

    payload = bytes(bytearray(range(256)) * (8 * MB // 256))
    Path(trace_dir).mkdir(parents=True, exist_ok=True)
    rec = _obs.ObsRecorder()
    _obs.install(rec)
    _trace.enable("client")
    failures: "list[str]" = []
    try:
        fleet = await FleetManager(FleetSpec(
            workers=2,
            heartbeat_s=0.1,
            drain_grace_s=0.4,
            onward_bind_hosts=ONWARD_HOSTS[:2],
            telemetry=True,
            sample_interval_s=0.2,
            trace_dir=trace_dir,
        )).start()
        admin = await FleetAdminServer(fleet).start()
        engine = SLOEngine()
        aggregator = FleetAggregator(
            "127.0.0.1", admin.bound_port, interval_s=0.1,
            on_refresh=lambda _view, now: engine.evaluate_sampler(
                aggregator.sampler, now
            ),
        )
        agg_endpoint = aggregator.make_endpoint(
            extra_routes={"/alerts": engine.alerts_route}
        )
        await agg_endpoint.start()
        aggregator.start()
        client = AioProxyClient(outer_addr=("127.0.0.1", fleet.port))
        buckets: "dict[str, _LinkBucket]" = {}
        sink_conns: asyncio.Queue = asyncio.Queue()

        async def on_conn(reader, writer):
            await sink_conns.put((reader, writer))

        sink_srv = await asyncio.start_server(
            on_conn, "127.0.0.1", 0, limit=STREAM_LIMIT
        )
        sink_port = sink_srv.sockets[0].getsockname()[1]
        # Slow smoke cap (per host; both workers' hosts together move
        # ~8 MB/s) so the 8 MB transfer outlives the drain window and
        # the drained worker's chains really are aborted mid-flight.
        wan = await WanEmulator(sink_port, buckets, cap_mb_per_s=4.0).start()

        async def dial():
            return await client.connect("127.0.0.1", wan.port)

        # StripeSink (not one-shot recv_striped): the drain aborts
        # chains at the exact moment the payload may already be
        # complete at the sink, and the aborted stream's redial then
        # needs the sink's completed-transfer memory to learn the
        # final watermark instead of waiting forever.
        sink = StripeSink(sink_conns.get)
        try:
            recv_task = asyncio.ensure_future(sink.recv())
            send_task = asyncio.ensure_future(send_striped(
                dial, payload, streams=4,
                block_bytes=64 * 1024, window_blocks=8,
            ))
            await asyncio.sleep(0.35)
            if send_task.done():
                failures.append("transfer finished before the drain fired")
            # Pre-drain fleet view: both workers discovered through the
            # admin port, scraped live, and labelled on the aggregated
            # Prometheus endpoint.
            view = await aggregator.refresh()
            live = sorted(view["workers"])
            if live != ["w0", "w1"]:
                failures.append(f"aggregator discovered {live}, wanted w0+w1")
            for wid in live:
                w = view["workers"][wid]
                if w.get("stale") or not w.get("scraped"):
                    failures.append(f"worker {wid} not scraped live pre-drain")
                if w.get("schema_version") != 2:
                    failures.append(
                        f"worker {wid} telemetry schema "
                        f"{w.get('schema_version')!r}, wanted 2"
                    )
            prom = (await http_get(
                "127.0.0.1", agg_endpoint.bound_port, "/metrics"
            )).decode()
            for wid in live:
                if f'repro_worker_up{{worker="{wid}"}} 1' not in prom:
                    failures.append(
                        f"aggregated /metrics missing live label for {wid}"
                    )
            snap = fleet.snapshot()
            victim = max(
                snap["workers"],
                key=lambda w: snap["workers"][w]["active_chains"],
            )
            print(f"draining {victim} mid-transfer "
                  f"({snap['workers'][victim]['active_chains']} chains)")
            await fleet.drain(victim, grace_s=0.4)
            report = await send_task
            data, _ = await recv_task
            if data != payload:
                failures.append(
                    f"payload mismatch after drain: {len(data)} bytes"
                )
            if report["reconnects"] < 1:
                failures.append("no stream redialed — drain was a no-op")
            snap = fleet.snapshot()
            if snap["drains_completed"] != 1:
                failures.append(f"drain never completed: {snap}")
            print(f"transfer survived: {report['reconnects']} redials, "
                  f"{report['requeued_blocks']} blocks requeued, "
                  f"0 bytes lost")
            # Let the aggregator observe the completed drain so the
            # drain-recovery alert resolves, then audit the SLO plane.
            await aggregator.refresh()
            episodes = [
                a for a in engine.history if a.rule.name == "drain-recovery"
            ]
            if not episodes:
                failures.append(
                    "drain-recovery alert never fired during the drain"
                )
            elif episodes[-1].state != "resolved":
                failures.append(
                    f"drain-recovery alert stuck {episodes[-1].state}"
                )
            elif episodes[-1].breached:
                failures.append(
                    f"drain-recovery breached its bound: "
                    f"{episodes[-1].duration_s:.2f}s"
                )
            alerts = await http_get_json(
                "127.0.0.1", agg_endpoint.bound_port, "/alerts"
            )
            if not any(
                e["rule"] == "drain-recovery" and e["state"] == "resolved"
                for e in alerts.get("history", [])
            ):
                failures.append(
                    "/alerts history missing the resolved drain-recovery "
                    "episode"
                )
            post = await http_get_json(
                "127.0.0.1", agg_endpoint.bound_port, "/metrics.json"
            )
            if post.get("aggregate", {}).get("derived", {}).get(
                "bytes_relayed_total", 0
            ) <= 0:
                failures.append(
                    "aggregated endpoint shows no bytes relayed post-drain"
                )
            print(
                f"observability: {aggregator.rounds} scrape rounds, "
                f"{len(engine.history)} alert episodes, "
                f"{len(aggregator.sampler.samples)} fleet samples"
            )
        finally:
            ts_path = Path(trace_dir) / "timeseries.json"
            ts_path.write_text(dumps(aggregator.sampler.export()) + "\n")
            print(f"fleet time-series: {ts_path}")
            await aggregator.stop()
            await agg_endpoint.stop()
            await admin.stop()
            await sink.close()
            await wan.stop()
            sink_srv.close()
            await fleet.stop()
    finally:
        _obs.uninstall()
        _trace.disable()

    write_artifacts(rec, str(Path(trace_dir) / "client"))
    traces = []
    for stem in ("client", "worker-w0", "worker-w1"):
        path = Path(trace_dir) / f"{stem}.trace.json"
        if not path.exists():
            failures.append(f"missing trace artifact {path}")
            continue
        traces.append((stem, json.loads(path.read_text())))
    # The SLO engine records on the client-side recorder, so the alert
    # spans must sit in the same causal trace as the drain they track.
    client_events = next(
        (t["traceEvents"] for stem, t in traces if stem == "client"), []
    )
    slo_names = {
        e.get("name") for e in client_events
        if e.get("cat") == "slo" and e.get("ph") in ("i", "I", "X")
    }
    for wanted in ("fired:drain-recovery", "alert:drain-recovery"):
        if wanted not in slo_names:
            failures.append(f"client trace has no {wanted!r} SLO event")
    if traces:
        info = assemble(traces)["otherData"]["assembled"]
        print(f"assembled {len(traces)} traces: {info['flows']} flows, "
              f"{info['unresolved_parents']} unresolved parents")
        if info["unresolved_parents"] != 0:
            failures.append(
                f"{info['unresolved_parents']} unresolved span parents"
            )
        if info["flows"] < 1:
            failures.append("no cross-process flow links in the traces")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("fleet drain smoke: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = bench_arg_parser(
        __doc__, "BENCH_relay.json",
        quick_help="small payloads, workers 1-2 only (CI smoke run)",
    )
    parser.add_argument(
        "--smoke-drain", action="store_true",
        help="run the drain-under-load integration scenario instead of "
        "the throughput sweep (exit 1 on any lost byte or broken trace)",
    )
    parser.add_argument(
        "--trace-dir", default=None,
        help="where --smoke-drain writes per-process trace artifacts "
        "(default: a temp dir)",
    )
    parser.add_argument(
        "--overhead", action="store_true",
        help="measure observability overhead (telemetry + time-series "
        "sampler on vs off) instead of the sweep; records "
        "meta.obs_overhead in BENCH_relay.json",
    )
    args = parser.parse_args(argv)

    if args.smoke_drain:
        trace_dir = args.trace_dir or tempfile.mkdtemp(prefix="fleet-smoke-")
        print(f"trace artifacts: {trace_dir}")
        return asyncio.run(run_smoke_drain(trace_dir))

    if args.overhead:
        overhead = asyncio.run(run_overhead(args.quick))
        if not overhead["pass"]:
            print(f"WARNING: observability overhead "
                  f"{overhead['worst_pct']:.2f}% exceeds the "
                  f"{overhead['bound_pct']:.0f}% bound", file=sys.stderr)
        target = Path(args.out) if args.out and args.out != "-" else (
            repo_root() / "BENCH_relay.json"
        )
        results = {}
        if args.out != "-" and target.exists():
            with contextlib.suppress(ValueError, OSError):
                results = json.loads(target.read_text())
        if not results:
            results = {"meta": bench_meta(quick=args.quick)}
        results.setdefault("meta", {})["obs_overhead"] = overhead
        emit_results(results, args.out, "BENCH_relay.json")
        return 0

    section = asyncio.run(run_sweep(args.quick))
    speedup = section.get("w4_vs_w1_speedup")
    if speedup is not None and speedup < 1.7 and not args.quick:
        print(f"WARNING: fleet w4 speedup {speedup:.2f}x is below the "
              "1.7x acceptance bar", file=sys.stderr)

    # Merge into the existing relay results so one file carries the
    # whole data-plane story (and one regress call gates it).
    target = Path(args.out) if args.out and args.out != "-" else (
        repo_root() / "BENCH_relay.json"
    )
    results: dict = {}
    if args.out != "-" and target.exists():
        with contextlib.suppress(ValueError, OSError):
            results = json.loads(target.read_text())
    if not results:
        results = {"meta": bench_meta(quick=args.quick)}
    results["fleet"] = section
    emit_results(results, args.out, "BENCH_relay.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
