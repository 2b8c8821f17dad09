"""Live relay microbenchmark: loopback throughput, RTT, 16-chain
passive aggregate and the parallel-stream sweep.

Seeds the repo's perf trajectory (``BENCH_relay.json``): every later
data-plane change gets judged against these numbers.  (The seed data
plane's last recorded figures — fixed 4 KB pump, connection-per-chain
nxport — are frozen under ``meta.frozen_seed_baseline`` there.)

* **single-chain active throughput** — one relayed stream pushing
  bulk bytes through the outer server (Fig. 3 path).  Traffic is
  generated and sunk by *blocking-socket OS threads*
  (``sendall``/``recv`` release the GIL), so the event loop's only
  work is the relay itself — asyncio endpoints would share the loop
  with the relay and mask the quantity under test.
* **round-trip latency** — 64-byte echo ping-pong through the relay;
  dominated by per-chunk scheduling and Nagle behaviour, so it checks
  that bandwidth was not bought with latency.
* **16-chain passive aggregate** — sixteen concurrent passive chains
  (Fig. 4 path) over the frame-multiplexed single-pinhole link; also
  asserts its defining invariant (``nxport_connections == 1``).

Run standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_relay_live.py --quick

or in full to (re)generate ``BENCH_relay.json``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import statistics
import sys
import time

from repro.bench.results import bench_arg_parser, bench_meta, emit_results
from repro.core.aio import AioInnerServer, AioOuterServer, AioProxyClient
from repro.core.aio.pump import STREAM_LIMIT, tune_stream
from repro.core.aio.streams import recv_striped, send_striped

MB = 1024 * 1024


async def _start():
    outer = await AioOuterServer().start()
    inner = await AioInnerServer().start()
    client = AioProxyClient(
        outer_addr=("127.0.0.1", outer.control_port),
        inner_addr=("127.0.0.1", inner.nxport),
    )
    return outer, inner, client


def _sink_thread(lsock: socket.socket, out: dict) -> None:
    """Blocking sink: count inbound bytes, reply with the count on EOF."""
    conn, _ = lsock.accept()
    total = 0
    while True:
        data = conn.recv(1 << 20)
        if not data:
            break
        total += len(data)
    conn.sendall(b"%d\n" % total)
    conn.close()
    out["total"] = total


def _client_thread(
    control_port: int, sink_port: int, nbytes: int, out: dict
) -> None:
    """Blocking client: JSON ``connect`` handshake, then bulk sendall.

    Times from first payload byte to the sink's byte-count ack, i.e.
    full delivery through the relay, not just the local send buffer.
    """
    s = socket.create_connection(("127.0.0.1", control_port))
    req = {"op": "connect", "host": "127.0.0.1", "port": sink_port}
    s.sendall(json.dumps(req).encode() + b"\n")
    reply = b""
    while not reply.endswith(b"\n"):
        reply += s.recv(4096)
    assert json.loads(reply).get("ok"), reply
    payload = b"\xa5" * MB
    t0 = time.perf_counter()
    for _ in range(nbytes // MB):
        s.sendall(payload)
    s.shutdown(socket.SHUT_WR)
    ack = b""
    while not ack.endswith(b"\n"):
        data = s.recv(4096)
        if not data:
            break
        ack += data
    out["elapsed"] = time.perf_counter() - t0
    out["acked"] = int(ack)
    s.close()


async def single_chain_throughput(nbytes: int, repeats: int = 3) -> float:
    """One-way MB/s through an active (Fig. 3) relayed connection.

    Endpoints run in OS threads on blocking sockets so the asyncio
    loop carries only the relay's own pump — the quantity under test.
    Best-of-``repeats``: loopback microbenchmarks are dominated by
    scheduler noise in their worst iterations, so the max is the
    stable estimator of what the data plane can do.
    """
    outer = await AioOuterServer().start()
    best = 0.0
    try:
        for _ in range(repeats):
            lsock = socket.socket()
            lsock.bind(("127.0.0.1", 0))
            lsock.listen(1)
            sink_port = lsock.getsockname()[1]
            sink_out: dict = {}
            cli_out: dict = {}
            await asyncio.gather(
                asyncio.to_thread(_sink_thread, lsock, sink_out),
                asyncio.to_thread(
                    _client_thread, outer.control_port, sink_port, nbytes, cli_out
                ),
            )
            lsock.close()
            assert cli_out["acked"] == nbytes, (cli_out, nbytes)
            best = max(best, nbytes / MB / cli_out["elapsed"])
        return best
    finally:
        await outer.stop()


async def relay_rtt(iters: int) -> dict:
    """64-byte echo round-trips through the relay, microseconds."""
    outer, inner, client = await _start()

    async def echo(reader, writer):
        while True:
            data = await reader.read(4096)
            if not data:
                break
            writer.write(data)
            await writer.drain()
        writer.close()

    echo_srv = await asyncio.start_server(echo, "127.0.0.1", 0)
    echo_port = echo_srv.sockets[0].getsockname()[1]
    try:
        reader, writer = await client.connect("127.0.0.1", echo_port)
        probe = b"\x5a" * 64
        samples = []
        for _ in range(iters):
            t0 = time.perf_counter()
            writer.write(probe)
            await writer.drain()
            await reader.readexactly(64)
            samples.append((time.perf_counter() - t0) * 1e6)
        writer.close()
        samples.sort()
        return {
            "mean_us": round(statistics.fmean(samples), 1),
            "p50_us": round(samples[len(samples) // 2], 1),
            "p95_us": round(samples[int(len(samples) * 0.95)], 1),
        }
    finally:
        echo_srv.close()
        await outer.stop()
        await inner.stop()


async def passive_concurrent_throughput(
    chains: int, nbytes_per_chain: int
) -> dict:
    """Aggregate MB/s over N concurrent passive (Fig. 4) chains."""
    outer, inner, client = await _start()
    try:
        listener = await client.bind()
        host, port = listener.proxy_addr
        received = {"total": 0}
        done = asyncio.Event()

        async def drain_accepted():
            async def drain_one(r, w):
                while True:
                    data = await r.read(1 << 20)
                    if not data:
                        break
                    received["total"] += len(data)
                w.close()
                if received["total"] >= chains * nbytes_per_chain:
                    done.set()

            while True:
                r, w = await listener.accept()
                asyncio.ensure_future(drain_one(r, w))

        accept_task = asyncio.ensure_future(drain_accepted())

        async def one_peer():
            r, w = await asyncio.open_connection(host, port)
            payload = b"\x3c" * min(MB, nbytes_per_chain)
            sent = 0
            while sent < nbytes_per_chain:
                w.write(payload)
                await w.drain()
                sent += len(payload)
            w.write_eof()
            await r.read(1)  # wait for relay close propagation
            w.close()

        t0 = time.perf_counter()
        await asyncio.gather(*[one_peer() for _ in range(chains)])
        await asyncio.wait_for(done.wait(), 60)
        elapsed = time.perf_counter() - t0
        accept_task.cancel()
        await listener.close()
        return {
            "mb_per_s": round(chains * nbytes_per_chain / MB / elapsed, 1),
            "nxport_connections": inner.stats.nxport_connections,
        }
    finally:
        await outer.stop()
        await inner.stop()


#: One-way latency of the emulated WAN hop in the stripe sweep — the
#: paper's RWCP↔outside link (3.5 ms, same figure the sim topology
#: uses).  Striping is a wide-area technique: on raw loopback there is
#: no window×RTT bound for parallel streams to beat, so the sweep
#: inserts the latency the technique exists for.
WAN_DELAY_S = 3.5e-3


async def _wan_pipe(reader, writer, delay: float) -> None:
    """Forward one direction, delaying each chunk by ``delay`` seconds
    (latency emulation, not rate limiting: chunks pipeline)."""
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
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        try:
            writer.close()
        except Exception:
            pass

    flusher = asyncio.ensure_future(flush())
    try:
        while True:
            data = await reader.read(1 << 16)
            if not data:
                break
            queue.put_nowait((loop.time() + delay, data))
    except (ConnectionError, OSError):
        pass
    queue.put_nowait(None)
    await flusher


def _stripe_sink_thread(
    lsock: socket.socket, wan_sock: socket.socket, out: dict
) -> None:
    """Own event loop: accept k relayed streams through an emulated
    WAN hop, reassemble the stripe."""

    async def main() -> None:
        queue: asyncio.Queue = asyncio.Queue()

        async def on_conn(reader, writer):
            await queue.put((reader, writer))

        server = await asyncio.start_server(
            on_conn, sock=lsock, limit=STREAM_LIMIT
        )
        sink_port = lsock.getsockname()[1]
        wan_tasks: set = set()

        async def wan_conn(reader, writer):
            wan_tasks.add(asyncio.current_task())
            try:
                onward_r, onward_w = await asyncio.open_connection(
                    "127.0.0.1", sink_port, limit=STREAM_LIMIT
                )
                tune_stream(writer)
                tune_stream(onward_w)
                await asyncio.gather(
                    _wan_pipe(reader, onward_w, WAN_DELAY_S),
                    _wan_pipe(onward_r, writer, WAN_DELAY_S),
                )
            finally:
                wan_tasks.discard(asyncio.current_task())

        wan_server = await asyncio.start_server(
            wan_conn, sock=wan_sock, limit=STREAM_LIMIT
        )
        data, report = await recv_striped(queue.get)
        out["sha256"] = hashlib.sha256(data).hexdigest()
        out["report"] = report
        # Keep the emulator alive until its delay queues flush (the
        # final restart marker must reach the sender) and the sender's
        # closes propagate back through — otherwise the loop teardown
        # would cancel the mark mid-delay and strand the send thread.
        while wan_tasks:
            await asyncio.gather(*list(wan_tasks), return_exceptions=True)
        for srv in (server, wan_server):
            srv.close()
            await srv.wait_closed()

    asyncio.run(main())


def _stripe_send_thread(
    control_port: int, sink_port: int, payload: bytes,
    k: int, block: int, window: int, out: dict,
) -> None:
    """Own event loop: dial k relay chains, send one striped transfer."""

    async def dial():
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", control_port, limit=STREAM_LIMIT
        )
        tune_stream(writer)
        req = {"op": "connect", "host": "127.0.0.1", "port": sink_port}
        writer.write(json.dumps(req).encode() + b"\n")
        await writer.drain()
        reply = json.loads(await reader.readline())
        assert reply.get("ok"), reply
        return reader, writer

    async def main() -> None:
        t0 = time.perf_counter()
        out["report"] = await send_striped(
            dial, payload, streams=k, block_bytes=block, window_blocks=window
        )
        out["elapsed"] = time.perf_counter() - t0

    asyncio.run(main())


async def parallel_stream_sweep(
    nbytes: int, ks=(1, 2, 4, 8), repeats: int = 2,
    block: int = 128 * 1024, window: int = 4,
) -> dict:
    """GridFTP-style striping: MB/s of one ``nbytes`` transfer split
    over k relay chains crossing an emulated 3.5 ms WAN hop.

    One stream carries at most ``window × block`` bytes above the
    sink's restart marker, so a single stream is bounded by
    window/RTT — the wide-area regime striping exists for (each
    stream's window ratchets independently; the aggregate scales with
    k until the single relay core saturates).  Endpoints and the WAN
    emulator run in their own threads/event loops so the benched loop
    carries only the relay; every transfer is hash-verified end to
    end.
    """
    payload = bytes(bytearray(range(256)) * (nbytes // 256))
    want = hashlib.sha256(payload).hexdigest()
    sweep: dict = {}
    for k in ks:
        outer = await AioOuterServer().start()
        try:
            best = 0.0
            for _ in range(repeats):
                lsock = socket.socket()
                lsock.bind(("127.0.0.1", 0))
                lsock.listen(16)
                wan_sock = socket.socket()
                wan_sock.bind(("127.0.0.1", 0))
                wan_sock.listen(16)
                wan_port = wan_sock.getsockname()[1]
                sink_out: dict = {}
                send_out: dict = {}
                await asyncio.gather(
                    asyncio.to_thread(
                        _stripe_sink_thread, lsock, wan_sock, sink_out
                    ),
                    asyncio.to_thread(
                        _stripe_send_thread, outer.control_port, wan_port,
                        payload, k, block, window, send_out,
                    ),
                )
                assert sink_out["sha256"] == want, "stripe corruption"
                assert send_out["report"]["reconnects"] == 0
                best = max(best, nbytes / MB / send_out["elapsed"])
            sweep[f"k{k}"] = {"mb_per_s": round(best, 1)}
            print(f"parallel streams    : k={k}  {best:8.1f} MB/s")
        finally:
            await outer.stop()
    if "k1" in sweep and "k4" in sweep:
        sweep["k4_vs_k1_speedup"] = round(
            sweep["k4"]["mb_per_s"] / sweep["k1"]["mb_per_s"], 2
        )
    sweep["block_bytes"] = block
    sweep["window_blocks"] = window
    sweep["wan_delay_ms"] = WAN_DELAY_S * 1e3
    return sweep


async def run_suite(quick: bool, streams: "int | None" = None) -> dict:
    bulk = 4 * MB if quick else 16 * MB
    rtt_iters = 100 if quick else 400
    chains = 16
    per_chain = MB // 2 if quick else 2 * MB

    results: dict = {
        "meta": bench_meta(
            quick=quick,
            bulk_bytes=bulk,
            chains=chains,
            per_chain_bytes=per_chain,
        )
    }

    repeats = 2 if quick else 3
    bulk_bw = await single_chain_throughput(bulk, repeats)
    results["single_chain_active"] = {"adaptive_mb_per_s": round(bulk_bw, 1)}
    print(f"single-chain active : {bulk_bw:8.1f} MB/s")

    rtt = await relay_rtt(rtt_iters)
    results["rtt_64b"] = {"adaptive": rtt}
    print(f"relay RTT (64 B)    : p50 {rtt['p50_us']:7.1f} us")

    # Best-of like the other throughput sections: a single 16-chain
    # shot has enough scheduler noise on a 1-core box to swing >10%.
    muxed = None
    for _ in range(repeats):
        mux = await passive_concurrent_throughput(chains, per_chain)
        if muxed is None or mux["mb_per_s"] > muxed["mb_per_s"]:
            muxed = mux
    assert muxed["nxport_connections"] == 1, muxed
    results["passive_16chain"] = {"mux_single_conn": muxed}
    print(f"16-chain passive    : {muxed['mb_per_s']:8.1f} MB/s "
          f"({muxed['nxport_connections']} nxport conn)")

    stripe_bytes = 4 * MB if quick else 16 * MB
    ks = (streams,) if streams else (1, 2, 4, 8)
    results["parallel_streams"] = await parallel_stream_sweep(
        stripe_bytes, ks=ks, repeats=2 if quick else 3
    )
    return results


def main(argv=None) -> int:
    parser = bench_arg_parser(
        __doc__, "BENCH_relay.json", quick_help="small transfers (CI smoke run)"
    )
    parser.add_argument("--streams", type=int, default=None,
                        help="run the parallel-stream sweep at this single "
                        "k only (CI smoke; default: sweep k=1,2,4,8)")
    args = parser.parse_args(argv)
    results = asyncio.run(run_suite(args.quick, args.streams))

    stripe = results["parallel_streams"].get("k4_vs_k1_speedup")
    if stripe is not None and stripe < 1.8 and not args.quick:
        print(f"WARNING: k=4 striping speedup {stripe:.2f}x is below the "
              "1.8x acceptance bar", file=sys.stderr)

    emit_results(results, args.out, "BENCH_relay.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
