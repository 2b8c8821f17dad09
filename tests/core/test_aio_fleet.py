"""Live relay fleet: front-door handoff, quotas, drain-by-redial.

Every test spawns real worker processes; startup is seconds, not
milliseconds, so the fleet count per test is kept minimal and the
heavyweight drain integration is marked ``slow``.
"""

import asyncio
import contextlib
import json
import socket
from multiprocessing import resource_tracker

import pytest

from repro.core.aio import AioProxyClient
from repro.core.aio import fleet as fleet_mod
from repro.core.aio.fleet import FleetManager, FleetSpec, _WorkerHandle
from repro.core.placement import WorkerView
from repro.core.aio.streams import StripeSink, recv_striped, send_striped

from tests.core.conftest import leak_check
from tests.core.test_placement import FLEET_SNAPSHOT_KEYS
from tests.obs.test_telemetry import _http_get

MB = 1024 * 1024


def run(coro, timeout=120):
    """Run one live test under the leak check: workers, sockets and
    tasks the fleet started must be gone when it returns."""
    # The first spawned worker starts multiprocessing's resource
    # tracker, whose pipe stays open for the life of the process.
    resource_tracker.ensure_running()

    async def checked():
        async with leak_check():
            return await coro

    return asyncio.run(asyncio.wait_for(checked(), timeout))


async def start_echo_server():
    async def echo(reader, writer):
        while True:
            data = await reader.read(4096)
            if not data:
                break
            writer.write(data)
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(echo, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def start_paced_pipe(sink_port: int, bytes_per_s: float):
    """A forwarding pipe in front of a sink that paces the sink-bound
    direction to ``bytes_per_s`` (one budget shared by every connection),
    so a transfer reliably outlasts what a test does mid-flight.  A clean
    EOF is passed on as a half-close, a reset as a close."""
    pace = asyncio.Lock()

    async def forward(reader, writer, paced):
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    break
                if paced:
                    async with pace:
                        await asyncio.sleep(len(data) / bytes_per_s)
                writer.write(data)
                await writer.drain()
            writer.write_eof()
        except (ConnectionError, OSError):
            writer.close()

    async def on_conn(reader, writer):
        try:
            sink_r, sink_w = await asyncio.open_connection(
                "127.0.0.1", sink_port
            )
        except OSError:
            writer.close()
            return
        await asyncio.gather(
            forward(reader, sink_w, True), forward(sink_r, writer, False)
        )
        sink_w.close()
        writer.close()

    server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def dial_chain(fleet_port: int, host: str, port: int):
    """One active-open relay chain through the fleet endpoint.

    Raises :class:`ConnectionError` on edge rejection or a refused
    handoff (connection closed before the reply) — the same signal a
    striping redial handles.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", fleet_port)
    try:
        writer.write(
            json.dumps({"op": "connect", "host": host, "port": port}).encode()
            + b"\n"
        )
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ConnectionError("fleet endpoint closed the connection")
        try:
            reply = json.loads(line)
        except ValueError:
            raise ConnectionError(f"garbled fleet reply: {line!r}") from None
        if not reply.get("ok"):
            raise ConnectionError(str(reply.get("error", "refused")))
        return reader, writer
    except BaseException:
        with contextlib.suppress(Exception):
            writer.close()
        raise


def test_handoff_fleet_relays_and_snapshot_parity():
    async def main():
        fleet = await FleetManager(
            FleetSpec(workers=2, heartbeat_s=0.1, telemetry=True)
        ).start()
        echo_srv, echo_port = await start_echo_server()
        try:
            conns = []
            for i in range(4):
                conns.append(
                    await dial_chain(fleet.port, "127.0.0.1", echo_port)
                )
            for i, (reader, writer) in enumerate(conns):
                msg = f"fleet echo {i}".encode()
                writer.write(msg)
                await writer.drain()
                assert await reader.readexactly(len(msg)) == msg
            snap = fleet.snapshot()
            assert set(snap) == FLEET_SNAPSHOT_KEYS
            assert snap["handoffs"] == 4
            assert snap["placed_chains"] == 4
            assert set(snap["workers"]) == {"w0", "w1"}
            for wsnap in snap["workers"].values():
                assert set(wsnap) == {
                    "state", "active_chains", "bytes_relayed", "byte_rate",
                    "heartbeats",
                }
                assert wsnap["state"] == "up"
            # Heartbeats are flowing.
            await asyncio.sleep(0.3)
            snap = fleet.snapshot()
            assert all(
                w["heartbeats"] >= 1 for w in snap["workers"].values()
            )
            assert sum(
                w["bytes_relayed"] for w in snap["workers"].values()
            ) > 0
            # Every worker serves its own Prometheus endpoint, found
            # through the port it reported at hello.
            for handle in fleet.handles.values():
                status, body = await _http_get(
                    handle.telemetry_port, "/metrics"
                )
                assert status == 200
                assert "repro_relay_bytes_relayed " in body
            for _reader, writer in conns:
                writer.close()
        finally:
            echo_srv.close()
            await fleet.stop()

    run(main())


def test_front_door_quota_rejects_then_recovers():
    async def main():
        fleet = await FleetManager(
            FleetSpec(workers=2, max_chains_per_client=1, heartbeat_s=0.1)
        ).start()
        echo_srv, echo_port = await start_echo_server()
        try:
            r1, w1 = await dial_chain(fleet.port, "127.0.0.1", echo_port)
            # Second concurrent chain from the same client address:
            # refused at the edge with a JSON error line, no handoff.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", fleet.port
            )
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False
            assert "quota" in reply["error"]
            assert await reader.read(1) == b""  # and the door closed it
            writer.close()
            snap = fleet.snapshot()
            assert snap["rejected_quota"] == 1
            assert snap["handoffs"] == 1
            # Ending the held chain releases the slot (the worker's
            # 'closed' notification travels back to the manager).
            w1.close()
            for _ in range(100):
                try:
                    r3, w3 = await dial_chain(
                        fleet.port, "127.0.0.1", echo_port
                    )
                    break
                except ConnectionError:
                    await asyncio.sleep(0.05)
            else:
                pytest.fail("quota slot never released after chain close")
            w3.close()
        finally:
            echo_srv.close()
            await fleet.stop()

    run(main())


@pytest.mark.slow
def test_drain_migrates_striped_transfer_with_zero_loss(tmp_path):
    """The acceptance scenario: drain a worker while a striped
    transfer is in flight; dead streams redial through the logical
    endpoint onto the survivor and resume from restart markers, so the
    sink reassembles the payload bit-exact — zero lost or duplicated
    bytes.  Worker + client traces assemble into one flow-linked
    Chrome trace with no unresolved parents."""
    from repro.obs import spans as _obs
    from repro.obs import trace as _trace
    from repro.obs.assemble import assemble
    from repro.obs.export import write_artifacts

    payload = bytes(bytearray(range(256)) * (8 * MB // 256))

    async def main():
        spec = FleetSpec(
            workers=2,
            heartbeat_s=0.1,
            drain_grace_s=0.4,
            trace_dir=str(tmp_path),
        )
        fleet = await FleetManager(spec).start()
        client = AioProxyClient(outer_addr=("127.0.0.1", fleet.port))

        sink_conns: "asyncio.Queue" = asyncio.Queue()

        async def on_conn(reader, writer):
            await sink_conns.put((reader, writer))

        sink_srv = await asyncio.start_server(on_conn, "127.0.0.1", 0)
        # Pace the sink so an 8 MB transfer takes ~1.2 s: the drain's
        # abort (0.35 s sleep + 0.4 s grace) demonstrably lands
        # mid-flight even on a fast run.
        pipe_srv, pipe_port = await start_paced_pipe(
            sink_srv.sockets[0].getsockname()[1], 7 * MB
        )

        async def accept():
            return await sink_conns.get()

        async def dial():
            return await client.connect("127.0.0.1", pipe_port)

        # StripeSink, not one-shot recv_striped: a stream the drain
        # aborts just as the last block lands redials after the
        # payload is complete, and needs the sink's completed-transfer
        # memory to learn the final watermark.
        sink = StripeSink(accept)
        try:
            recv_task = asyncio.ensure_future(sink.recv())
            send_task = asyncio.ensure_future(
                send_striped(
                    dial, payload, streams=4,
                    block_bytes=64 * 1024, window_blocks=8,
                )
            )
            # Let the transfer get going and the heartbeats report who
            # carries chains, then retire the busier worker.
            await asyncio.sleep(0.35)
            assert not send_task.done(), "transfer finished before drain"
            snap = fleet.snapshot()
            victim = max(
                snap["workers"],
                key=lambda w: snap["workers"][w]["active_chains"],
            )
            assert snap["workers"][victim]["active_chains"] > 0
            await fleet.drain(victim, grace_s=0.4)
            report = await send_task
            data, _sink_report = await recv_task
            assert data == payload  # bit-exact: nothing lost, nothing doubled
            assert report["reconnects"] >= 1  # the victim's streams redialed
            snap = fleet.snapshot()
            assert snap["workers"][victim]["state"] == "gone"
            assert snap["drains_started"] == 1
            assert snap["drains_completed"] == 1
            # Redials were placed through the front door again.
            assert snap["placed_chains"] >= 4 + report["reconnects"]
        finally:
            await sink.close()
            pipe_srv.close()
            sink_srv.close()
            await fleet.stop()
        return fleet

    # Client-side tracing so worker spans have cross-process parents.
    rec = _obs.ObsRecorder()
    _obs.install(rec)
    _trace.enable("client")
    try:
        fleet = run(main())
    finally:
        _obs.uninstall()
        _trace.disable()
    client_base = tmp_path / "client"
    write_artifacts(rec, str(client_base))

    traces = []
    for stem in ("client", "worker-w0", "worker-w1"):
        path = tmp_path / f"{stem}.trace.json"
        assert path.exists(), f"missing trace artifact {path}"
        traces.append((stem, json.loads(path.read_text())))
    merged = assemble(traces)
    info = merged["otherData"]["assembled"]
    assert info["unresolved_parents"] == 0
    assert info["flows"] > 0  # the chains really linked across processes


def test_striped_transfer_with_more_streams_than_workers():
    """k=4 stripes over a 1-worker fleet: every stream lands on the
    same worker and the transfer still completes intact (stream count
    is a client choice, not a fleet property)."""
    payload = bytes(bytearray(range(256)) * (2 * MB // 256))

    async def main():
        fleet = await FleetManager(
            FleetSpec(workers=1, heartbeat_s=0.1)
        ).start()
        sink_conns: "asyncio.Queue" = asyncio.Queue()

        async def on_conn(reader, writer):
            await sink_conns.put((reader, writer))

        sink_srv = await asyncio.start_server(on_conn, "127.0.0.1", 0)
        # Pace the sink so the 2 MB transfer (~0.25 s) outlasts the
        # three later streams' dial+handoff: unpaced, the first stream
        # can push the whole payload on fast runs and streams_seen
        # lands below 4.
        pipe_srv, pipe_port = await start_paced_pipe(
            sink_srv.sockets[0].getsockname()[1], 8 * MB
        )

        async def accept():
            return await sink_conns.get()

        async def dial():
            return await dial_chain(fleet.port, "127.0.0.1", pipe_port)

        try:
            recv_task = asyncio.ensure_future(recv_striped(accept))
            report = await send_striped(
                dial, payload, streams=4, block_bytes=128 * 1024
            )
            data, sink_report = await recv_task
            assert data == payload
            assert report["reconnects"] == 0
            assert sink_report["streams_seen"] == 4
            assert fleet.snapshot()["handoffs"] == 4
        finally:
            pipe_srv.close()
            sink_srv.close()
            await fleet.stop()

    run(main())


def test_ctl_send_gives_up_on_a_worker_that_stopped_reading(monkeypatch):
    """A worker whose control socket stopped draining: the send raises
    at its deadline instead of retrying forever, and a handoff to that
    worker marks it gone, terminates it and rejects the client."""
    monkeypatch.setattr(fleet_mod, "CTL_SEND_TIMEOUT_S", 0.2)

    class Proc:
        terminated = False

        def is_alive(self):
            return not self.terminated

        def terminate(self):
            self.terminated = True

    async def main():
        loop = asyncio.get_running_loop()
        ours, worker_end = socket.socketpair()
        client, conn = socket.socketpair()
        ours.setblocking(False)
        conn.setblocking(False)
        with contextlib.suppress(BlockingIOError):
            while True:  # the worker never reads: fill the send buffer
                ours.send(b"x" * 65536)
        manager = FleetManager(FleetSpec(workers=1))
        handle = _WorkerHandle("w0", 0, Proc(), WorkerView("w0"), ctl_sock=ours)
        manager.handles["w0"] = handle
        manager.placer.add_worker(handle.view)
        try:
            t0 = loop.time()
            with pytest.raises(OSError, match="stopped reading"):
                await asyncio.wait_for(manager._ctl_send(handle, {"op": "stop"}), 5)
            assert loop.time() - t0 < 2
            await asyncio.wait_for(manager._admit(conn, ("127.0.0.1", 1)), 5)
            assert handle.view.state == "gone" and handle.proc.terminated
            assert client.recv(4096) == (
                b'{"ok":false,"error":"relay worker unavailable"}\n')
        finally:
            for sock in (ours, worker_end, client, conn):
                sock.close()

    run(main(), timeout=30)
