"""The experiments the scorecard reads besides Tables 2 and 4–6.

Each function builds fresh testbeds, runs one experiment to completion
on the simulator and returns plain data; :mod:`repro.bench.score`
calls each at most once per invocation and checks the paper's claims
(and DESIGN §5's ablations) against the result.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.apps.knapsack import SchedulingParams, run_system, scaled_instance
from repro.apps.knapsack.driver import RunResult
from repro.apps.knapsack.instance import KnapsackInstance
from repro.bench.tuning import SweepPoint, run_tuning_sweep
from repro.bench.utilization import UtilizationReport, collect_utilization
from repro.cluster import SYSTEMS, Testbed, build_world
from repro.core import FramedConnection, NexusProxyClient, RelayConfig
from repro.mpi import barrier
from repro.nexus import NexusContext
from repro.simnet.kernel import Event
from repro.util.units import MIB_MESSAGE

__all__ = [
    "CHUNKS",
    "PORT_MAX",
    "PORT_MIN",
    "barrier_per_system",
    "chain_timings",
    "portrange_vs_proxy",
    "pruning_modes",
    "relay_chunk_sweep",
    "tuning_grid_sweep",
    "wide_area_utilization",
]


def barrier_per_system() -> dict[str, tuple[int, float]]:
    """Table 3: each system as an MPI world on a fresh testbed.

    Returns name → (world size, simulated time of start-up plus one
    barrier), which exercises the whole stack under each system's
    device (ch_p4 / vendor MPI / MPICH-G + proxy).
    """
    out = {}
    for name in SYSTEMS:
        tb = Testbed()
        world = build_world(tb, name)

        def rank_main(comm):
            yield from barrier(comm)
            return comm.wtime()

        def driver():
            return (yield from world.launch(rank_main))

        times = tb.sim.run(until=tb.sim.process(driver()))
        out[name] = (world.size, max(times))
    return out


def _echo_once(framed: FramedConnection) -> Iterator[Event]:
    payload, n = yield from framed.recv()
    yield framed.send(payload, nbytes=n)


def chain_timings() -> dict[str, tuple[float, float]]:
    """Figs. 3/4: connect time and one-way 64-byte latency per chain.

    ``active`` is Fig. 3 (RWCP-Sun dials ETL-Sun through the outer
    relay); ``passive`` is Fig. 4 (ETL-Sun dials RWCP-Sun's published
    port, through the outer and the inner relay).
    """
    out = {}

    tb = Testbed()
    lsock = tb.etl_sun.listen(9000)

    def echo_server():
        conn = yield lsock.accept()
        yield from _echo_once(FramedConnection(conn, tb.relay_config.chunk_bytes))

    def active():
        client = NexusProxyClient(tb.rwcp_sun, **tb.proxy_addrs)
        t0 = tb.sim.now
        framed = yield from client.connect(("etl-sun", 9000))
        t_conn = tb.sim.now - t0
        t0 = tb.sim.now
        yield framed.send(b"x", nbytes=64)
        yield from framed.recv()
        return t_conn, (tb.sim.now - t0) / 2

    tb.sim.process(echo_server())
    out["active"] = tb.sim.run(until=tb.sim.process(active()))

    tb = Testbed()

    def passive():
        inside = NexusProxyClient(tb.rwcp_sun, **tb.proxy_addrs)
        listener = yield from inside.bind()
        timed = {}

        def peer():
            t0 = tb.sim.now
            conn = yield from tb.etl_sun.connect(listener.proxy_addr)
            framed = FramedConnection(conn, tb.relay_config.chunk_bytes)
            timed["conn"] = tb.sim.now - t0
            t0 = tb.sim.now
            yield framed.send(b"x", nbytes=64)
            yield from framed.recv()
            timed["rtt"] = tb.sim.now - t0

        tb.sim.process(peer())
        yield from _echo_once((yield from listener.accept()))
        yield tb.sim.timeout(1.0)  # let the peer finish timing
        return timed["conn"], timed["rtt"] / 2

    out["passive"] = tb.sim.run(until=tb.sim.process(passive()))
    return out


#: The Globus 1.1 port range of the comparison: one port per endpoint.
PORT_MIN, PORT_MAX = 40_000, 40_063


def _reply_latency(mode: str) -> tuple[float, int]:
    tb = Testbed()
    out = {}
    if mode == "proxy":
        server_ctx = NexusContext(tb.rwcp_sun, **tb.proxy_addrs)
    else:
        server_ctx = NexusContext(tb.rwcp_sun, port_min=PORT_MIN, port_max=PORT_MAX)
        server_ctx.tcp.open_firewall_range()
    client_ctx = NexusContext(tb.etl_sun)

    def server():
        ep = yield from server_ctx.create_endpoint("svc")
        out["addr"] = ep.addr
        d = yield ep.receive()
        # Echo back to the address carried in the payload.
        sp = server_ctx.startpoint(d.payload)
        yield from sp.send(b"pong", nbytes=64)

    def client():
        while "addr" not in out:
            yield tb.sim.timeout(1e-3)
        ep = yield from client_ctx.create_endpoint("reply")
        sp = client_ctx.startpoint(out["addr"])
        # The first send opens the connection; only the reply is timed.
        yield from sp.send(ep.addr, nbytes=64)
        t0 = tb.sim.now
        yield ep.receive()
        out["one_way"] = (tb.sim.now - t0) / 2

    tb.sim.process(server())
    tb.sim.run(until=tb.sim.process(client()))
    return out["one_way"], tb.rwcp_firewall.exposure()


def portrange_vs_proxy() -> dict[str, tuple[float, int]]:
    """§1's trade: mode → (reply latency, inbound exposure in ports)
    for the Nexus Proxy and the Globus 1.1 TCP_MIN/MAX_PORT range."""
    return {mode: _reply_latency(mode) for mode in ("proxy", "port-range")}


#: Relay read sizes of the chunk-size ablation.
CHUNKS = (512, 1024, 4096, 16384)


def _proxied_lan_1mb(chunk_bytes: int) -> float:
    relay = RelayConfig().with_overrides(chunk_bytes=chunk_bytes)
    tb = Testbed(relay_config=relay)
    out = {}

    def orchestrate():
        inside = NexusProxyClient(tb.rwcp_sun, **tb.proxy_addrs, config=relay)
        listener = yield from inside.bind()

        def peer():
            # LAN peer: compas-0 dials the public port.
            conn = yield from tb.compas[0].connect(listener.proxy_addr)
            framed = FramedConnection(conn, relay.chunk_bytes)
            yield framed.send(b"", nbytes=MIB_MESSAGE)

        tb.sim.process(peer())
        framed = yield from listener.accept()
        t0 = tb.sim.now
        _, n = yield from framed.recv()
        out["bw"] = n / (tb.sim.now - t0)

    tb.sim.run(until=tb.sim.process(orchestrate()))
    return out["bw"]


def relay_chunk_sweep() -> dict[int, float]:
    """DESIGN §5 ablation 1: relay chunk size → proxied LAN 1 MB
    one-way bandwidth."""
    return {chunk: _proxied_lan_1mb(chunk) for chunk in CHUNKS}


_PRUNING_MODES = {
    "no-prune": SchedulingParams(node_cost=20e-6),
    "local": SchedulingParams(node_cost=20e-6, prune=True),
    "shared": SchedulingParams(node_cost=20e-6, prune=True, share_bounds=True),
}


def pruning_modes() -> tuple[KnapsackInstance, dict[str, RunResult]]:
    """DESIGN §5 ablation 5: the wide-area run without pruning (the
    paper's configuration), with rank-local incumbents, and with
    incumbents shared over the steal protocol.

    Returns the instance and mode → run.
    """
    # Sized so the no-prune run stays in host-seconds; capacity-limited
    # trees still leave the fractional bound plenty to cut.
    instance = scaled_instance(n=36, target_nodes=1_000_000, seed=21)
    return instance, {
        name: run_system(Testbed(), "Wide-area Cluster", instance, params)
        for name, params in _PRUNING_MODES.items()
    }


def tuning_grid_sweep(jobs: int = 1) -> list[SweepPoint]:
    """DESIGN §5 ablation 3: a reduced §4.4 grid plus the no-send-back
    point (where the endgame serializes) on the wide-area cluster, best
    first."""
    base = SchedulingParams()
    grid = [
        dataclasses.replace(base, interval=interval, stealunit=stealunit,
                            backunit=backunit)
        for interval in (10, 100)
        for stealunit in (2, 32)
        for backunit in (2, 8)
    ] + [dataclasses.replace(base, back_threshold=0)]
    instance = scaled_instance(n=40, target_nodes=2_000_000, seed=3)
    return run_tuning_sweep(instance, grid=grid, jobs=jobs)


def wide_area_utilization() -> UtilizationReport:
    """DESIGN §5 ablation 6: the proxied wide-area run, then an audit
    of the testbed's hosts and links."""
    tb = Testbed()
    instance = scaled_instance(n=40, target_nodes=2_000_000, seed=3)
    run_system(tb, "Wide-area Cluster", instance,
               SchedulingParams(node_cost=100e-6), use_proxy=True)
    return collect_utilization(tb)

