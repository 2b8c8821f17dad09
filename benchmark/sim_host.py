"""The sim plane's program side, run as a child of the benchmark.

``--workload table4`` runs whole Table 4 passes (sequential baseline
plus the five systems) through ``repro.bench.sweep.run_table4_task``,
one op per row; ``--workload sim_relay_echo`` keeps one proxied
connection ETL-Sun → outer → inner → RWCP-Sun open on a ``Testbed()``
and echoes fixed rounds of 16 B / 4 KiB / 1 MiB messages over it, one
op per round trip.  Everything up to the first measurable op is done
before the ready line, so the parent's ``setup_s`` covers it.

Commands on stdin: ``run <seconds> <traced>`` repeats whole units
(tables / rounds) until ``seconds`` have passed and prints one JSON
line — host µs per op, the outputs the parent checks against
``golden/``, and with ``traced`` the spans; ``exit`` or end of input
ends the process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

MIB = 1 << 20
# [name, trace_id, parent, start, end] with 1-based span ids, the
# harness Tracer's layout; kept as plain lists so they cross the pipe.
Spans = list


def span(spans: Spans, name: str, trace_id, parent, start: float, end: float) -> int:
    spans.append([name, trace_id, parent, start, end])
    return len(spans)


# ---------------------------------------------------------------------------
# table4
# ---------------------------------------------------------------------------

#: The sequential baseline and the Table 3 systems, in the paper's row
#: order: (row label, system name, use_proxy).  Part of the workload's
#: definition, like the instance seed.
TABLE4_ROWS = [
    ("sequential", None, None),
    ("COMPaS", "COMPaS", None),
    ("ETL-O2K", "ETL-O2K", None),
    ("Local-area Cluster", "Local-area Cluster", None),
    ("Wide-area Cluster (use Nexus Proxy)", "Wide-area Cluster", True),
    ("Wide-area Cluster (Not use Nexus Proxy)", "Wide-area Cluster", False),
]


class Table4:
    def __init__(self, quick: bool, seed: int) -> None:
        from repro.bench.table4 import Table4Config
        from repro.cluster.testbed import Testbed

        # --seed is not used: the instance seed is the workload's own.
        self.config = (
            Table4Config(n_items=30, target_nodes=120_000) if quick else Table4Config()
        )
        t0 = time.perf_counter()
        self.config.instance()
        Testbed()
        self.ready = {"build_ms": (time.perf_counter() - t0) * 1e3}
        self.tables = 0

    def one_table(self, spans, op_us: "list[float]") -> "tuple[dict, dict]":
        from repro.bench.sweep import Table4Task, run_table4_task
        from repro.bench.table4 import Table4Results, render_table4
        from repro.bench.table56 import render_table5, render_table6

        self.tables += 1
        t_table = time.perf_counter()
        root = None if spans is None else span(spans, "table4.table", self.tables, None, t_table, None)
        outcomes, row_wall = {}, {}
        for label, system, use_proxy in TABLE4_ROWS:
            t0 = time.perf_counter()
            _, outcomes[label] = run_table4_task(Table4Task(self.config, label, system, use_proxy))
            t1 = time.perf_counter()
            row_wall[label] = t1 - t0
            op_us.append((t1 - t0) * 1e6)
            if spans is not None:
                span(spans, "bench.sweep.run_table4_task:" + label, self.tables, root, t0, t1)
        if spans is not None:
            spans[root - 1][4] = time.perf_counter()
        sequential = outcomes.pop("sequential")
        results = Table4Results(self.config, sequential, outcomes)
        counts = {
            label: {"events": run.events, "nodes": run.total_nodes,
                    "steals": run.total_steals, "best_value": run.best_value}
            for label, run in outcomes.items()
        }
        output = {"table4": render_table4(results), "table5": render_table5(results),
                  "table6": render_table6(results), "counts": counts}
        return output, row_wall

    def run(self, seconds: float, traced: bool) -> dict:
        spans = [] if traced else None
        op_us: "list[float]" = []
        outputs, row_walls = [], []
        start = time.perf_counter()
        while True:
            output, row_wall = self.one_table(spans, op_us)
            if output not in outputs:
                outputs.append(output)
            row_walls.append(row_wall)
            if time.perf_counter() - start >= seconds:
                break
        wall = time.perf_counter() - start
        return {"op_us": op_us, "attempted": len(op_us), "wall_s": wall,
                "units": len(row_walls), "outputs": outputs,
                "row_wall_s": row_walls, "spans": spans or []}


# ---------------------------------------------------------------------------
# sim_relay_echo
# ---------------------------------------------------------------------------


class SimRelayEcho:
    #: One round: (message bytes, round trips).  Two thirds of the ops
    #: are 16 B and a third 4 KiB, so p50 sits inside the first class
    #: and p90 inside the second; the 1 MiB echo is most of the events.
    ROUND = ((16, 100), (4096, 50), (MIB, 1))
    QUICK_ROUND = ((16, 20), (4096, 10), (64 * 1024, 1))
    WARM_TRIPS = 20

    def __init__(self, quick: bool, seed: int) -> None:
        from repro.cluster.testbed import Testbed
        from repro.core.api import NexusProxyClient

        self.round = self.QUICK_ROUND if quick else self.ROUND
        self.pattern = bytes((i + seed) & 0xFF for i in range(256))
        t0 = time.perf_counter()
        self.tb = Testbed()
        build_ms = (time.perf_counter() - t0) * 1e3
        self.server = NexusProxyClient(self.tb.rwcp_sun, **self.tb.proxy_addrs)
        self.peer = NexusProxyClient(self.tb.etl_sun, **self.tb.proxy_addrs)
        self.trips = 0
        self.rounds = 0
        self.tb.sim.run(until=self.tb.sim.process(self._open(), name="bench:open"))
        self.ready = {"build_ms": build_ms}

    def _echo(self, listener):
        from repro.simnet.socket import SocketError

        framed = yield from listener.accept()
        try:
            while True:
                payload, nbytes = yield from framed.recv()
                yield framed.send(payload, nbytes=nbytes)
        except SocketError:
            return  # the client closed

    def _trip(self, nbytes: int):
        """One echo; returns (payload came back intact, simulated RTT)."""
        self.trips += 1
        off = self.trips & 0xFF
        sent = self.pattern[off:] + self.pattern[:off]
        t0 = self.tb.sim.now
        yield self.framed.send(sent, nbytes=nbytes)
        payload, got = yield from self.framed.recv()
        return payload == sent and got == nbytes, self.tb.sim.now - t0

    def _open(self):
        self.listener = yield from self.server.bind()
        self.tb.sim.process(self._echo(self.listener), name="bench:echo")
        self.framed = yield from self.peer.connect(self.listener.proxy_addr)
        for _ in range(self.WARM_TRIPS):
            yield from self._trip(16)

    def _rounds(self, seconds: float, spans, out: dict):
        sim = self.tb.sim
        start = time.perf_counter()
        while True:
            self.rounds += 1
            events0 = sim.events_scheduled
            t_round = time.perf_counter()
            root = None if spans is None else span(spans, "sim_relay_echo.round", self.rounds, None, t_round, None)
            for nbytes, trips in self.round:
                for _ in range(trips):
                    t0 = time.perf_counter()
                    ok, sim_rtt = yield from self._trip(nbytes)
                    t1 = time.perf_counter()
                    out["attempted"] += 1
                    if ok:
                        out["op_us"].append((t1 - t0) * 1e6)
                    out["one_way_ms"].setdefault(str(nbytes), set()).add(round(sim_rtt / 2 * 1e3, 6))
                    if spans is not None:
                        span(spans, f"core.api.echo_{nbytes}", self.rounds, root, t0, t1)
            if spans is not None:
                spans[root - 1][4] = time.perf_counter()
            out["events_per_round"].add(sim.events_scheduled - events0)
            if time.perf_counter() - start >= seconds:
                return

    def run(self, seconds: float, traced: bool) -> dict:
        spans = [] if traced else None
        out = {"op_us": [], "attempted": 0, "one_way_ms": {}, "events_per_round": set()}
        sim = self.tb.sim
        events0 = sim.events_scheduled
        start = time.perf_counter()
        sim.run(until=sim.process(self._rounds(seconds, spans, out), name="bench:rounds"))
        wall = time.perf_counter() - start
        return {
            "op_us": out["op_us"], "attempted": out["attempted"], "wall_s": wall,
            "units": out["attempted"] // sum(n for _, n in self.round),
            "events": sim.events_scheduled - events0,
            "outputs": [{
                "one_way_ms": {k: sorted(v) for k, v in out["one_way_ms"].items()},
                "events_per_round": sorted(out["events_per_round"]),
            }],
            "spans": spans or [],
        }


WORKLOADS = {"table4": Table4, "sim_relay_echo": SimRelayEcho}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.quick, args.seed)
    print(json.dumps(workload.ready), flush=True)
    for line in sys.stdin:
        words = line.split()
        if not words or words[0] == "exit":
            break
        if words[0] == "run":
            print(json.dumps(workload.run(float(words[1]), words[2] == "1")), flush=True)


if __name__ == "__main__":
    main()
