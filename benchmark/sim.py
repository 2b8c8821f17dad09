"""The two sim-plane workloads, as the benchmark process sees them.

The program runs in ``sim_host.py``; this side asks it for one
measured phase and compares what it printed — rendered Tables 4/5/6,
node / steal / event counts, simulated one-way times — against
``golden/`` byte for byte.  ``run.py --regen-golden`` is the only
thing that ever writes those files.
"""

from __future__ import annotations

import asyncio
import difflib
import json
import statistics
from typing import Any, Optional

from harness import GOLDEN, Child, Measured, Tracer, Workload

#: A run command may take this long on top of the seconds it was given
#: (one whole Table 4 pass is the unit, ~15 s on the reference box).
RUN_SLACK_S = 150.0


def _json_text(obj: Any) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


class _Sim(Workload):
    """What the two workloads share: one ``run`` command per phase.
    The child finishes its set-up before its ready line and closing it
    ends the simulation, so ``setup()`` and ``teardown()`` do nothing."""

    host_script = "sim_host.py"

    def __init__(self, child: Child, ready: "dict[str, Any]", seed: int, quick: bool) -> None:
        super().__init__(child, ready, seed, quick)
        self.golden_dir = GOLDEN / ("quick" if quick else "full")

    @classmethod
    def host_args(cls, seed: int, quick: bool) -> "tuple[str, ...]":
        return ("--workload", cls.name, "--seed", str(seed)) + (("--quick",) if quick else ())

    def files(self, output: "dict[str, Any]") -> "dict[str, str]":
        """The golden files one unit's output renders to."""
        raise NotImplementedError

    def layer(self, reply: "dict[str, Any]") -> "dict[str, float]":
        """The layer metrics a run takes from its own reply."""
        raise NotImplementedError

    def check(self, outputs: "list[dict[str, Any]]") -> "list[str]":
        if len(outputs) != 1:
            return [f"{len(outputs)} different outputs from identical units"]
        errors = []
        for filename, text in self.files(outputs[0]).items():
            path = self.golden_dir / filename
            if not path.exists():
                errors.append(f"no golden file {path}")
            elif path.read_text() != text:
                errors.append(f"{filename} differs from {path}")
        return errors

    def regen(self, outputs: "list[dict[str, Any]]") -> str:
        """Rewrite this workload's golden files; returns the diff."""
        if len(outputs) != 1:
            raise RuntimeError(f"{self.name}: {len(outputs)} different outputs, nothing written")
        diff: "list[str]" = []
        self.golden_dir.mkdir(parents=True, exist_ok=True)
        for filename, text in self.files(outputs[0]).items():
            path = self.golden_dir / filename
            old = path.read_text() if path.exists() else ""
            diff += difflib.unified_diff(
                old.splitlines(True), text.splitlines(True),
                f"old/{path.name}", f"new/{path.name}",
            )
            path.write_text(text)
        return "".join(diff)

    async def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measured:
        command = f"run {seconds} {int(tracer is not None)}"
        reply = await asyncio.to_thread(self.child.ask, command, seconds + RUN_SLACK_S)
        if tracer is not None:
            tracer.extend(reply["spans"])
        self.outputs = reply["outputs"]
        done = len(reply["op_us"])
        return Measured(reply["op_us"], done, reply["wall_s"], reply["attempted"],
                        reply["attempted"] - done, self.check(self.outputs), self.layer(reply))


class Table4(_Sim):
    """Closed loop, 1 client: whole Table 4 passes on the 20 M-node
    instance — the sequential baseline plus the five Table 3 systems.
    Op = one row (one simulated job, start-up to wrap-up)."""

    name = "table4"
    #: One table is the unit and takes longer than a whole run is given.
    phases = 1

    def files(self, output):
        return {
            "table4.txt": output["table4"] + "\n",
            "table5.txt": output["table5"] + "\n",
            "table6.txt": output["table6"] + "\n",
            "table4_counts.json": _json_text(output["counts"]),
        }

    def layer(self, reply):
        rows = {
            label: statistics.median(table[label] for table in reply["row_wall_s"])
            for label in reply["row_wall_s"][0]
        }
        counts = reply["outputs"][0]["counts"]
        proxy = "Wide-area Cluster (use Nexus Proxy)"
        # Every row, the sequential one too, walks the whole tree.
        self.table_nodes = counts[proxy]["nodes"] * len(rows)
        self.table_wall_s = sum(rows.values())
        return {
            "apps.knapsack.table4.sequential_wall_s": rows["sequential"],
            "apps.knapsack.table4.lan_wall_s": rows["Local-area Cluster"],
            "apps.knapsack.table4.wan_proxy_wall_s": rows[proxy],
            "apps.knapsack.table4.wan_direct_wall_s": rows["Wide-area Cluster (Not use Nexus Proxy)"],
            "apps.knapsack.master_slave.steals": float(sum(c["steals"] for c in counts.values())),
            "simnet.kernel.events": float(sum(c["events"] for c in counts.values())),
        }

    def derived(self, layer: "dict[str, float]") -> "dict[str, float]":
        """The share of a table's wall time that is not raw branching,
        from the search probe's rate: ``1 − nodes / nodes_per_s / wall_s``."""
        search_s = self.table_nodes / layer["apps.knapsack.search.nodes_per_s"]
        return {"apps.knapsack.table4.non_search_share": 1.0 - search_s / self.table_wall_s}


class SimRelayEcho(_Sim):
    """Closed loop, 1 client: echo round trips ETL-Sun ↔ RWCP-Sun
    through ``NexusProxyClient.bind()`` / ``connect()`` on a
    ``Testbed()`` — both sim relays and the WAN link, the knapsack
    doing nothing.  Op = one round trip; a round is 100 × 16 B,
    50 × 4 KiB and 1 × 1 MiB."""

    name = "sim_relay_echo"

    def files(self, output):
        one_way = {size: times[0] if len(times) == 1 else times
                   for size, times in output["one_way_ms"].items()}
        events = output["events_per_round"]
        return {"sim_relay_echo.json": _json_text({
            "one_way_ms": one_way,
            "events_per_round": events[0] if len(events) == 1 else events,
        })}

    def layer(self, reply):
        return {"simnet.kernel.events": float(reply["events"])}


WORKLOADS = {cls.name: cls for cls in (Table4, SimRelayEcho)}
