"""The scorecard: does the reproduction match the paper?

:data:`CLAIMS` has one row for every legible cell of the paper's
tables and figures, every prose claim about them, and every named
ablation of DESIGN §5.  A row holds the paper's value, the measured
value, the relation that must hold between them and a status: ✓ (it
holds), ✗ (it does not), plus ⚙ when the paper's value is an input of
the calibration rather than a finding.  A cell with no stated
tolerance of its own is held to ±25 % of the paper.

:func:`evaluate` runs every experiment the rows read, each once, and
:func:`render` prints the Markdown table that EXPERIMENTS.md embeds
between its ``score`` markers (``repro-bench score``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

from repro.apps.knapsack import optimal_value, paper_instance, tree_size
from repro.bench import experiments as ex
from repro.bench.calibrate import table2_chain_models
from repro.bench.table2 import PAPER_TABLE2, measure_paths, table2_rows
from repro.bench.table4 import ROW_ORDER, Table4Config, Table4Results, run_table4
from repro.bench.table56 import TABLE56_SYSTEMS
from repro.cluster import Testbed
from repro.core import RelayConfig
from repro.util.units import MIB_MESSAGE, fmt_rate, fmt_time

__all__ = ["CLAIMS", "Claim", "Measurements", "Row", "evaluate", "render"]

LAN_D, LAN_I, WAN_D, WAN_I = PAPER_TABLE2
WIDE_PROXY = "Wide-area Cluster (use Nexus Proxy)"

#: Message sizes of the §4.2 bandwidth curve (1 KB → 1 MB).
CURVE_SIZES = (1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20)

#: Aggregate compute capacity per system (processors × relative speed).
CAPACITY = {
    "COMPaS": 8 * 0.55,
    "ETL-O2K": 8 * 0.90,
    "Local-area Cluster": 4 * 1.0 + 8 * 0.55,
    WIDE_PROXY: 4 * 1.0 + 8 * 0.55 + 8 * 0.90,
}

#: Every experiment the claims read, by name.
EXPERIMENTS: dict[str, Callable[["Measurements"], Any]] = {
    "paths": lambda m: measure_paths((16,) + CURVE_SIZES),
    "table2": lambda m: {r.label: r for r in table2_rows(m["paths"])},
    "table3": lambda m: ex.barrier_per_system(),
    "table4": lambda m: run_table4(Table4Config(), jobs=m.jobs),
    "chains": lambda m: ex.chain_timings(),
    "portrange": lambda m: ex.portrange_vs_proxy(),
    "chunks": lambda m: ex.relay_chunk_sweep(),
    "pruning": lambda m: ex.pruning_modes(),
    "tuning": lambda m: ex.tuning_grid_sweep(jobs=m.jobs),
    "utilization": lambda m: ex.wide_area_utilization(),
    "testbed": lambda m: Testbed(),
}


class Measurements(dict):
    """Experiment name → result; each experiment runs on first use only.

    ``jobs`` fans the Table 4 rows and the tuning grid over worker
    processes (results are identical); ``table4`` hands in a run of the
    committed Table 4 configuration that was already made.
    """

    def __init__(self, jobs: int = 1, table4: Optional[Table4Results] = None):
        super().__init__()
        self.jobs = jobs
        if table4 is not None:
            self["table4"] = table4

    def __missing__(self, name: str) -> Any:
        self[name] = EXPERIMENTS[name](self)
        return self[name]


def curve(m: Measurements, label: str) -> list[float]:
    """Bandwidth per :data:`CURVE_SIZES` size on one Table 2 path."""
    return [size / m["paths"][label][size] for size in CURVE_SIZES]


def ratios(m: Measurements, indirect: str, direct: str) -> list[float]:
    return [i / d for i, d in zip(curve(m, indirect), curve(m, direct))]


def wide_groups(m: Measurements) -> dict:
    return {g.group: g for g in m["table4"].runs[WIDE_PROXY].groups()}


def table56_runs(m: Measurements) -> list:
    return [m["table4"].runs[label] for _, label in TABLE56_SYSTEMS]


# -- relations --------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """The relation a measured value must satisfy, and how it reads."""

    text: str
    holds: Callable[[Any], bool]


def _num(x: float) -> str:
    return f"{x:g}"


_OPS = {">": operator.gt, "<": operator.lt, "≥": operator.ge,
        "≤": operator.le, "=": operator.eq}


def rel(op: str, x: Any, fmt: Callable[[Any], str] = _num) -> Check:
    """``measured <op> x``, e.g. ``rel(">", 10)``."""
    return Check(f"{op} {fmt(x)}", lambda v: _OPS[op](v, x))


def between(lo: float, hi: float, fmt: Callable[[float], str] = _num) -> Check:
    return Check(f"> {fmt(lo)} and < {fmt(hi)}", lambda v: lo < v < hi)


def near(paper: float, tol: float) -> Check:
    """Within ``tol`` of the paper's value, relative to the paper's."""
    return Check(f"±{tol * 100:g}%", lambda v: abs(v - paper) <= tol * abs(paper))


YES = Check("yes", bool)
LESS = Check("first < second", lambda v: v[0] < v[1])


def _show(v: Any) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    return f"{v:.3g}" if isinstance(v, float) else str(v)


times = "{:.1f}×".format
pct = "{:.1%}".format
f2 = "{:.2f}".format
f3 = "{:.3f}".format


def pair(fmt: Callable[[Any], str]) -> Callable[[Any], str]:
    return lambda v: f"{fmt(v[0])} vs {fmt(v[1])}"


# -- the claims -------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    key: str
    source: str
    claim: str
    paper: str
    measure: Callable[[Measurements], Any]
    check: Check
    show: Callable[[Any], str] = _show
    calibrated: bool = False


def _t2_cell(key: str, label: str, col: int, tol: float, calibrated: bool) -> Claim:
    """A legible Table 2 cell: column 0 latency, 1 4 KB bw, 2 1 MB bw."""
    paper = PAPER_TABLE2[label][col]
    attr = ("latency", "bandwidth_4k", "bandwidth_1mb")[col]
    fmt = fmt_time if col == 0 else fmt_rate
    what = ("latency", "bw 4 KB", "bw 1 MB")[col]
    return Claim(key, "Table 2", f"{label.replace('RWCP-Sun <-> ', '')} {what}",
                 fmt(paper), lambda m: getattr(m["table2"][label], attr),
                 near(paper, tol), fmt, calibrated)


def _smallest_step(m: Measurements) -> float:
    """Smallest size-to-size bandwidth ratio over the four curves."""
    return min(b2 / b1 for label in PAPER_TABLE2
               for b1, b2 in zip(curve(m, label), curve(m, label)[1:]))


def _t2_ratio(m: Measurements, attr: str, num: str, den: str) -> float:
    t2 = m["table2"]
    return getattr(t2[num], attr) / getattr(t2[den], attr)


def _spread(m: Measurements, summary: str) -> float:
    """Largest max/min of a per-site summary in the Table 5/6 runs."""
    return max(
        s.maximum / s.minimum if s.minimum > 0 else float("inf")
        for run in table56_runs(m)
        for s in (getattr(g, summary) for g in run.groups())
    )


def _capacity_ordered(v: tuple[float, ...]) -> bool:
    compas, etl, local, wide = v
    return compas < etl < wide and local < wide


def _every_run(m: Measurements, attr: str, truth: Callable) -> bool:
    expected = truth(m["table4"].config.instance())
    return all(getattr(run, attr) == expected for run in m["table4"].runs.values())


def _steals_served(m: Measurements) -> bool:
    """Every steal request is served, but for at most one park per slave."""
    return all(
        run.total_steals >= sum(s.steal_requests for s in run.rank_stats
                                if not s.is_master) - (run.nprocs - 1)
        for run in table56_runs(m)
    )


def _totals_conserved(m: Measurements) -> bool:
    expected = tree_size(m["table4"].config.instance())
    return all(
        run.master_stats.nodes_traversed
        + sum(s.nodes_traversed for s in run.rank_stats if not s.is_master)
        == expected
        for run in table56_runs(m)
    )


def _reachability(m: Measurements) -> bool:
    """Fig. 1's firewall: outside → inside denied, inside → outside
    allowed, the nxport the one inbound hole, intra-site open."""
    can, relay = m["testbed"].net.can_connect, m["testbed"].relay_config
    return (
        not can("etl-sun", "rwcp-sun", 5000)
        and not can("etl-o2k", "compas-0", 5000)
        and not can("outer-server", "rwcp-sun", 5000)
        and can("rwcp-sun", "etl-sun", 5000)
        and can("compas-3", "outer-server", relay.control_port)
        and can("outer-server", "inner-server", relay.nxport)
        and not can("etl-sun", "inner-server", relay.nxport)
        and not can("outer-server", "rwcp-sun", relay.nxport)
        and can("rwcp-sun", "compas-0", 5000)
    )


def _chunk_vs_model(m: Measurements) -> list[tuple[float, float]]:
    """(simulated, closed-form) proxied LAN 1 MB bw per swept chunk."""
    return [
        (bw, table2_chain_models(relay=RelayConfig().with_overrides(
            chunk_bytes=chunk))[LAN_I].bandwidth(MIB_MESSAGE))
        for chunk, bw in m["chunks"].items()
    ]


def _vs_no_prune(m: Measurements, mode: str, attr: str) -> tuple[Any, Any]:
    runs = m["pruning"][1]
    return getattr(runs[mode], attr), getattr(runs["no-prune"], attr)


def _pruning_optimal(m: Measurements) -> bool:
    instance, runs = m["pruning"]
    return all(r.best_value == optimal_value(instance) for r in runs.values())


CLAIMS: list[Claim] = [
    # Table 2: the legible cells.
    _t2_cell("t2.lan-direct.latency", LAN_D, 0, 0.25, True),
    _t2_cell("t2.lan-direct.bw4k", LAN_D, 1, 0.25, True),
    _t2_cell("t2.lan-direct.bw1m", LAN_D, 2, 0.25, True),
    _t2_cell("t2.lan-indirect.latency", LAN_I, 0, 0.20, True),
    _t2_cell("t2.lan-indirect.bw4k", LAN_I, 1, 0.25, False),
    _t2_cell("t2.wan-direct.latency", WAN_D, 0, 0.10, True),
    _t2_cell("t2.wan-indirect.latency", WAN_I, 0, 0.25, False),
    # §4.2: what the paper says about Table 2, and bandwidth vs. size.
    Claim("t2.lan-latency-ratio", "§4.2", "LAN proxied / direct latency", "≈ 60×",
          lambda m: _t2_ratio(m, "latency", LAN_I, LAN_D), between(30, 120), times),
    Claim("t2.wan-latency-ratio", "§4.2", "WAN proxied / direct latency", "≈ 6×",
          lambda m: _t2_ratio(m, "latency", WAN_I, WAN_D), between(4, 10), times),
    Claim("t2.lan-bw-drop-4k", "§4.2", "LAN direct / proxied bw, 4 KB",
          "order of magnitude", lambda m: _t2_ratio(m, "bandwidth_4k", LAN_D, LAN_I),
          rel(">", 10), times),
    Claim("t2.lan-bw-drop-1m", "§4.2", "LAN direct / proxied bw, 1 MB",
          "order of magnitude", lambda m: _t2_ratio(m, "bandwidth_1mb", LAN_D, LAN_I),
          rel(">", 10), times),
    Claim("t2.wan-1m-overhead", "§4.2", "WAN 1 MB bw, proxied vs direct",
          "negligible", lambda m: _t2_ratio(m, "bandwidth_1mb", WAN_I, WAN_D) - 1,
          Check("within ±5%", lambda v: abs(v) <= 0.05), pct),
    Claim("t2.bw-grows", "§4.2", "1 MB bw / 4 KB bw, smallest of 4 paths", "grows",
          lambda m: min(r.bandwidth_1mb / r.bandwidth_4k
                        for r in m["table2"].values()), rel(">", 1), times),
    Claim("t2.indirect-4k-order", "§4.2", "LAN- vs WAN-indirect bw, 4 KB",
          "LAN < WAN", lambda m: (m["table2"][LAN_I].bandwidth_4k,
                                  m["table2"][WAN_I].bandwidth_4k),
          LESS, pair(fmt_rate)),
    Claim("curve.monotone", "§4.2", "bw vs size (1 KB → 1 MB), smallest step",
          "grows", _smallest_step, rel("≥", 0.99), f3),
    Claim("curve.wan-small", "§4.2", "WAN proxied / direct bw, 1 KB", "proxy hurts",
          lambda m: ratios(m, WAN_I, WAN_D)[0], rel("<", 0.6), f3),
    Claim("curve.wan-large", "§4.2", "WAN proxied / direct bw, 1 MB",
          "close to direct", lambda m: ratios(m, WAN_I, WAN_D)[-1], rel(">", 0.95), f3),
    Claim("curve.wan-rises", "§4.2", "WAN proxied / direct bw rises with size",
          "yes", lambda m: ratios(m, WAN_I, WAN_D) == sorted(ratios(m, WAN_I, WAN_D)),
          YES),
    Claim("curve.lan-ceiling", "§4.2", "LAN proxied / direct bw, 1 MB",
          "relay-bound", lambda m: ratios(m, LAN_I, LAN_D)[-1], rel("<", 0.2), f3),
    Claim("curve.lan-rises", "§4.2", "LAN proxied / direct bw, 1 KB vs 1 MB",
          "rises", lambda m: (ratios(m, LAN_I, LAN_D)[0], ratios(m, LAN_I, LAN_D)[-1]),
          LESS, pair(f3)),
    # Table 3: the legible processor counts; each system runs MPI.
    *[
        Claim(f"t3.{name.split()[0].lower()}.procs", "Table 3", f"{name} processors",
              str(procs), lambda m, name=name: m["table3"][name][0], rel("=", procs))
        for name, procs in (("COMPaS", 8), ("ETL-O2K", 8),
                            ("Local-area Cluster", 12), ("Wide-area Cluster", 20))
    ],
    Claim("t3.startup", "Table 3", "start-up + barrier, COMPaS vs Wide-area",
          "proxied start-up costs more",
          lambda m: (m["table3"]["COMPaS"][1], m["table3"]["Wide-area Cluster"][1]),
          LESS, pair(fmt_time)),
    # Table 4: its cells are illegible, its prose is not.
    Claim("t4.speedup", "Table 4", "smallest parallel speedup", "> 1",
          lambda m: min(m["table4"].speedup(label) for label in ROW_ORDER),
          rel(">", 1.0), f2),
    Claim("t4.ordering", "Table 4", "speedups follow capacity 4.4 / 7.2 / 8.4 / 15.6",
          "yes", lambda m: tuple(m["table4"].speedup(label) for label in CAPACITY),
          Check("COMPaS < ETL-O2K < Wide, Local < Wide", _capacity_ordered),
          lambda v: " / ".join(map(f2, v))),
    Claim("t4.efficiency", "Table 4", "smallest speedup / capacity",
          "reasonable performance",
          lambda m: min(m["table4"].speedup(label) / cap
                        for label, cap in CAPACITY.items()),
          rel(">", 0.6, pct), pct),
    Claim("t4.proxy-overhead", "Table 4", "wide-area proxy overhead", "≈ 3.5%",
          lambda m: m["table4"].proxy_overhead, between(-0.05, 0.10, pct), pct, True),
    Claim("t4.work", "Table 4", "every run traverses the whole tree", "yes",
          lambda m: _every_run(m, "total_nodes", tree_size), YES),
    Claim("t4.optimum", "Table 4", "every run finds the optimum", "yes",
          lambda m: _every_run(m, "best_value", optimal_value), YES),
    # Tables 5 and 6: cells illegible; prose and units are not.
    Claim("t5.frequent", "Table 5", "fewest steals served, Local / Wide", "frequent",
          lambda m: min(run.total_steals for run in table56_runs(m)), rel(">", 100)),
    Claim("t5.served", "Table 5", "master serves all but ≤ 1 park per slave", "yes",
          _steals_served, YES),
    Claim("t5.balance", "Table 5", "largest per-site max / min steals",
          "good load balance", lambda m: _spread(m, "steals"), rel("≤", 3), f2),
    Claim("t5.sites", "Table 5", "Wide-area reports 3 sites, Local-area 2", "yes",
          lambda m: [{g.group for g in run.groups()} for run in table56_runs(m)]
          == [{"RWCP-Sun", "COMPaS"}, {"RWCP-Sun", "COMPaS", "ETL-O2K"}], YES),
    Claim("t6.busy", "Table 6", "fewest nodes on any rank, Local / Wide", "> 0",
          lambda m: min(s.nodes_traversed for run in table56_runs(m)
                        for s in run.rank_stats), rel(">", 0)),
    Claim("t6.balance", "Table 6", "largest per-site max / min nodes",
          "good load balance", lambda m: _spread(m, "nodes"), rel("≤", 1.5), f2),
    Claim("t6.share-compas", "Table 6", "COMPaS / RWCP-Sun nodes per slave",
          "0.55 (CPU speed)", lambda m: wide_groups(m)["COMPaS"].nodes.average
          / wide_groups(m)["RWCP-Sun"].nodes.average, near(0.55, 0.25), f2),
    Claim("t6.share-etl", "Table 6", "ETL-O2K / RWCP-Sun nodes per slave",
          "0.90 (CPU speed)", lambda m: wide_groups(m)["ETL-O2K"].nodes.average
          / wide_groups(m)["RWCP-Sun"].nodes.average, near(0.90, 0.25), f2),
    Claim("t6.conserved", "Table 6", "master + slaves = tree size", "yes",
          _totals_conserved, YES),
    Claim("t6.billions", "Table 6", "50-item paper instance, tree size",
          "in billions", lambda m: (paper_instance().n, tree_size(paper_instance())),
          Check("n = 50 and > 1e+09", lambda v: v[0] == 50 and v[1] > 1e9),
          lambda v: f"n = {v[0]}, {v[1]:.3g}"),
    # Figures (Fig. 2's flow is checked by tests/rmf and tests/integration).
    Claim("fig5.imnet", "Fig. 5", "IMNet bandwidth", "1.5 Mbps",
          lambda m: next(link.bandwidth for link in m["testbed"].net.links()
                         if link.name == "IMNet"),
          near(187_500, 1e-6), fmt_rate, True),
    Claim("fig1.reachability", "Fig. 1", "inbound denied, outbound and nxport open",
          "yes", _reachability, YES),
    Claim("fig1.exposure", "Fig. 1", "inbound ports open at RWCP", "1 (nxport)",
          lambda m: m["testbed"].rwcp_firewall.exposure(), rel("=", 1)),
    Claim("fig34.extra-relay", "Figs. 3/4", "active vs passive one-way latency",
          "extra inner-server hop",
          lambda m: (m["chains"]["active"][1], m["chains"]["passive"][1]),
          Check("second > first + 5.00 msec", lambda v: v[1] > v[0] + 5e-3),
          pair(fmt_time)),
    Claim("fig34.active", "Figs. 3/4", "active (1-relay) one-way latency", "—",
          lambda m: m["chains"]["active"][1], between(8e-3, 25e-3, fmt_time), fmt_time),
    Claim("fig34.connect", "Figs. 3/4", "slowest chain connect time", "—",
          lambda m: max(conn for conn, _ in m["chains"].values()),
          rel("<", 0.2, fmt_time), fmt_time),
    # DESIGN §5's ablations (2, active vs passive chains, is Figs. 3/4).
    Claim("abl.chunk.monotone", "§5 abl. 1", "proxied LAN 1 MB bw rises with chunk",
          "—", lambda m: list(m["chunks"].values()) == sorted(m["chunks"].values()),
          YES),
    Claim("abl.chunk.model", "§5 abl. 1", "sim / closed form − 1, worst chunk",
          "—", _chunk_vs_model,
          Check("±25% each",
                lambda v: all(abs(s - p) <= 0.25 * abs(p) for s, p in v)),
          lambda v: pct(max(abs(s / p - 1) for s, p in v))),
    Claim("abl.tuning.spread", "§5 abl. 3", "worst / best sweep point", "—",
          lambda m: m["tuning"][-1].execution_time / m["tuning"][0].execution_time,
          rel(">", 1.3), times),
    Claim("abl.tuning.no-send-back", "§5 abl. 3", "no send-back / best", "—",
          lambda m: next(p.execution_time for p in m["tuning"] if p.back_transfers == 0)
          / m["tuning"][0].execution_time, rel(">", 1.2), times),
    Claim("abl.tuning.circulates", "§5 abl. 3", "best point's send-backs", "—",
          lambda m: m["tuning"][0].back_transfers, rel(">", 0)),
    Claim("abl.portrange.proxy", "§5 abl. 4", "proxy inbound exposure (ports)", "—",
          lambda m: m["portrange"]["proxy"][1], rel("=", 1)),
    Claim("abl.portrange.range", "§5 abl. 4", "port-range inbound exposure (ports)",
          "—", lambda m: m["portrange"]["port-range"][1],
          rel("=", 1 + ex.PORT_MAX - ex.PORT_MIN + 1)),
    Claim("abl.portrange.latency", "§5 abl. 4", "port-range / proxy reply latency",
          "—", lambda m: m["portrange"]["port-range"][0] / m["portrange"]["proxy"][0],
          rel("<", 0.5), f3),
    Claim("abl.pruning.optimum", "§5 abl. 5", "every mode finds the optimum", "—",
          _pruning_optimal, YES),
    Claim("abl.pruning.full", "§5 abl. 5", "no-prune nodes vs tree size", "—",
          lambda m: (m["pruning"][1]["no-prune"].total_nodes,
                     tree_size(m["pruning"][0])),
          Check("equal", lambda v: v[0] == v[1]), pair(str)),
    Claim("abl.pruning.local", "§5 abl. 5", "nodes, local bounds vs no pruning", "—",
          lambda m: _vs_no_prune(m, "local", "total_nodes"), LESS, pair(str)),
    Claim("abl.pruning.shared", "§5 abl. 5", "nodes, shared bounds vs no pruning",
          "—", lambda m: _vs_no_prune(m, "shared", "total_nodes"), LESS, pair(str)),
    Claim("abl.pruning.faster", "§5 abl. 5", "time, shared bounds vs no pruning",
          "—", lambda m: _vs_no_prune(m, "shared", "execution_time"), LESS,
          pair(fmt_time)),
    Claim("abl.util.outer", "§5 abl. 6", "outer relay CPU, wide-area run", "—",
          lambda m: m["utilization"].host_cpu["outer-server"],
          between(0, 0.5, pct), pct),
    Claim("abl.util.inner", "§5 abl. 6", "inner relay CPU, wide-area run", "—",
          lambda m: m["utilization"].host_cpu["inner-server"], rel("<", 0.5, pct), pct),
    Claim("abl.util.imnet-bytes", "§5 abl. 6", "IMNet bytes carried", "—",
          lambda m: m["utilization"].links["IMNet"][1], rel(">", 0)),
    Claim("abl.util.imnet-load", "§5 abl. 6", "IMNet utilization", "—",
          lambda m: m["utilization"].links["IMNet"][0], rel("<", 0.9, pct), pct),
    Claim("abl.util.no-hot-host", "§5 abl. 6", "hosts above 50% execute() CPU",
          "—", lambda m: sorted(name for name, u in m["utilization"].host_cpu.items()
                                if u > 0.5),
          Check("none", lambda v: v == []), lambda v: ", ".join(v) or "none"),
]


#: One evaluated claim: the claim, its measured value shown, whether it holds.
Row = NamedTuple("Row", [("claim", Claim), ("measured", str), ("ok", bool)])


def evaluate(measurements: Optional[Measurements] = None) -> list[Row]:
    """Score every claim (each experiment runs once, on first use)."""
    m = Measurements() if measurements is None else measurements
    rows = []
    for c in CLAIMS:
        value = c.measure(m)
        rows.append(Row(c, c.show(value), bool(c.check.holds(value))))
    return rows


def render(rows: list[Row]) -> str:
    """The scorecard as a Markdown table."""
    lines = [
        "| Key | Source | Claim | Paper | Measured | Check | Status |",
        "|---|---|---|---|---|---|---|",
    ]
    for c, measured, ok in rows:
        status = ("✓" if ok else "✗") + (" ⚙" if c.calibrated else "")
        lines.append(f"| `{c.key}` | {c.source} | {c.claim} | {c.paper} | "
                     f"{measured} | {c.check.text} | {status} |")
    return "\n".join(lines)
