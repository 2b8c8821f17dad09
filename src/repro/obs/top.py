"""Rendering for ``repro-obs top`` — a live fleet dashboard.

Everything here is a pure function from plain data (the aggregated
endpoint's ``/metrics.json`` payload and ``/alerts`` document) to a
text frame, so the dashboard is testable without sockets and the CLI
loop in :mod:`repro.obs.cli` stays a thin fetch-render-sleep shell.

Output discipline: plain ASCII, no cursor addressing, no colors —
``--once`` frames must survive pipes, CI logs, and diffing.  The live
loop clears the screen between frames only when stdout is a TTY.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

__all__ = ["render", "sparkline", "fmt_bytes", "fmt_rate"]

#: Ascending intensity ramp for sparklines (ASCII-only on purpose).
_RAMP = " .:-=+*#%@"
#: Sparkline columns.
SPARK_WIDTH = 40
#: Frame columns: longer lines are cut.
FRAME_WIDTH = 78


def fmt_bytes(n: "Optional[float]") -> str:
    if n is None:
        return "-"
    value = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} TB"


def fmt_rate(n: "Optional[float]") -> str:
    return "-" if n is None else f"{fmt_bytes(n)}/s"


def sparkline(values: "Iterable[float]") -> str:
    """An ASCII sparkline of the newest :data:`SPARK_WIDTH` ``values``,
    newest right, scaled to the series max (empty series renders as
    spaces)."""
    vals = [max(0.0, float(v)) for v in values][-SPARK_WIDTH:]
    if not vals:
        return " " * SPARK_WIDTH
    top = max(vals)
    if top <= 0:
        return ("." * len(vals)).rjust(SPARK_WIDTH)
    chars = []
    for v in vals:
        idx = int(v / top * (len(_RAMP) - 1) + 0.5)
        chars.append(_RAMP[idx])
    return "".join(chars).rjust(SPARK_WIDTH)


def _worker_rows(payload: "dict[str, Any]") -> "list[dict[str, Any]]":
    agg = payload.get("aggregate", {})
    fleet_workers = agg.get("fleet", {}).get("workers", {})
    agg_workers = agg.get("workers", {})
    rollup_scalars = payload.get("rollup", {}).get("scalars", {})
    rows = []
    for wid in sorted(set(fleet_workers) | set(agg_workers)):
        fw = fleet_workers.get(wid, {})
        aw = agg_workers.get(wid, {})
        rate_entry = rollup_scalars.get(
            f"workers.{wid}.relay.bytes_relayed", {}
        )
        rows.append({
            "id": wid,
            "state": fw.get("state", "?"),
            "chains": fw.get("active_chains"),
            "bytes": fw.get("bytes_relayed"),
            "rate": rate_entry.get("rate", fw.get("byte_rate")),
            "heartbeats": fw.get("heartbeats"),
            "stale": bool(aw.get("stale")) or not aw.get("scraped", True),
            "age_s": aw.get("age_s"),
        })
    return rows


def _alerts_lines(alerts: "Optional[dict[str, Any]]") -> "list[str]":
    if not alerts:
        return ["alerts: (no SLO engine attached)"]
    rules = alerts.get("rules", [])
    active = alerts.get("active", {})
    lines = [
        f"alerts: {len(rules)} rules, {len(active)} firing "
        f"({alerts.get('evaluations', 0)} evaluations)"
    ]
    for rule in rules:
        state = rule.get("state", "?")
        marker = "!!" if state == "firing" else ("~ " if state == "pending" else "ok")
        value = rule.get("value")
        shown = "-" if value is None else f"{value:g}"
        lines.append(
            f"  [{marker}] {rule.get('name', '?'):<28} "
            f"state={state:<8} value={shown}"
        )
    history = alerts.get("history", [])
    resolved = [a for a in history if a.get("state") == "resolved"]
    for a in resolved[-3:]:
        dur = a.get("duration_s")
        dur_s = "-" if dur is None else f"{dur:.2f}s"
        flag = " BREACHED" if a.get("breached") else ""
        lines.append(
            f"  resolved {a.get('rule', '?')} after {dur_s}{flag}"
        )
    return lines


def render(
    payload: "dict[str, Any]",
    alerts: "Optional[dict[str, Any]]" = None,
    rate_history: "Optional[list[float]]" = None,
) -> str:
    """One dashboard frame from the aggregated payload.

    ``rate_history`` is the caller's own record of recent aggregate
    byte rates (the endpoint serves aggregates, not raw series over
    the wire) — when present it becomes the throughput sparkline.
    """
    agg = payload.get("aggregate", {})
    fleet = agg.get("fleet", {})
    derived = agg.get("derived", {})
    rollup = payload.get("rollup", {})
    lines: list[str] = []

    up = derived.get("workers_up", 0)
    stale = derived.get("workers_stale", 0)
    admin = "ok" if agg.get("admin_ok") else "DOWN"
    lines.append(
        f"repro fleet top  mode={fleet.get('mode', '?')} "
        f"workers={up + stale} up={up} stale={stale} "
        f"admin={admin} rounds={agg.get('rounds', 0)}"
    )
    if derived.get("mixed_versions"):
        lines.append("  WARNING: workers report mixed git revisions")

    total_rate = (
        rollup.get("scalars", {})
        .get("derived.bytes_relayed_total", {})
        .get("rate")
    )
    lines.append(
        f"total: {fmt_bytes(derived.get('bytes_relayed_total'))} relayed, "
        f"{derived.get('active_chains_total', 0)} active chains, "
        f"placed={fleet.get('placed_chains', 0)} "
        f"pending_drains={int(fleet.get('drains_started', 0)) - int(fleet.get('drains_completed', 0))}"
    )
    if rate_history:
        lines.append(
            f"rate:  [{sparkline(rate_history)}] {fmt_rate(total_rate)}"
        )
    else:
        lines.append(f"rate:  {fmt_rate(total_rate)}")
    lines.append("")

    rows = _worker_rows(payload)
    if rows:
        lines.append(
            f"{'WORKER':<8} {'STATE':<8} {'CHAINS':>6} {'BYTES':>10} "
            f"{'RATE':>12} {'HB':>4}  FRESH"
        )
        for r in rows:
            fresh = "stale" if r["stale"] else (
                "-" if r["age_s"] is None else f"{r['age_s']:.1f}s ago"
            )
            chains = "-" if r["chains"] is None else str(r["chains"])
            hb = "-" if r["heartbeats"] is None else str(r["heartbeats"])
            lines.append(
                f"{r['id']:<8} {r['state']:<8} {chains:>6} "
                f"{fmt_bytes(r['bytes']):>10} {fmt_rate(r['rate']):>12} "
                f"{hb:>4}  {fresh}"
            )
    else:
        lines.append("(no workers discovered yet)")
    lines.append("")
    lines.extend(_alerts_lines(alerts))
    return "\n".join(line[:FRAME_WIDTH] for line in lines) + "\n"
