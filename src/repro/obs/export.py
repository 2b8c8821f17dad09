"""Export paths for recorded observability data.

Two artifacts per run, both plain JSON:

* ``<base>.trace.json`` — Chrome ``trace_event`` JSON Object Format.
  Load it in Perfetto (https://ui.perfetto.dev, *Open trace file*) or
  ``chrome://tracing``.  The two clock domains become two "processes":
  pid 1 = sim time, pid 2 = wall clock, so Perfetto renders them as
  separate track groups and never mixes the time bases.  Tracks
  (ranks, daemons, hosts) become threads, interned in first-appearance
  order so the tid assignment is deterministic.
* ``<base>.summary.json`` — the registry snapshot plus per-category
  event/span aggregates; the unit `repro-obs summarize`/`diff` works
  over.

All serialization goes through :func:`dumps` (sorted keys, compact
separators) so byte-identical recordings produce byte-identical files —
the property the clock-domain determinism test asserts.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.obs.spans import (
    PH_COUNTER,
    PH_INSTANT,
    PH_SPAN,
    SIM,
    WALL,
    ObsRecorder,
)

__all__ = [
    "CHROME_FORMAT_TAG",
    "to_chrome",
    "summarize",
    "diff_summaries",
    "validate_chrome_trace",
    "dumps",
    "write_artifacts",
]

#: Stamped into ``otherData.format`` of every exported trace; the
#: schema check keys off it.
CHROME_FORMAT_TAG = "repro-obs-chrome-trace-v1"

#: Clock domain → Chrome pid.  Separate pids keep Perfetto from
#: overlaying sim microseconds on wall microseconds.
_DOMAIN_PID = {SIM: 1, WALL: 2}
_DOMAIN_LABEL = {SIM: "sim time", WALL: "wall clock"}
_PID_DOMAIN = {pid: domain for domain, pid in _DOMAIN_PID.items()}


def dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no incidental whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _usec(seconds: float) -> float:
    # Chrome traces are microsecond-denominated.  Round to a tenth of
    # a microsecond so float noise from the µs conversion can't leak
    # into the byte-stability guarantee.
    return round(seconds * 1e6, 1)


def to_chrome(rec: ObsRecorder, extra_meta: "Optional[dict[str, Any]]" = None) -> "dict[str, Any]":
    """Render a recorder as a Chrome ``trace_event`` JSON object."""
    tids: dict[tuple[int, str], int] = {}
    events: list[dict[str, Any]] = []
    meta: list[dict[str, Any]] = []

    for pid in sorted(_DOMAIN_PID.values()):
        label = _DOMAIN_LABEL[SIM if pid == _DOMAIN_PID[SIM] else WALL]
        meta.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"repro ({label})"},
            }
        )

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len([k for k in tids if k[0] == pid]) + 1
            meta.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        return tid

    for ev in rec.events:
        pid = _DOMAIN_PID[ev.domain]
        out: dict[str, Any] = {
            "ph": ev.ph,
            "pid": pid,
            "tid": tid_for(pid, ev.track),
            "cat": ev.cat,
            "name": ev.name,
            "ts": _usec(ev.ts),
        }
        if ev.ph == PH_SPAN:
            out["dur"] = _usec(ev.dur)
        elif ev.ph == PH_INSTANT:
            out["s"] = "t"  # thread-scoped instant
        if ev.args:
            out["args"] = ev.args
        events.append(out)

    other: dict[str, Any] = {
        "format": CHROME_FORMAT_TAG,
        "registry": rec.registry.snapshot(),
    }
    if extra_meta:
        other.update(extra_meta)
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def summarize(chrome: "dict[str, Any]") -> "dict[str, Any]":
    """Aggregate view of a Chrome trace (one :func:`to_chrome` wrote,
    or one ``repro-obs assemble`` merged): per-(domain, category) event
    counts and span duration totals, plus the registry snapshot the
    trace carries."""
    cats: dict[str, dict[str, Any]] = {}
    total = 0
    for ev in chrome.get("traceEvents", []):
        ph = ev.get("ph")
        if ph == "M":
            continue
        total += 1
        # Assembled traces remap pids to stride*file + original; the
        # low digit still encodes the clock domain.
        pid = ev.get("pid")
        domain = _PID_DOMAIN.get(pid if pid in _PID_DOMAIN else (pid or 0) % 10, "?")
        agg = cats.setdefault(
            f"{domain}:{ev.get('cat', '?')}",
            {"events": 0, "spans": 0, "instants": 0, "counters": 0,
             "span_total_s": 0.0, "span_max_s": 0.0},
        )
        agg["events"] += 1
        if ph == PH_SPAN:
            agg["spans"] += 1
            dur_s = ev.get("dur", 0) / 1e6
            agg["span_total_s"] += dur_s
            if dur_s > agg["span_max_s"]:
                agg["span_max_s"] = dur_s
        elif ph == PH_INSTANT:
            agg["instants"] += 1
        elif ph == PH_COUNTER:
            agg["counters"] += 1
    for agg in cats.values():
        agg["span_total_s"] = round(agg["span_total_s"], 9)
        agg["span_max_s"] = round(agg["span_max_s"], 9)
    return {
        "format": "repro-obs-summary-v1",
        "total_events": total,
        "categories": dict(sorted(cats.items())),
        "registry": chrome.get("otherData", {}).get("registry", {}),
    }


def _flatten(prefix: str, value: Any, out: "dict[str, Any]") -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    else:
        out[prefix] = value


def diff_summaries(a: "dict[str, Any]", b: "dict[str, Any]") -> "dict[str, Any]":
    """Structural diff of two summary dicts; numeric leaves get a
    delta, everything else an old/new pair.  Identical leaves are
    omitted."""
    fa: dict[str, Any] = {}
    fb: dict[str, Any] = {}
    _flatten("", a, fa)
    _flatten("", b, fb)
    changed: dict[str, Any] = {}
    for key in sorted(set(fa) | set(fb)):
        va, vb = fa.get(key), fb.get(key)
        if va == vb:
            continue
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            changed[key] = {"a": va, "b": vb, "delta": vb - va}
        else:
            changed[key] = {"a": va, "b": vb}
    return {"format": "repro-obs-diff-v1", "changed": changed}


def validate_chrome_trace(obj: Any) -> "list[str]":
    """Schema check for exported traces (hand-rolled — the toolchain
    has no jsonschema).  Returns a list of problems; empty means valid."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        return ["top level: expected object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        errors.append("traceEvents: expected array")
        events = []
    other = obj.get("otherData")
    if not isinstance(other, dict):
        errors.append("otherData: expected object")
    elif other.get("format") != CHROME_FORMAT_TAG:
        errors.append(f"otherData.format: expected {CHROME_FORMAT_TAG!r}")
    elif not isinstance(other.get("registry"), dict):
        errors.append("otherData.registry: expected object")
    valid_ph = {"X", "i", "C", "M", "s", "f"}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: expected object")
            continue
        ph = ev.get("ph")
        if ph not in valid_ph:
            errors.append(f"{where}.ph: {ph!r} not one of {sorted(valid_ph)}")
            continue
        for field, types in (("name", str), ("pid", int), ("tid", int)):
            if not isinstance(ev.get(field), types):
                errors.append(f"{where}.{field}: expected {types.__name__}")
        if ph == "M":
            continue
        if not isinstance(ev.get("ts"), (int, float)):
            errors.append(f"{where}.ts: expected number")
        if not isinstance(ev.get("cat"), str):
            errors.append(f"{where}.cat: expected string")
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            errors.append(f"{where}.dur: expected number")
        if ph in ("s", "f"):
            # Flow events (assembled causal links) must carry an id to
            # pair the start with its binding end.
            if not isinstance(ev.get("id"), (int, str)):
                errors.append(f"{where}.id: flow event needs an id")
            if ph == "f" and ev.get("bp") != "e":
                errors.append(f"{where}.bp: flow end must bind enclosing ('e')")
        if len(errors) > 20:
            errors.append("... (truncated)")
            break
    return errors


def write_artifacts(
    rec: ObsRecorder,
    base: str,
    extra_meta: "Optional[dict[str, Any]]" = None,
) -> "tuple[str, str]":
    """Write ``<base>.trace.json`` + ``<base>.summary.json``; returns
    the two paths."""
    trace_path = f"{base}.trace.json"
    summary_path = f"{base}.summary.json"
    chrome = to_chrome(rec, extra_meta)
    summ = summarize(chrome)
    if extra_meta:
        summ["meta"] = extra_meta
    with open(trace_path, "w") as fh:
        fh.write(dumps(chrome))
        fh.write("\n")
    with open(summary_path, "w") as fh:
        fh.write(dumps(summ))
        fh.write("\n")
    return trace_path, summary_path
