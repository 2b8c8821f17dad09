"""Declarative SLOs over fleet time-series, with alert events.

The aggregator (:mod:`repro.obs.aggregate`) gives the fleet windowed
history; this module makes "healthy" a checkable statement about that
history instead of an operator's eyeball:

* :func:`load_slo_spec` — rules from a JSON spec file.
* Two rule kinds:

  - ``threshold`` — "``stat`` of ``metric`` over ``window_s`` must be
    ``op`` ``bound``" (op is the *requirement*: ``>=`` is a floor,
    ``<=`` a ceiling), with an optional ``for_s`` hold-down so a single
    bad sample doesn't page.  ``metric`` may contain ``*`` wildcards
    (fnmatch against the rollup's dotted keys) — a ceiling takes the
    worst (max) match, a floor the worst (min) — which is how one rule
    covers ``workers.*.relay.chain_setup_us_hist`` for every worker.
    Stats: ``last``/``min``/``max``/``delta``/``rate`` for scalars,
    ``count``/``p50``/``p95``/``p99`` for histograms.
  - ``recovery`` — "pending work bounded in time": fires while
    ``start_metric``'s last value exceeds ``done_metric``'s, resolves
    when they equalize, and is flagged ``breached`` if the episode
    outlived ``bound_s``.  The drain-recovery SLO is this rule over
    ``fleet.drains_started``/``fleet.drains_completed``.

* :class:`SLOEngine` — evaluates the rules against a sampler's rollup,
  tracking ok → pending → firing per rule and emitting
  fired/resolved :class:`AlertEvent` records.  Every transition is
  recorded on the installed :class:`~repro.obs.spans.ObsRecorder`
  (category ``slo``): an instant at fire, a wall span covering the
  whole episode at resolve — tagged with the active
  :class:`~repro.obs.trace.TraceContext` (a fresh root when none is
  ambient), so alerts land in assembled causal traces next to the
  drains that caused them.
"""

from __future__ import annotations

import fnmatch
import json
from typing import Any, Callable, Dict, List, Optional

from repro.obs import spans as _spans
from repro.obs import trace as _trace

__all__ = [
    "SLO_FORMAT_TAG",
    "SLOSpecError",
    "Rule",
    "AlertEvent",
    "load_slo_spec",
    "parse_slo_spec",
    "default_slo_rules",
    "SLOEngine",
]

#: Stamped into the ``/alerts`` body and alert artifacts.
SLO_FORMAT_TAG = "repro-obs-slo-v1"

_SCALAR_STATS = ("last", "min", "max", "delta", "rate")
_HIST_STATS = ("count", "p50", "p95", "p99")
_OPS: "dict[str, Callable[[float, float], bool]]" = {
    ">=": lambda v, b: v >= b,
    "<=": lambda v, b: v <= b,
    ">": lambda v, b: v > b,
    "<": lambda v, b: v < b,
}


class SLOSpecError(ValueError):
    """A spec file that cannot be parsed into rules."""


class Rule:
    """One validated SLO rule (see the module docstring for kinds)."""

    def __init__(self, spec: "dict[str, Any]") -> None:
        if not isinstance(spec, dict):
            raise SLOSpecError(f"rule must be an object, got {type(spec).__name__}")
        self.name = spec.get("name")
        if not isinstance(self.name, str) or not self.name:
            raise SLOSpecError(f"rule needs a non-empty 'name': {spec!r}")
        self.kind = spec.get("kind", "threshold")
        if self.kind == "threshold":
            self.metric = spec.get("metric")
            if not isinstance(self.metric, str) or not self.metric:
                raise SLOSpecError(f"{self.name}: threshold needs 'metric'")
            self.stat = spec.get("stat", "last")
            if self.stat not in _SCALAR_STATS + _HIST_STATS:
                raise SLOSpecError(
                    f"{self.name}: unknown stat {self.stat!r} "
                    f"(one of {_SCALAR_STATS + _HIST_STATS})"
                )
            self.op = spec.get("op")
            if self.op not in _OPS:
                raise SLOSpecError(
                    f"{self.name}: op must be one of {sorted(_OPS)}, "
                    f"got {self.op!r}"
                )
            try:
                self.bound = float(spec["bound"])
            except (KeyError, TypeError, ValueError):
                raise SLOSpecError(f"{self.name}: threshold needs numeric 'bound'")
            self.window_s = float(spec.get("window_s", 10.0))
            self.for_s = float(spec.get("for_s", 0.0))
        elif self.kind == "recovery":
            self.start_metric = spec.get("start_metric")
            self.done_metric = spec.get("done_metric")
            if not self.start_metric or not self.done_metric:
                raise SLOSpecError(
                    f"{self.name}: recovery needs 'start_metric' and 'done_metric'"
                )
            try:
                self.bound_s = float(spec["bound_s"])
            except (KeyError, TypeError, ValueError):
                raise SLOSpecError(f"{self.name}: recovery needs numeric 'bound_s'")
            self.window_s = float(spec.get("window_s", 10.0))
        else:
            raise SLOSpecError(
                f"{self.name}: unknown kind {self.kind!r} "
                "(one of ['threshold', 'recovery'])"
            )

    def describe(self) -> "dict[str, Any]":
        if self.kind == "threshold":
            return {
                "name": self.name, "kind": self.kind, "metric": self.metric,
                "stat": self.stat, "op": self.op, "bound": self.bound,
                "window_s": self.window_s, "for_s": self.for_s,
            }
        return {
            "name": self.name, "kind": self.kind,
            "start_metric": self.start_metric, "done_metric": self.done_metric,
            "bound_s": self.bound_s,
        }


def parse_slo_spec(doc: Any) -> "list[Rule]":
    """Rules from an already-parsed spec document (``{"slos": [...]}``
    or a bare rule list)."""
    if isinstance(doc, dict):
        doc = doc.get("slos")
    if not isinstance(doc, list) or not doc:
        raise SLOSpecError(
            "spec must be a non-empty rule list (or {'slos': [...]})"
        )
    return [Rule(item) for item in doc]


def load_slo_spec(path: str) -> "list[Rule]":
    """Rules from a JSON spec file."""
    if path.endswith((".yaml", ".yml")):
        raise SLOSpecError(
            f"{path}: SLO specs are JSON — re-express the spec as JSON"
        )
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SLOSpecError(f"{path}: cannot read ({exc.strerror or exc})")
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise SLOSpecError(f"{path}: bad JSON ({exc})")
    try:
        return parse_slo_spec(doc)
    except SLOSpecError as exc:
        raise SLOSpecError(f"{path}: {exc}")


def default_slo_rules() -> "list[Rule]":
    """The built-in fleet SLOs (used when ``--slo`` is not given):
    aggregate throughput floor, per-worker p99 chain-open ceiling,
    drain-recovery bound, and a mux window-stall budget.  Bounds are
    deliberately loose — they're health tripwires, not perf targets."""
    mb = 1024 * 1024
    return parse_slo_spec([
        {
            "name": "fleet-throughput-floor",
            "kind": "threshold",
            "metric": "derived.bytes_relayed_total",
            "stat": "rate",
            "op": ">=",
            "bound": 0.25 * mb,
            "window_s": 5.0,
            "for_s": 1.0,
        },
        {
            "name": "chain-open-p99",
            "kind": "threshold",
            "metric": "workers.*.relay.chain_setup_us_hist",
            "stat": "p99",
            "op": "<=",
            "bound": 2**20,  # ~1 s in µs, at log2-bucket resolution
            "window_s": 10.0,
        },
        {
            "name": "drain-recovery",
            "kind": "recovery",
            "start_metric": "fleet.drains_started",
            "done_metric": "fleet.drains_completed",
            "bound_s": 5.0,
        },
        {
            "name": "mux-window-stall-budget",
            "kind": "threshold",
            "metric": "workers.*.relay.mux_window_stalls",
            "stat": "delta",
            "op": "<=",
            "bound": 10000,
            "window_s": 10.0,
        },
    ])


class AlertEvent:
    """One fired→resolved episode (or a still-firing alert)."""

    def __init__(self, rule: Rule, fired_t: float, value: Any) -> None:
        self.rule = rule
        self.state = "firing"
        self.fired_t = fired_t
        self.resolved_t: "Optional[float]" = None
        self.value = value
        self.breached = False
        self.trace_id: "Optional[str]" = None
        self.span_id: "Optional[str]" = None

    @property
    def duration_s(self) -> "Optional[float]":
        if self.resolved_t is None:
            return None
        return self.resolved_t - self.fired_t

    def to_dict(self) -> "dict[str, Any]":
        return {
            "rule": self.rule.name,
            "kind": self.rule.kind,
            "state": self.state,
            "fired_t": self.fired_t,
            "resolved_t": self.resolved_t,
            "duration_s": self.duration_s,
            "value": self.value,
            "breached": self.breached,
            "trace": self.trace_id,
            "span": self.span_id,
        }


def _stat_value(
    rollup: "dict[str, Any]", metric: str, stat: str
) -> "Optional[float]":
    table = rollup.get("hists" if stat in _HIST_STATS else "scalars", {})
    entry = table.get(metric)
    if entry is None:
        return None
    return entry.get(stat)


def _matching_values(
    rollup: "dict[str, Any]", pattern: str, stat: str
) -> "list[float]":
    if "*" not in pattern and "?" not in pattern:
        v = _stat_value(rollup, pattern, stat)
        return [] if v is None else [v]
    table = rollup.get("hists" if stat in _HIST_STATS else "scalars", {})
    out = []
    for key in sorted(table):
        if fnmatch.fnmatchcase(key, pattern):
            v = _stat_value(rollup, key, stat)
            if v is not None:
                out.append(v)
    return out


class SLOEngine:
    """Evaluate rules against a sampler's rollups; emit alert events.

    State per rule: **ok** (requirement holds) → **pending** (breach
    observed, ``for_s`` hold-down not yet satisfied) → **firing**
    (alert active) → ok again on resolve.  The engine is clocked by
    whoever calls :meth:`evaluate` — the aggregator's poll loop, a
    bench driver, the ``repro-obs alerts`` command — and is
    clock-domain-agnostic: pass the timestamps of the sampler you
    evaluate against.
    """

    def __init__(self, rules: "Optional[list[Rule]]" = None) -> None:
        self.rules = list(rules) if rules is not None else default_slo_rules()
        #: rule name -> state string ("ok" | "pending" | "firing").
        self.states: "dict[str, str]" = {r.name: "ok" for r in self.rules}
        self._pending_since: "dict[str, float]" = {}
        self.active: "dict[str, AlertEvent]" = {}
        self.history: "list[AlertEvent]" = []
        self.evaluations = 0
        self._last_values: "dict[str, Any]" = {}

    # -- recording --------------------------------------------------------

    def _ctx(self, rule: Rule) -> "Optional[_trace.TraceContext]":
        ambient = _trace.current()
        if ambient is not None:
            return _trace.child(ambient)
        return _trace.mint(f"slo-{rule.name}")

    def _record_fire(self, alert: AlertEvent) -> None:
        ctx = self._ctx(alert.rule)
        if ctx is not None:
            alert.trace_id = ctx.trace_id
            alert.span_id = ctx.span_id
        rec = _spans.RECORDER
        if rec is not None:
            rec.wall_instant(
                "slo", f"fired:{alert.rule.name}", track="slo",
                value=alert.value, **_trace.span_args(ctx),
            )
            alert._wall_t0 = rec.wall_ts()

    def _record_resolve(self, alert: AlertEvent) -> None:
        rec = _spans.RECORDER
        t0 = getattr(alert, "_wall_t0", None)
        if rec is not None and t0 is not None:
            args: "dict[str, Any]" = {
                "duration_s": alert.duration_s,
                "breached": alert.breached,
            }
            if alert.trace_id is not None:
                args["trace"] = alert.trace_id
                args["span"] = alert.span_id
            rec.wall_span_end(
                "slo", f"alert:{alert.rule.name}", t0, track="slo", **args
            )

    def _fire(self, rule: Rule, t: float, value: Any) -> AlertEvent:
        alert = AlertEvent(rule, t, value)
        self.states[rule.name] = "firing"
        self.active[rule.name] = alert
        self.history.append(alert)
        self._record_fire(alert)
        return alert

    def _resolve(self, rule: Rule, t: float) -> "Optional[AlertEvent]":
        alert = self.active.pop(rule.name, None)
        self.states[rule.name] = "ok"
        self._pending_since.pop(rule.name, None)
        if alert is None:
            return None
        alert.state = "resolved"
        alert.resolved_t = t
        if rule.kind == "recovery" and alert.duration_s is not None:
            alert.breached = alert.duration_s > rule.bound_s
        self._record_resolve(alert)
        return alert

    # -- evaluation -------------------------------------------------------

    def evaluate(
        self, rollup: "dict[str, Any]", t: float
    ) -> "list[AlertEvent]":
        """One evaluation pass; returns alerts that *transitioned*
        (fired or resolved) this pass.  ``rollup`` is a
        :meth:`~repro.obs.timeseries.TimeSeriesSampler.rollup` dict —
        callers pick the window by what they pass (every rule sees the
        same rollup; use :meth:`evaluate_sampler` for per-rule
        windows)."""
        self.evaluations += 1
        transitions: "list[AlertEvent]" = []
        for rule in self.rules:
            if rule.kind == "threshold":
                transitions.extend(self._eval_threshold(rule, rollup, t))
            else:
                transitions.extend(self._eval_recovery(rule, rollup, t))
        return transitions

    def evaluate_sampler(self, sampler: Any, t: float) -> "list[AlertEvent]":
        """Evaluate against a sampler, each rule over its own
        ``window_s`` (rollups cached per distinct window)."""
        self.evaluations += 1
        rollups: "dict[float, dict[str, Any]]" = {}

        def rollup_for(window_s: float) -> "dict[str, Any]":
            if window_s not in rollups:
                rollups[window_s] = sampler.rollup(window_s)
            return rollups[window_s]

        transitions: "list[AlertEvent]" = []
        for rule in self.rules:
            rollup = rollup_for(rule.window_s)
            if rule.kind == "threshold":
                transitions.extend(self._eval_threshold(rule, rollup, t))
            else:
                transitions.extend(self._eval_recovery(rule, rollup, t))
        return transitions

    def _eval_threshold(
        self, rule: Rule, rollup: "dict[str, Any]", t: float
    ) -> "list[AlertEvent]":
        values = _matching_values(rollup, rule.metric, rule.stat)
        if not values:
            # No data is not a breach: a fleet with no samples yet (or
            # a wildcard matching nothing) stays quiet rather than
            # flapping at startup.
            self._last_values[rule.name] = None
            return []
        # The worst matching series decides: for a floor (>=, >) the
        # minimum, for a ceiling (<=, <) the maximum.
        value = min(values) if rule.op in (">=", ">") else max(values)
        self._last_values[rule.name] = value
        ok = _OPS[rule.op](value, rule.bound)
        state = self.states[rule.name]
        out: "list[AlertEvent]" = []
        if ok:
            if state == "firing":
                out.append(self._resolve(rule, t))
            else:
                self.states[rule.name] = "ok"
                self._pending_since.pop(rule.name, None)
        else:
            if state == "firing":
                self.active[rule.name].value = value
            else:
                since = self._pending_since.setdefault(rule.name, t)
                if t - since >= rule.for_s:
                    out.append(self._fire(rule, t, value))
                else:
                    self.states[rule.name] = "pending"
        return [a for a in out if a is not None]

    def _eval_recovery(
        self, rule: Rule, rollup: "dict[str, Any]", t: float
    ) -> "list[AlertEvent]":
        start = _stat_value(rollup, rule.start_metric, "last")
        done = _stat_value(rollup, rule.done_metric, "last")
        if start is None or done is None:
            return []
        pending = start - done
        self._last_values[rule.name] = pending
        state = self.states[rule.name]
        out: "list[AlertEvent]" = []
        if pending > 0:
            if state != "firing":
                out.append(self._fire(rule, t, pending))
            else:
                alert = self.active[rule.name]
                alert.value = pending
                if t - alert.fired_t > rule.bound_s:
                    alert.breached = True
        elif state == "firing":
            out.append(self._resolve(rule, t))
        return [a for a in out if a is not None]

    # -- exposition -------------------------------------------------------

    def status(self) -> "dict[str, Any]":
        """The ``/alerts`` document: rule table + active + history."""
        return {
            "format": SLO_FORMAT_TAG,
            "evaluations": self.evaluations,
            "rules": [
                dict(
                    r.describe(),
                    state=self.states[r.name],
                    value=self._last_values.get(r.name),
                )
                for r in self.rules
            ],
            "active": {k: a.to_dict() for k, a in sorted(self.active.items())},
            "history": [a.to_dict() for a in self.history],
        }

    def alerts_route(self) -> "tuple[str, str]":
        """A :class:`~repro.obs.telemetry.TelemetryServer` route
        callable serving the status document."""
        return (
            "application/json",
            json.dumps(self.status(), sort_keys=True) + "\n",
        )
