"""SLO rules and the alert engine: spec parsing, fire/resolve state
machines, and the recorded alert spans + trace tags."""

import json

import pytest

from repro.obs import spans, trace
from repro.obs.slo import (
    Rule,
    SLOEngine,
    SLOSpecError,
    default_slo_rules,
    load_slo_spec,
    parse_slo_spec,
)
from repro.obs.timeseries import TimeSeriesSampler


@pytest.fixture(autouse=True)
def clean_obs_state():
    assert spans.RECORDER is None
    yield
    spans.uninstall()
    trace.disable()
    trace.set_current(None)


def _rollup(scalars=None, hists=None):
    return {"scalars": scalars or {}, "hists": hists or {}}


# -- spec validation ------------------------------------------------------


def test_rule_validation_errors():
    with pytest.raises(SLOSpecError):
        Rule({"name": "x", "kind": "nonsense"})
    with pytest.raises(SLOSpecError):
        Rule({"kind": "threshold", "metric": "m"})  # no name
    with pytest.raises(SLOSpecError):
        Rule({"name": "x", "kind": "threshold"})  # no metric
    with pytest.raises(SLOSpecError):
        Rule({"name": "x", "metric": "m", "stat": "p42", "op": ">=",
              "bound": 1})
    with pytest.raises(SLOSpecError):
        Rule({"name": "x", "metric": "m", "op": "~=", "bound": 1})
    with pytest.raises(SLOSpecError):
        Rule({"name": "x", "metric": "m", "op": ">=", "bound": "soon"})
    with pytest.raises(SLOSpecError):
        Rule({"name": "x", "kind": "recovery", "start_metric": "a"})
    with pytest.raises(SLOSpecError):
        parse_slo_spec([])
    with pytest.raises(SLOSpecError):
        parse_slo_spec({"not_slos": []})


def test_default_rules_parse_and_describe():
    rules = default_slo_rules()
    names = [r.name for r in rules]
    assert "fleet-throughput-floor" in names
    assert "drain-recovery" in names
    for rule in rules:
        desc = rule.describe()
        assert desc["name"] == rule.name and desc["kind"] == rule.kind


def test_load_slo_spec_json(tmp_path):
    path = tmp_path / "slo.json"
    path.write_text(json.dumps({"slos": [
        {"name": "floor", "metric": "m", "stat": "rate", "op": ">=",
         "bound": 10},
    ]}))
    rules = load_slo_spec(str(path))
    assert [r.name for r in rules] == ["floor"]
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SLOSpecError, match="bad JSON"):
        load_slo_spec(str(bad))
    with pytest.raises(SLOSpecError, match="cannot read"):
        load_slo_spec(str(tmp_path / "missing.json"))


def test_load_slo_spec_yaml_is_gated(tmp_path):
    path = tmp_path / "slo.yaml"
    path.write_text("slos:\n  - name: floor\n")
    with pytest.raises(SLOSpecError, match="SLO specs are JSON"):
        load_slo_spec(str(path))


# -- threshold rules ------------------------------------------------------


def test_threshold_fire_and_resolve_with_holddown():
    rule = Rule({"name": "floor", "metric": "mb", "stat": "last",
                 "op": ">=", "bound": 5, "for_s": 1.0})
    engine = SLOEngine([rule])
    # Breach observed but inside the hold-down: pending, no alert.
    assert engine.evaluate(_rollup({"mb": {"last": 2}}), t=0.0) == []
    assert engine.states["floor"] == "pending"
    assert engine.evaluate(_rollup({"mb": {"last": 2}}), t=0.5) == []
    # Hold-down satisfied: fires.
    fired = engine.evaluate(_rollup({"mb": {"last": 2}}), t=1.0)
    assert [a.rule.name for a in fired] == ["floor"]
    assert engine.states["floor"] == "firing"
    assert engine.active["floor"].value == 2
    # Recovery resolves and closes the episode.
    resolved = engine.evaluate(_rollup({"mb": {"last": 9}}), t=2.0)
    assert resolved[0].state == "resolved"
    assert resolved[0].duration_s == 1.0
    assert engine.states["floor"] == "ok"
    assert engine.active == {}
    assert [a.state for a in engine.history] == ["resolved"]


def test_threshold_holddown_resets_on_recovery():
    rule = Rule({"name": "floor", "metric": "mb", "stat": "last",
                 "op": ">=", "bound": 5, "for_s": 1.0})
    engine = SLOEngine([rule])
    engine.evaluate(_rollup({"mb": {"last": 2}}), t=0.0)
    # A good sample clears the pending clock; the next breach starts
    # its hold-down from scratch.
    engine.evaluate(_rollup({"mb": {"last": 9}}), t=0.5)
    assert engine.states["floor"] == "ok"
    assert engine.evaluate(_rollup({"mb": {"last": 2}}), t=1.5) == []
    assert engine.states["floor"] == "pending"


def test_threshold_no_data_stays_quiet():
    rule = Rule({"name": "p99", "metric": "workers.*.lat_hist",
                 "stat": "p99", "op": "<=", "bound": 100})
    engine = SLOEngine([rule])
    assert engine.evaluate(_rollup(), t=0.0) == []
    assert engine.states["p99"] == "ok"


def test_threshold_wildcard_takes_worst_match():
    ceiling = Rule({"name": "p99", "metric": "workers.*.lat_hist",
                    "stat": "p99", "op": "<=", "bound": 100})
    floor = Rule({"name": "rate", "metric": "workers.*.rate",
                  "stat": "last", "op": ">=", "bound": 10})
    engine = SLOEngine([ceiling, floor])
    fired = engine.evaluate(_rollup(
        scalars={
            "workers.w0.rate": {"last": 50},
            "workers.w1.rate": {"last": 3},  # worst for the floor
        },
        hists={
            "workers.w0.lat_hist": {"p99": 40},
            "workers.w1.lat_hist": {"p99": 4000},  # worst for the ceiling
        },
    ), t=0.0)
    assert {a.rule.name for a in fired} == {"p99", "rate"}
    assert engine.active["p99"].value == 4000
    assert engine.active["rate"].value == 3


# -- recovery rules -------------------------------------------------------


def test_recovery_fire_resolve_and_breach_flag():
    rule = Rule({"name": "drain", "kind": "recovery",
                 "start_metric": "started", "done_metric": "done",
                 "bound_s": 1.0})
    engine = SLOEngine([rule])

    def step(started, done, t):
        return engine.evaluate(_rollup({
            "started": {"last": started}, "done": {"last": done},
        }), t)

    assert step(0, 0, 0.0) == []
    fired = step(1, 0, 1.0)
    assert fired[0].state == "firing" and fired[0].value == 1
    # Still pending past the bound: flagged breached while firing.
    step(1, 0, 2.5)
    assert engine.active["drain"].breached
    resolved = step(1, 1, 3.0)
    assert resolved[0].state == "resolved"
    assert resolved[0].duration_s == 2.0
    assert resolved[0].breached  # episode outlived bound_s

    # A fast episode resolves unbreached.
    fired = step(2, 1, 4.0)
    resolved = step(2, 2, 4.5)
    assert resolved[0].duration_s == 0.5
    assert not resolved[0].breached


# -- recording ------------------------------------------------------------


def test_alerts_record_spans_with_trace_context():
    rec = spans.ObsRecorder()
    spans.install(rec)
    trace.enable("slotest")
    rule = Rule({"name": "floor", "metric": "mb", "stat": "last",
                 "op": ">=", "bound": 5})
    engine = SLOEngine([rule])
    engine.evaluate(_rollup({"mb": {"last": 1}}), t=0.0)
    alert = engine.history[0]
    # A fresh root context was minted for the alert.
    assert alert.trace_id and alert.trace_id.startswith("slotest")
    assert alert.span_id
    engine.evaluate(_rollup({"mb": {"last": 9}}), t=1.0)

    events = [e.to_dict() for e in rec.events if e.cat == "slo"]
    names = [e["name"] for e in events]
    assert "fired:floor" in names
    assert "alert:floor" in names
    fired = next(e for e in events if e["name"] == "fired:floor")
    assert fired["args"]["trace"] == alert.trace_id
    assert fired["args"]["value"] == 1
    span = next(e for e in events if e["name"] == "alert:floor")
    assert span["args"]["trace"] == alert.trace_id
    assert span["args"]["duration_s"] == 1.0
    # The episode is JSON-ready for /alerts.
    doc = engine.status()
    assert doc["history"][0]["trace"] == alert.trace_id
    assert doc["history"][0]["state"] == "resolved"


def test_alert_joins_ambient_trace_when_present():
    rec = spans.ObsRecorder()
    spans.install(rec)
    trace.enable("amb")
    root = trace.mint("drain")
    trace.set_current(root)
    rule = Rule({"name": "floor", "metric": "mb", "stat": "last",
                 "op": ">=", "bound": 5})
    engine = SLOEngine([rule])
    engine.evaluate(_rollup({"mb": {"last": 1}}), t=0.0)
    alert = engine.history[0]
    # Child of the ambient context: same trace, parented span.
    assert alert.trace_id == root.trace_id
    fired = next(
        e.to_dict() for e in rec.events if e.name == "fired:floor"
    )
    assert fired["args"]["parent"] == root.span_id


def test_engine_without_recorder_still_tracks_state():
    rule = Rule({"name": "floor", "metric": "mb", "stat": "last",
                 "op": ">=", "bound": 5})
    engine = SLOEngine([rule])
    engine.evaluate(_rollup({"mb": {"last": 1}}), t=0.0)
    engine.evaluate(_rollup({"mb": {"last": 9}}), t=1.0)
    assert [a.state for a in engine.history] == ["resolved"]


# -- sampler integration --------------------------------------------------


def test_evaluate_sampler_uses_per_rule_windows():
    sampler = TimeSeriesSampler(dict, interval_s=1.0, capacity=64)
    # A counter that stalled recently: rate over the long window is
    # healthy, rate over the short window is zero.
    for t in range(10):
        sampler.samples.append(
            (float(t), {"bytes": min(t, 5) * 100}, {})
        )
    short = Rule({"name": "short", "metric": "bytes", "stat": "rate",
                  "op": ">=", "bound": 1, "window_s": 2.0})
    long = Rule({"name": "long", "metric": "bytes", "stat": "rate",
                 "op": ">=", "bound": 1, "window_s": 100.0})
    engine = SLOEngine([short, long])
    fired = engine.evaluate_sampler(sampler, t=9.0)
    assert [a.rule.name for a in fired] == ["short"]
    assert engine.states == {"short": "firing", "long": "ok"}


def test_alerts_route_shape():
    engine = SLOEngine()
    ctype, body = engine.alerts_route()
    assert ctype == "application/json"
    doc = json.loads(body)
    assert doc["format"] == "repro-obs-slo-v1"
    assert {r["name"] for r in doc["rules"]} == {
        r.name for r in engine.rules
    }
