"""Recorder event model, the Chrome/summary exporters, and the
``repro-obs`` CLI."""

import json

import pytest

from repro.obs import spans
from repro.obs.cli import main as obs_main
from repro.obs.export import (
    CHROME_FORMAT_TAG,
    diff_summaries,
    dumps,
    summarize,
    to_chrome,
    validate_chrome_trace,
    write_artifacts,
)
from repro.obs.spans import NullRecorder, ObsRecorder


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def small_recorder() -> ObsRecorder:
    rec = ObsRecorder(wall_clock=fake_clock([0.0, 1.0, 3.5]))
    rec.sim_span("steal", "idle_wait", 1.0, 2.5, track="rank:3", terminated=False)
    rec.sim_instant("rmf.job", "active", 0.5, track="job:1")
    rec.sim_counter("kernel", "events_scheduled", 2.0, {"events": 10}, track="kernel")
    rec.wall_span_end("relay", "active_chain", rec.wall_ts(), track="outer:gw")
    rec.count("chains", 2)
    rec.count_pair("mpi.bytes", "0->1", 64)
    return rec


def test_two_clock_domains_two_pids():
    chrome = to_chrome(small_recorder())
    pids = {ev["pid"] for ev in chrome["traceEvents"] if ev["ph"] != "M"}
    assert pids == {1, 2}  # sim and wall never share a pid
    assert chrome["otherData"]["format"] == CHROME_FORMAT_TAG
    assert chrome["otherData"]["registry"]["chains"] == 2


def test_span_event_shapes():
    chrome = to_chrome(small_recorder())
    by_name = {ev["name"]: ev for ev in chrome["traceEvents"] if ev["ph"] != "M"}
    span = by_name["idle_wait"]
    assert span["ph"] == "X"
    assert span["ts"] == 1_000_000.0 and span["dur"] == 1_500_000.0
    assert span["args"] == {"terminated": False}
    instant = by_name["active"]
    assert instant["ph"] == "i" and instant["s"] == "t"
    counter = by_name["events_scheduled"]
    assert counter["ph"] == "C" and counter["args"] == {"events": 10}
    wall = by_name["active_chain"]
    assert wall["pid"] == 2 and wall["ts"] == 1_000_000.0


def test_tracks_become_named_threads():
    chrome = to_chrome(small_recorder())
    thread_meta = {
        (ev["pid"], ev["tid"]): ev["args"]["name"]
        for ev in chrome["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "thread_name"
    }
    assert "rank:3" in thread_meta.values()
    assert "outer:gw" in thread_meta.values()
    # tids are interned per pid in first-appearance order, starting at 1.
    sim_tids = sorted(tid for (pid, tid) in thread_meta if pid == 1)
    assert sim_tids == list(range(1, len(sim_tids) + 1))


def test_exported_trace_validates():
    chrome = to_chrome(small_recorder())
    assert validate_chrome_trace(chrome) == []


def test_validator_rejects_malformed():
    assert validate_chrome_trace([]) == ["top level: expected object"]
    errors = validate_chrome_trace(
        {"traceEvents": [{"ph": "Q"}], "otherData": {"format": "nope"}}
    )
    assert any("otherData.format" in e for e in errors)
    assert any(".ph" in e for e in errors)
    # A span without dur is flagged.
    chrome = to_chrome(small_recorder())
    for ev in chrome["traceEvents"]:
        if ev["ph"] == "X":
            del ev["dur"]
    assert any(".dur" in e for e in validate_chrome_trace(chrome))


def test_summary_aggregates_and_diff():
    rec = small_recorder()
    summ = summarize(to_chrome(rec))
    assert summ["total_events"] == 4
    steal = summ["categories"]["sim:steal"]
    assert steal["spans"] == 1 and steal["span_total_s"] == 1.5
    assert summ["categories"]["wall:relay"]["spans"] == 1
    assert diff_summaries(summ, summ)["changed"] == {}
    rec.count("chains", 1)
    diff = diff_summaries(summ, summarize(to_chrome(rec)))
    assert diff["changed"]["registry.chains"]["delta"] == 1


def test_dumps_is_byte_deterministic():
    assert dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
    a, b = small_recorder(), small_recorder()
    assert dumps(to_chrome(a)) == dumps(to_chrome(b))


def test_write_artifacts_round_trip(tmp_path):
    rec = small_recorder()
    trace_path, summary_path = write_artifacts(rec, str(tmp_path / "run"))
    chrome = json.loads(open(trace_path).read())
    assert validate_chrome_trace(chrome) == []
    summ = json.loads(open(summary_path).read())
    assert summ["format"] == "repro-obs-summary-v1"
    assert summ["total_events"] == len(rec)


def test_install_observe_uninstall():
    assert spans.RECORDER is None
    with spans.observe() as rec:
        assert spans.RECORDER is rec
        rec.sim_instant("t", "t", 0.0)
    assert spans.RECORDER is None
    assert len(rec) == 1


def test_null_recorder_retains_nothing():
    rec = NullRecorder()
    rec.sim_span("a", "b", 0.0, 1.0)
    rec.sim_instant("a", "b", 0.0)
    rec.sim_counter("a", "b", 0.0, {"x": 1})
    rec.wall_instant("a", "b")
    with rec.wall_span("a", "b"):
        pass
    rec.count("c")
    rec.count_pair("f", "k")
    rec.adopt("p", object())
    rec.start_kernel_sampler(object())
    assert len(rec) == 0
    assert len(rec.registry) == 0


# -- CLI ----------------------------------------------------------------------


@pytest.fixture
def artifacts(tmp_path):
    return write_artifacts(small_recorder(), str(tmp_path / "run"))


def test_cli_validate_ok(artifacts, capsys):
    trace_path, _ = artifacts
    assert obs_main(["validate", trace_path]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": "nope"}')
    assert obs_main(["validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_cli_summarize_both_artifact_kinds(artifacts, capsys):
    trace_path, summary_path = artifacts
    assert obs_main(["summarize", trace_path]) == 0
    out_trace = capsys.readouterr().out
    assert obs_main(["summarize", summary_path]) == 0
    out_summary = capsys.readouterr().out
    assert "sim:steal" in out_trace and "sim:steal" in out_summary
    assert "4 events" in out_trace


def test_cli_diff_exit_codes(artifacts, tmp_path, capsys):
    _, summary_path = artifacts
    assert obs_main(["diff", summary_path, summary_path]) == 0
    rec = small_recorder()
    rec.sim_instant("extra", "extra", 9.0)
    _, other = write_artifacts(rec, str(tmp_path / "other"))
    assert obs_main(["diff", summary_path, other]) == 1
    assert "sim:extra" in capsys.readouterr().out
