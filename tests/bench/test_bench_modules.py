"""Harness-module tests (fast, reduced-scale configurations)."""

import pytest

from repro.apps.knapsack import SchedulingParams, scaled_instance
from repro.bench.calibrate import table2_chain_models
from repro.bench.table2 import PAPER_TABLE2, Table2Row, render_table2
from repro.bench.table4 import ROW_ORDER, Table4Config, render_table4, run_table4
from repro.bench.table56 import render_table5, render_table6
from repro.bench.tuning import render_sweep, run_tuning_sweep


@pytest.fixture(scope="module")
def small_results():
    """A miniature Table 4 run set (fast; shapes still hold)."""
    config = Table4Config(
        n_items=36,
        target_nodes=1_000_000,
        seed=5,
        params=SchedulingParams(node_cost=20e-6),
    )
    return run_table4(config)


def test_run_table4_structure(small_results):
    assert set(small_results.runs) == set(ROW_ORDER)
    assert small_results.sequential_time > 0
    for label in ROW_ORDER:
        assert small_results.speedup(label) > 1.0


def test_table4_proxy_overhead_defined(small_results):
    # At the small scale the overhead is noisy but must be a number
    # in a sane band.
    assert -0.5 < small_results.proxy_overhead < 1.0


def test_render_table4_contains_all_rows(small_results):
    out = render_table4(small_results)
    assert "RWCP-Sun (sequential)" in out
    for label in ROW_ORDER:
        assert label in out
    assert "overhead" in out


def test_render_table5_and_6(small_results):
    t5 = render_table5(small_results)
    t6 = render_table6(small_results)
    assert "Number of steals" in t5
    assert "traversed nodes" in t6
    for out in (t5, t6):
        assert "Local-area Cluster" in out
        assert "Wide-area Cluster" in out
        assert "ETL-O2K Max" in out


def test_chain_models_have_all_rows():
    models = table2_chain_models()
    assert set(models) == set(PAPER_TABLE2)
    lan_d = models["RWCP-Sun <-> COMPaS (direct)"]
    lan_i = models["RWCP-Sun <-> COMPaS (indirect)"]
    assert lan_d.relay_count == 0
    assert lan_i.relay_count == 2
    # The indirect chain predicts ~25 ms small-message latency.
    assert lan_i.ping_pong_latency() == pytest.approx(25e-3, rel=0.15)
    assert lan_d.ping_pong_latency() == pytest.approx(0.41e-3, rel=0.3)


def test_chain_model_wan_rows():
    models = table2_chain_models()
    wan_d = models["RWCP-Sun <-> ETL-Sun (direct)"]
    wan_i = models["RWCP-Sun <-> ETL-Sun (indirect)"]
    assert wan_d.ping_pong_latency() == pytest.approx(3.9e-3, rel=0.15)
    # Large-message bandwidth converges to the WAN for both.
    assert wan_i.bandwidth(1 << 20) == pytest.approx(
        wan_d.bandwidth(1 << 20), rel=0.05
    )


def test_render_table2_marks_illegible_cells():
    rows = [
        Table2Row("RWCP-Sun <-> ETL-Sun (indirect)", 25e-3, 70e3, 150e3),
    ]
    out = render_table2(rows)
    assert "(illegible)" in out


def test_tuning_sweep_small_grid():
    inst = scaled_instance(n=30, target_nodes=150_000, seed=7)
    base = SchedulingParams(node_cost=5e-6)
    import dataclasses

    grid = [
        dataclasses.replace(base, interval=i) for i in (10, 100)
    ]
    points = run_tuning_sweep(inst, system_name="COMPaS", grid=grid)
    assert len(points) == 2
    assert points[0].execution_time <= points[1].execution_time
    out = render_sweep(points)
    assert "interval" in out


def test_cli_smoke(capsys):
    from repro.bench.cli import main

    rc = main(["table3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Wide-area Cluster" in out
    assert "vendor provided mpi" in out


@pytest.mark.parametrize("argv", [
    ["tuning", "--points", "0"],
    ["tuning", "--points", "-1"],
    ["tuning", "--points", "99"],
    ["table4", "--jobs", "-2"],
    ["table4", "--target-nodes", "0"],
])
def test_cli_rejects_out_of_range_values(argv, capsys):
    from repro.bench.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_cli_score_renders_rows(monkeypatch, capsys):
    from repro.bench import score
    from repro.bench.cli import main

    table3 = [c for c in score.CLAIMS if c.source == "Table 3"]
    monkeypatch.setattr(score, "CLAIMS", table3)
    assert main(["score"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| Key | Source |")
    assert "| `t3.wide-area.procs` | Table 3 | Wide-area Cluster processors |" in out


def test_cli_trace_writes_valid_artifacts(tmp_path, capsys):
    import json

    from repro.bench.cli import main
    from repro.obs import spans
    from repro.obs.export import validate_chrome_trace

    base = tmp_path / "smoke"
    rc = main([
        "table4", "--target-nodes", "50000",
        "--trace", str(base), "--jobs", "4",
    ])
    assert rc == 0
    assert spans.RECORDER is None  # CLI uninstalls on exit
    err = capsys.readouterr().err
    assert "forces --jobs 1" in err  # --trace cannot fan out
    trace = json.loads((tmp_path / "smoke.trace.json").read_text())
    assert validate_chrome_trace(trace) == []
    assert trace["otherData"]["target_nodes"] == 50000
    cats = {ev["cat"] for ev in trace["traceEvents"] if ev["ph"] != "M"}
    assert {"kernel", "relay", "steal", "run", "bench"} <= cats
    summ = json.loads((tmp_path / "smoke.summary.json").read_text())
    assert summ["total_events"] == sum(
        1 for ev in trace["traceEvents"] if ev["ph"] != "M"
    )
    # The registry routed the profile-style phase gauges.
    assert summ["registry"]["profile.table456_wall_s"] > 0
    assert summ["registry"]["profile.table456_kernel_events"] > 0


def test_cli_profile_writes_registry_snapshot(tmp_path, capsys):
    import json

    from repro.bench.cli import main
    from repro.obs import spans

    pstats_path = tmp_path / "prof.pstats"
    rc = main([
        "tuning", "--points", "2", "--profile", str(pstats_path),
    ])
    assert rc == 0
    assert spans.RECORDER is None
    assert pstats_path.exists()
    obs = json.loads((tmp_path / "prof.pstats.obs.json").read_text())
    assert obs["format"] == "repro-obs-registry-v1"
    assert obs["registry"]["profile.tuning_wall_s"] > 0


def test_cli_causal_trace_assembles_closed_tree(tmp_path):
    import json

    from repro.bench.cli import main
    from repro.obs import trace
    from repro.obs.assemble import assemble

    base = tmp_path / "causal"
    rc = main([
        "table4", "--target-nodes", "50000",
        "--trace", str(base), "--causal", "sim",
    ])
    assert rc == 0
    assert trace.ENABLED is False  # CLI disables on exit
    obj = json.loads((tmp_path / "causal.trace.json").read_text())
    tagged = [
        ev for ev in obj["traceEvents"]
        if isinstance(ev.get("args"), dict) and "trace" in ev["args"]
    ]
    assert tagged, "causal run produced no tagged spans"
    assert any(ev["args"]["trace"].startswith("sim") for ev in tagged)
    # The tree closes: every hop's parent was anchored by some span.
    merged = assemble([("bench", obj)])
    info = merged["otherData"]["assembled"]
    assert info["unresolved_parents"] == 0
    assert info["flows"] > 0


def test_cli_without_causal_has_no_trace_args(tmp_path):
    import json

    from repro.bench.cli import main

    base = tmp_path / "plain"
    rc = main([
        "table4", "--target-nodes", "50000", "--trace", str(base),
    ])
    assert rc == 0
    text = (tmp_path / "plain.trace.json").read_text()
    assert '"trace"' not in text  # byte-stability: no trace args leak
