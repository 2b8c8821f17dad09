"""The sweep executor's contract: ``jobs=N`` is a pure wall-clock
knob — results, orderings and rendered tables are byte-identical to
the serial path."""

from __future__ import annotations

import os

import pytest

from repro.apps.knapsack.instance import scaled_instance
from repro.apps.knapsack.master_slave import SchedulingParams
from repro.bench.sweep import fan_out, resolve_jobs
from repro.bench.table4 import Table4Config, render_table4, run_table4
from repro.bench.table56 import render_table5, render_table6
from repro.bench.tuning import default_grid, render_sweep, run_tuning_sweep


def _square(x: int) -> int:
    return x * x


def test_resolve_jobs() -> None:
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_fan_out_preserves_task_order() -> None:
    tasks = list(range(20))
    serial = fan_out(_square, tasks, jobs=1)
    parallel = fan_out(_square, tasks, jobs=2)
    assert serial == parallel == [x * x for x in tasks]


def test_fan_out_empty_and_single() -> None:
    assert fan_out(_square, [], jobs=4) == []
    assert fan_out(_square, [3], jobs=4) == [9]


def _small_config() -> Table4Config:
    return Table4Config(n_items=24, target_nodes=60_000, seed=5)


@pytest.mark.slow
def test_table4_parallel_renders_identical_to_serial() -> None:
    """Tables 4/5/6 byte-identical between --jobs 1 and --jobs 2."""
    config = _small_config()
    serial = run_table4(config, jobs=1)
    parallel = run_table4(config, jobs=2)
    assert render_table4(serial) == render_table4(parallel)
    assert render_table5(serial) == render_table5(parallel)
    assert render_table6(serial) == render_table6(parallel)


def test_table4_engine_paths_render_identical(monkeypatch) -> None:
    """Tables 4/5/6 byte-identical between the seed path (seed kernel +
    seed branch engine) and the fast path."""
    config = _small_config()
    renders = {}
    for mode in ("seed", "fast"):
        monkeypatch.setenv("REPRO_SIM_KERNEL", mode)
        monkeypatch.setenv("REPRO_SEARCH_ENGINE", mode)
        results = run_table4(config)
        renders[mode] = (
            render_table4(results),
            render_table5(results),
            render_table6(results),
        )
    assert renders["seed"] == renders["fast"]


def test_run_result_perf_counters() -> None:
    """RunResult carries the events/wall-time the benchmark reports."""
    results = run_table4(_small_config())
    for run in results.runs.values():
        assert run.events > 0
        assert run.wall_time > 0.0


def test_bench_meta() -> None:
    from repro.bench.results import bench_meta

    meta = bench_meta(quick=True)
    for key in ("python", "platform", "machine", "cpu_count", "git_sha", "dirty"):
        assert key in meta
    assert meta["quick"] is True


@pytest.mark.slow
def test_tuning_sweep_parallel_ranking_identical() -> None:
    instance = scaled_instance(n=20, target_nodes=30_000, seed=5)
    grid = default_grid(SchedulingParams())[:3]
    serial = run_tuning_sweep(instance, grid=grid, jobs=1)
    parallel = run_tuning_sweep(instance, grid=grid, jobs=2)
    assert render_sweep(serial) == render_sweep(parallel)
    assert [p.execution_time for p in serial] == [
        p.execution_time for p in parallel
    ]


def _record_metrics(x: int) -> int:
    """Picklable worker task that emits metrics via the installed
    recorder (the pool installs a fresh one per task)."""
    from repro.obs import spans

    rec = spans.RECORDER
    assert rec is not None
    rec.registry.counter("worker.tasks").inc()
    rec.registry.counter("worker.total").inc(x)
    rec.registry.histogram("worker.values").record(x)
    return x * x


def test_fan_out_merges_worker_registries() -> None:
    """With a recorder installed, the parallel path ships each
    worker's registry snapshot home and absorbs it — so
    ``--jobs N --profile`` loses no worker-side metrics."""
    from repro.obs import spans

    tasks = [1, 2, 3, 4]
    rec = spans.install()
    try:
        results = fan_out(_record_metrics, tasks, jobs=2)
    finally:
        spans.uninstall()
    assert results == [1, 4, 9, 16]
    snap = rec.registry.snapshot()
    assert snap["worker.tasks"] == 4
    assert snap["worker.total"] == 10
    assert sum(snap["worker.values"].values()) == 4

    # The serial path records into the parent registry directly and
    # must agree with the merged parallel totals.
    rec2 = spans.install()
    try:
        fan_out(_record_metrics, tasks, jobs=1)
    finally:
        spans.uninstall()
    assert rec2.registry.snapshot()["worker.total"] == 10


def test_fan_out_without_recorder_skips_merge() -> None:
    from repro.obs import spans

    assert spans.RECORDER is None
    assert fan_out(_square, [5, 6], jobs=2) == [25, 36]
