"""Parallel sweep executor: fan independent simulator runs over worker
processes.

Every Table 4/5/6 row, every tuning-sweep grid point and every
ablation configuration is an *independent, deterministic* simulation —
each builds its own :class:`~repro.cluster.testbed.Testbed` and its
own event kernel, and the problem instance is regenerated from its
seed inside the worker.  That makes the fan-out embarrassingly
parallel and, more importantly, *bit-reproducible*: a run's result
depends only on its task description, never on which worker executed
it or in what order tasks finished.

:func:`fan_out` is the primitive: ``jobs <= 1`` runs the tasks inline
in the calling process (the byte-identical serial path — no executor,
no pickling); ``jobs > 1`` uses a :class:`ProcessPoolExecutor` whose
``map`` preserves task order, so the returned list is positionally
identical to the serial one.  CPython's GIL makes thread pools useless
here (the workload is pure Python bytecode), hence processes.

Task types must be module-level and picklable; the runners below cover
the Table 4 rows and the tuning grid.  ``repro-bench --jobs N`` is the
user-facing entry point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

__all__ = [
    "Table4Task",
    "TuningTask",
    "fan_out",
    "resolve_jobs",
    "run_table4_task",
    "run_tuning_task",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/1 → serial, 0 → all cores."""
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def fan_out(
    fn: Callable[[_T], _R],
    tasks: Sequence[_T],
    jobs: Optional[int] = 1,
) -> list[_R]:
    """Run ``fn`` over ``tasks``; results in task order.

    Serial (``jobs <= 1``) executes inline — that path involves no
    serialization and is the reference the parallel path must match.
    Parallel execution assigns tasks to worker processes; because
    every task is self-contained and deterministic, the two paths
    return identical results (guarded by
    ``tests/bench/test_sweep.py``).
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    from repro.obs import spans as _obs

    parent = _obs.RECORDER
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        if parent is None:
            return list(pool.map(fn, tasks))
        # A recorder is installed (--profile / --trace): run each task
        # under a fresh worker-local recorder and ship its registry
        # snapshot home with the result, so worker-side metrics are not
        # lost to the process boundary.  Absorbing in task order keeps
        # the merged registry deterministic.
        pairs = list(pool.map(_run_with_registry, [(fn, t) for t in tasks]))
    results = [result for result, _ in pairs]
    for _, snap in pairs:
        parent.registry.absorb(snap)
    return results


def _run_with_registry(item: "tuple[Callable, object]") -> "tuple[object, dict]":
    """Worker shim: run one task under a fresh recorder, return the
    result plus the registry snapshot it accumulated.

    The fresh recorder matters twice over: a fork-inherited parent
    recorder would double-count the parent's pre-fork metrics, and
    pool workers are reused across tasks, so per-task installation is
    the only way snapshots stay disjoint.
    """
    from repro.obs import spans as _obs

    fn, task = item
    rec = _obs.ObsRecorder()
    prev = _obs.RECORDER
    _obs.RECORDER = rec
    try:
        result = fn(task)
    finally:
        _obs.RECORDER = prev
    return result, rec.registry.snapshot()


# -- picklable task runners ---------------------------------------------------


@dataclass(frozen=True)
class Table4Task:
    """One Table 4 row (or the sequential baseline, ``system_name=None``)."""

    config: "object"  # Table4Config; untyped to avoid an import cycle
    label: str
    system_name: Optional[str]
    use_proxy: Optional[bool]


def run_table4_task(task: Table4Task) -> "tuple[str, object]":
    """Worker: run one Table 4 configuration, return ``(label, result)``.

    The sequential baseline returns its simulated time (a float); the
    parallel rows return a
    :class:`~repro.apps.knapsack.driver.RunResult`.  The instance is
    regenerated from the config's seed inside the worker, so nothing
    but the small task tuple crosses the process boundary.
    """
    from repro.apps.knapsack.driver import run_sequential_baseline, run_system
    from repro.cluster.testbed import Testbed

    config = task.config
    instance = config.instance()
    if task.system_name is None:
        return task.label, run_sequential_baseline(
            Testbed(), instance, config.params
        )
    return task.label, run_system(
        Testbed(),
        task.system_name,
        instance,
        config.params,
        use_proxy=task.use_proxy,
    )


@dataclass(frozen=True)
class TuningTask:
    """One tuning-sweep grid point."""

    instance: "object"  # KnapsackInstance
    system_name: str
    params: "object"  # SchedulingParams


def run_tuning_task(task: TuningTask) -> "object":
    """Worker: evaluate one parameter combination, return a SweepPoint."""
    from repro.apps.knapsack.driver import run_system
    from repro.bench.tuning import SweepPoint
    from repro.cluster.testbed import Testbed

    run = run_system(Testbed(), task.system_name, task.instance, task.params)
    return SweepPoint(
        params=task.params,
        execution_time=run.execution_time,
        total_steals=run.total_steals,
        back_transfers=sum(s.back_transfers for s in run.rank_stats),
    )
