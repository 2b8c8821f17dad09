"""The §4.4 tuning methodology: "We varied a stealunit, interval, and
backunit and took the best combination."

:func:`run_tuning_sweep` evaluates a grid of
:class:`~repro.apps.knapsack.master_slave.SchedulingParams` on one
system and returns the points sorted by execution time.  Used by
``repro-bench tuning``, by the scorecard's ``abl.tuning.*`` rows (which
check the knobs actually matter — the spread between best and worst
combination is large) and by ``examples/knapsack_tuning.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.apps.knapsack.instance import KnapsackInstance
from repro.apps.knapsack.master_slave import SchedulingParams
from repro.util.tables import Table

__all__ = ["SweepPoint", "run_tuning_sweep", "render_sweep", "default_grid"]


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated parameter combination."""

    params: SchedulingParams
    execution_time: float
    total_steals: int
    back_transfers: int

    def describe(self) -> str:
        p = self.params
        return (
            f"interval={p.interval} stealunit={p.stealunit} "
            f"backunit={p.backunit} back_every={p.back_every}"
        )


def default_grid(base: SchedulingParams) -> list[SchedulingParams]:
    """The swept combinations (27 points: 3 × 3 × 3)."""
    grid = []
    for interval in (10, 25, 100):
        for stealunit in (2, 8, 32):
            for backunit in (2, 4, 8):
                grid.append(
                    dataclasses.replace(
                        base,
                        interval=interval,
                        stealunit=stealunit,
                        backunit=backunit,
                    )
                )
    return grid


def run_tuning_sweep(
    instance: KnapsackInstance,
    system_name: str = "Wide-area Cluster",
    grid: Optional[Sequence[SchedulingParams]] = None,
    base: Optional[SchedulingParams] = None,
    jobs: Optional[int] = 1,
) -> list[SweepPoint]:
    """Evaluate the grid; returns points sorted best-first.

    ``jobs > 1`` evaluates grid points in worker processes (each point
    is an independent deterministic simulation); the sort is stable
    over the deterministic grid order, so the ranking is identical to
    the serial path.
    """
    if base is None:
        base = SchedulingParams()
    if grid is None:
        grid = default_grid(base)
    from repro.bench.sweep import TuningTask, fan_out, run_tuning_task

    tasks = [TuningTask(instance, system_name, params) for params in grid]
    points = fan_out(run_tuning_task, tasks, jobs)
    points.sort(key=lambda p: p.execution_time)
    return points


def render_sweep(points: Iterable[SweepPoint], limit: int = 10) -> str:
    t = Table(
        ["rank", "interval", "stealunit", "backunit", "time (sec)",
         "steals", "backs"],
        title="Scheduling-parameter sweep (best combinations first)",
    )
    for i, p in enumerate(points):
        if i >= limit:
            break
        t.add_row(
            [
                i + 1,
                p.params.interval,
                p.params.stealunit,
                p.params.backunit,
                f"{p.execution_time:.1f}",
                p.total_steals,
                p.back_transfers,
            ]
        )
    return t.render()
