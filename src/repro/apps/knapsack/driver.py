"""Experiment driver: run the knapsack benchmark on Table 3 systems.

Produces exactly the quantities the paper's evaluation reports:

* execution time and speedup vs. the sequential RWCP-Sun baseline
  (Table 4), including the proxy / no-proxy pair for the wide-area
  cluster;
* steal counts — master total, per-site max/min/average (Table 5);
* traversed-node counts per site (Table 6).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.obs import spans as _obs

from repro.apps.knapsack.instance import KnapsackInstance
from repro.apps.knapsack.master_slave import (
    MASTER_RANK,
    RankStats,
    SchedulingParams,
    knapsack_rank_main,
)
from repro.apps.knapsack.sequential import run_sequential_sim
from repro.cluster.systems import system as table3_system
from repro.cluster.systems import build_world
from repro.cluster.testbed import Testbed
from repro.rmf.executables import ExecutableRegistry, ExecutionContext
from repro.simnet.kernel import Event
from repro.util.stats import Summary, summarize

__all__ = [
    "RunResult",
    "GroupStats",
    "rank_groups",
    "run_system",
    "run_sequential_baseline",
    "register_knapsack_executable",
]

#: Table 5/6 column groups, in paper order.
GROUP_ORDER = ("RWCP-Sun", "COMPaS", "ETL-O2K")


def rank_groups(system_name: str) -> list[str]:
    """Site/machine label of every rank, in rank order."""
    labels: list[str] = []
    for placement in table3_system(system_name).placements:
        if placement.host == "rwcp-sun":
            label = "RWCP-Sun"
        elif placement.host.startswith("compas"):
            label = "COMPaS"
        elif placement.host == "etl-o2k":
            label = "ETL-O2K"
        else:  # pragma: no cover - future systems
            label = placement.host
        labels.extend([label] * placement.nprocs)
    return labels


@dataclass(frozen=True, slots=True)
class GroupStats:
    """One site column of Tables 5/6 (slave ranks only)."""

    group: str
    steals: Summary
    nodes: Summary

    def snapshot(self) -> "dict[str, object]":
        """Plain-data view for the metrics registry."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class RunResult:
    """Everything one parallel run yields."""

    system: str
    use_proxy: bool
    nprocs: int
    #: Simulated wall-clock of the whole job (startup + search + wrap-up).
    execution_time: float
    #: Search phase only (root push to termination broadcast done).
    rank_stats: tuple[RankStats, ...]
    best_value: int
    #: Kernel events scheduled while this run drove the simulator
    #: (the ``table4`` workload's ``simnet.kernel.events``).
    events: int = 0
    #: Host-process seconds spent driving the run (not simulated time).
    wall_time: float = 0.0

    @property
    def total_nodes(self) -> int:
        return sum(s.nodes_traversed for s in self.rank_stats)

    @property
    def master_stats(self) -> RankStats:
        return self.rank_stats[MASTER_RANK]

    @property
    def total_steals(self) -> int:
        """Steal requests served by the master (Table 5 'Master')."""
        return self.master_stats.steal_requests

    def groups(self) -> list[GroupStats]:
        """Per-site slave summaries, Tables 5/6 style.

        The master rank is excluded from its group (it has its own
        column in the paper's tables).
        """
        labels = rank_groups(self.system)
        out: list[GroupStats] = []
        for group in GROUP_ORDER:
            ranks = [
                s
                for s, label in zip(self.rank_stats, labels)
                if label == group and not s.is_master
            ]
            if not ranks:
                continue
            out.append(
                GroupStats(
                    group=group,
                    steals=summarize([s.steal_requests for s in ranks]),
                    nodes=summarize([s.nodes_traversed for s in ranks]),
                )
            )
        return out

    def speedup(self, sequential_time: float) -> float:
        if self.execution_time <= 0:
            raise ValueError("run has no duration")
        return sequential_time / self.execution_time


def run_system(
    testbed: Testbed,
    system_name: str,
    instance: KnapsackInstance,
    params: Optional[SchedulingParams] = None,
    use_proxy: Optional[bool] = None,
) -> RunResult:
    """Run the knapsack job on one Table 3 system (blocking; drives the
    testbed's simulator until the job completes)."""
    if params is None:
        params = SchedulingParams()
    world = build_world(testbed, system_name, use_proxy=use_proxy)
    sim = testbed.sim
    t0 = sim.now
    events0 = sim.events_scheduled
    wall0 = time.perf_counter()
    rec = _obs.RECORDER
    if rec is not None:
        rec.start_kernel_sampler(sim)

    def driver() -> Iterator[Event]:
        return (yield from world.launch(knapsack_rank_main, instance, params))

    proc = sim.process(driver(), name=f"knapsack:{system_name}")
    results: list[RankStats] = sim.run(until=proc)
    spec = table3_system(system_name)
    resolved_proxy = spec.globus_device if use_proxy is None else use_proxy
    if rec is not None:
        rec.sim_span("run", system_name, t0, sim.now, track="driver",
                     nprocs=world.size, use_proxy=resolved_proxy,
                     events=sim.events_scheduled - events0)
        for s in results:
            rec.adopt(f"knapsack.{system_name}.rank{s.rank}", s)
    return RunResult(
        system=system_name,
        use_proxy=resolved_proxy,
        nprocs=world.size,
        execution_time=sim.now - t0,
        rank_stats=tuple(results),
        best_value=results[MASTER_RANK].global_best,
        events=sim.events_scheduled - events0,
        wall_time=time.perf_counter() - wall0,
    )


def run_sequential_baseline(
    testbed: Testbed,
    instance: KnapsackInstance,
    params: Optional[SchedulingParams] = None,
) -> float:
    """Sequential run on RWCP-Sun; returns its simulated time
    (the denominator-defining baseline of Table 4)."""
    if params is None:
        params = SchedulingParams()
    sim = testbed.sim
    t0 = sim.now
    proc = sim.process(
        run_sequential_sim(
            testbed.rwcp_sun, instance,
            node_cost=params.node_cost, prune=params.prune,
            engine=params.engine,
        ),
        name="knapsack:sequential",
    )
    sim.run(until=proc)
    return sim.now - t0


def register_knapsack_executable(
    registry: ExecutableRegistry, name: str = "knapsack"
) -> None:
    """Expose the parallel solver as an RMF executable.

    RSL usage::

        &(executable=knapsack)(count=8)(arguments=data.txt)
         (stage_in=data.txt)(stage_out=result.txt)

    The staged-in file is a serialized instance
    (:meth:`KnapsackInstance.serialize`); the job runs ``count`` ranks
    on the resource host and stages the result back out.
    """

    def knapsack_exe(ctx: ExecutionContext) -> Iterator[Event]:
        from repro.mpi.world import MPIWorld

        if not ctx.args:
            raise ValueError("knapsack needs the instance filename argument")
        instance = KnapsackInstance.parse(ctx.files.get_text(ctx.args[0]))
        params = SchedulingParams()
        world = MPIWorld(ctx.host.network)
        for _ in range(max(1, ctx.nprocs)):
            world.add_rank(ctx.host)
        results: list[RankStats] = yield from world.launch(
            knapsack_rank_main, instance, params
        )
        best = results[MASTER_RANK].global_best
        total = sum(s.nodes_traversed for s in results)
        ctx.write(f"best={best} nodes={total} procs={len(results)}\n")
        for out in ctx.spec.stage_out:
            ctx.files.put(out, f"{best} {total}\n")

    registry.register(name, knapsack_exe)
