"""Sequential 0-1 knapsack branch-and-bound.

The Table 4 baseline: "we ran the sequential version of the 0-1
knapsack problem on RWCP-Sun, and its execution time was used to
calculate the speedup."

Two entry points:

* :func:`solve` — plain Python, for host-process use (tests, tuning);
* :func:`run_sequential_sim` — the same search inside the simulator,
  charging ``node_cost`` reference-CPU seconds per branch operation on
  a given host, producing the simulated baseline time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.apps.knapsack.instance import KnapsackInstance
from repro.apps.knapsack.search import SearchState
from repro.simnet.host import Host
from repro.simnet.kernel import Event

__all__ = ["SequentialResult", "solve", "run_sequential_sim"]

#: Reference-CPU seconds per branch operation.  Calibration constant:
#: the paper's absolute per-node cost and tree size are both unknown
#: (Table 4's cells are illegible in the surviving text), but their
#: *product* relative to the proxy's ≈25 ms message latency is pinned
#: by the measured ≈3.5 % proxy overhead on the wide-area cluster.
#: 100 µs/node against our 20M-node instances reproduces that ratio
#: (see EXPERIMENTS.md, Table 4).
DEFAULT_NODE_COST = 100e-6


@dataclass(frozen=True, slots=True)
class SequentialResult:
    best_value: int
    nodes_traversed: int
    #: Simulated seconds (0 for host-process solves).
    sim_time: float = 0.0


def solve(
    instance: KnapsackInstance, prune: bool = False, engine: "str | None" = None
) -> SequentialResult:
    """Solve in the host process (real CPU, zero simulated time)."""
    state = SearchState(instance, prune=prune, engine=engine)
    state.push_root()
    state.run_to_exhaustion()
    return SequentialResult(state.best_value, state.nodes_traversed)


def run_sequential_sim(
    host: Host,
    instance: KnapsackInstance,
    node_cost: float = DEFAULT_NODE_COST,
    prune: bool = False,
    batch: int = 4096,
    engine: "str | None" = None,
) -> Iterator[Event]:
    """Generator: the sequential solver as a simulated process.

    Branch operations run in ``batch``-sized chunks, each charged to
    the host's clock — so the simulated duration is ``nodes *
    node_cost / cpu_speed``, the Table 4 baseline definition.  The
    fast engine only debits each chunk against exact subtree tables
    and settles the whole search in one lookup when the result reads
    the best value; the seed engine walks every node and produces the
    same per-chunk counts and the same result.
    """
    state = SearchState(instance, prune=prune, engine=engine)
    state.push_root()
    start = host.sim.now
    while not state.exhausted:
        ops = state.branch(batch)
        yield host.compute(ops * node_cost)
    return SequentialResult(
        state.best_value, state.nodes_traversed, host.sim.now - start
    )
