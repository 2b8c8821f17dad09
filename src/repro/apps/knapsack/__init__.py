"""The paper's benchmark: parallel 0-1 knapsack branch-and-bound.

"We used a tree search problem as a benchmark ... Since a parallel
tree search problem has a coarse grained and asynchronous parallelism,
it is considered suitable for metacomputing environments." (§5)

* :mod:`~repro.apps.knapsack.instance` — problem instances, including
  the paper's no-pruning 50-item family;
* :mod:`~repro.apps.knapsack.search` — the branch operation and stack;
* :mod:`~repro.apps.knapsack.analysis` — analytic tree size / optimum
  (capacity-indexed DP) for verification;
* :mod:`~repro.apps.knapsack.sequential` — the Table 4 baseline;
* :mod:`~repro.apps.knapsack.master_slave` — the self-scheduling
  work-stealing algorithm;
* :mod:`~repro.apps.knapsack.driver` — runs on Table 3 systems and
  aggregates Tables 4/5/6.
"""

from repro.apps.knapsack.analysis import optimal_value, tree_size
from repro.apps.knapsack.driver import (
    GroupStats,
    RunResult,
    rank_groups,
    register_knapsack_executable,
    run_sequential_baseline,
    run_system,
)
from repro.apps.knapsack.instance import (
    KnapsackInstance,
    paper_instance,
    random_instance,
    scaled_instance,
)
from repro.apps.knapsack.master_slave import (
    MASTER_RANK,
    RankStats,
    SchedulingParams,
    knapsack_rank_main,
)
from repro.apps.knapsack.search import Node, SearchState, root_node
from repro.apps.knapsack.sequential import (
    DEFAULT_NODE_COST,
    SequentialResult,
    run_sequential_sim,
    solve,
)

__all__ = [
    "DEFAULT_NODE_COST",
    "GroupStats",
    "KnapsackInstance",
    "MASTER_RANK",
    "Node",
    "RankStats",
    "RunResult",
    "SchedulingParams",
    "SearchState",
    "SequentialResult",
    "knapsack_rank_main",
    "optimal_value",
    "paper_instance",
    "random_instance",
    "rank_groups",
    "register_knapsack_executable",
    "root_node",
    "run_sequential_baseline",
    "run_sequential_sim",
    "run_system",
    "scaled_instance",
    "solve",
    "tree_size",
]
