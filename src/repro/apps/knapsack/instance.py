"""0-1 knapsack problem instances.

The paper's workload (§4.4): "In order to evaluate the performance
characteristics of the cluster system clear and normalize the problem,
we used such data as no branches were pruned, meaning entire search
space is traced by processes.  The number of items was 50."

"No branches pruned" disables *bound-based* pruning; the search tree is
still limited by capacity feasibility (an include-child exists only
when the item fits), which is what keeps a 50-item run at billions —
not 2^51 — of nodes (Table 6).  We reproduce that regime exactly:

* :func:`paper_instance` — 50 items, capacity chosen (analytically,
  via :func:`repro.apps.knapsack.analysis.tree_size`) so the full tree
  is in the paper's "billions of nodes" range;
* :func:`scaled_instance` — same statistical family, capacity bisected
  to a requested tree size, so CI-speed runs exercise the identical
  code path (the scaling substitution recorded in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.rng import make_rng

__all__ = ["KnapsackInstance", "random_instance", "scaled_instance", "paper_instance"]

#: Paper's item count.
PAPER_N_ITEMS = 50


@dataclass(frozen=True)
class KnapsackInstance:
    """An immutable 0-1 knapsack problem.

    Items are sorted by profit/weight ratio (descending) at
    construction — the canonical order for branch-and-bound, and what
    makes the greedy fractional bound valid.
    """

    profits: tuple[int, ...]
    weights: tuple[int, ...]
    capacity: int
    name: str = "knapsack"

    def __post_init__(self) -> None:
        if len(self.profits) != len(self.weights):
            raise ValueError("profits and weights must have equal length")
        if not self.profits:
            raise ValueError("instance needs at least one item")
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if any(p < 0 for p in self.profits):
            raise ValueError("profits must be non-negative")
        ratios = [p / w for p, w in zip(self.profits, self.weights)]
        if any(ratios[i] < ratios[i + 1] - 1e-12 for i in range(len(ratios) - 1)):
            raise ValueError("items must be sorted by profit/weight ratio (desc)")

    @property
    def n(self) -> int:
        return len(self.profits)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    @staticmethod
    def from_items(
        profits, weights, capacity: int, name: str = "knapsack"
    ) -> "KnapsackInstance":
        """Build an instance, sorting items by ratio."""
        pairs = sorted(
            zip(profits, weights), key=lambda pw: pw[0] / pw[1], reverse=True
        )
        return KnapsackInstance(
            profits=tuple(int(p) for p, _ in pairs),
            weights=tuple(int(w) for _, w in pairs),
            capacity=int(capacity),
            name=name,
        )

    def serialize(self) -> str:
        """Text form (the master 'reads a data file', §4.3)."""
        lines = [f"{self.n} {self.capacity}"]
        lines += [f"{p} {w}" for p, w in zip(self.profits, self.weights)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str, name: str = "knapsack") -> "KnapsackInstance":
        rows = [line.split() for line in text.strip().splitlines() if line.strip()]
        if not rows or len(rows[0]) != 2:
            raise ValueError("bad instance header (want 'n capacity')")
        n, capacity = int(rows[0][0]), int(rows[0][1])
        if len(rows) - 1 != n:
            raise ValueError(f"expected {n} item rows, got {len(rows) - 1}")
        profits = [int(r[0]) for r in rows[1:]]
        weights = [int(r[1]) for r in rows[1:]]
        return KnapsackInstance.from_items(profits, weights, capacity, name=name)


def random_instance(
    n: int,
    capacity: Optional[int] = None,
    max_weight: int = 50,
    seed=None,
    name: Optional[str] = None,
) -> KnapsackInstance:
    """Uncorrelated random instance (weights/profits ~ U[1, max])."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_rng(seed)
    weights = rng.integers(1, max_weight + 1, size=n)
    profits = rng.integers(1, max_weight + 1, size=n)
    if capacity is None:
        capacity = sum(weights) // 2
    return KnapsackInstance.from_items(
        profits, weights, capacity,
        name=name or f"random-{n}",
    )


def scaled_instance(
    n: int = 32,
    target_nodes: int = 200_000,
    seed=None,
    tolerance: float = 0.5,
) -> KnapsackInstance:
    """An instance whose *full* (unpruned) tree has ≈ ``target_nodes``.

    Bisects on capacity using the analytic tree-size DP, so the
    returned instance is guaranteed (not hoped) to be in range:
    within ``(1 ± tolerance) * target_nodes``.
    """
    from repro.apps.knapsack.analysis import tree_size

    if target_nodes < n + 1:
        raise ValueError(f"target_nodes must be at least n+1 = {n + 1}")
    rng = make_rng(seed)
    weights = rng.integers(1, 51, size=n)
    profits = rng.integers(1, 51, size=n)
    lo, hi = 0, sum(weights)
    # Tree size grows monotonically with capacity: bisect.
    best_cap, best_err = 0, float("inf")
    while lo <= hi:
        mid = (lo + hi) // 2
        size = tree_size(
            KnapsackInstance.from_items(profits, weights, mid)
        )
        err = abs(size - target_nodes)
        if err < best_err:
            best_cap, best_err = mid, err
        if size < target_nodes:
            lo = mid + 1
        elif size > target_nodes:
            hi = mid - 1
        else:
            break
    inst = KnapsackInstance.from_items(
        profits, weights, best_cap, name=f"scaled-{n}-{target_nodes}"
    )
    achieved = tree_size(inst)
    if not (1 - tolerance) * target_nodes <= achieved <= (1 + tolerance) * target_nodes:
        raise ValueError(
            f"could not hit target tree size {target_nodes} "
            f"(best: {achieved} at capacity {best_cap}); try another seed"
        )
    return inst


def paper_instance(seed=None) -> KnapsackInstance:
    """The §4.4 workload: 50 items, full tree in the billions of nodes.

    Too large to *execute* in Python, but cheap to construct and
    analyse — Table 6's totals are checked against its analytic tree
    size.  ``tree_size(paper_instance())`` is a few billion, matching
    the paper's "number of nodes ... shown in billions".
    """
    return scaled_instance(
        n=PAPER_N_ITEMS, target_nodes=4_000_000_000, seed=seed, tolerance=0.9
    )
