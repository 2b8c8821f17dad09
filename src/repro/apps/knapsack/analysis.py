"""Analytic properties of knapsack search trees (capacity-indexed DP).

Two closed-form quantities let the test suite verify the search code
without trusting it:

* :func:`tree_size` — exact node count of the *unpruned* search tree
  (what Table 6 counts), by dynamic programming over (depth, capacity):

  .. math::  T_i(c) = 1 + T_{i+1}(c) + [w_i \\le c]\\,T_{i+1}(c - w_i),
             \\qquad T_n(c) = 1

* :func:`optimal_value` — the optimum by the classic DP over
  capacities, independent of any branch-and-bound.

Both build one list of Python ints per item (one comprehension over
the capacity axis), which keeps even the 50-item, multi-billion-node
paper instance analysable in milliseconds; Python ints cannot
overflow, however large the tree.
"""

from __future__ import annotations

from repro.apps.knapsack.instance import KnapsackInstance

__all__ = ["tree_size", "optimal_value"]


def tree_size(instance: KnapsackInstance) -> int:
    """Exact number of nodes in the unpruned search tree."""
    # t[c] = subtree size at the current depth for remaining capacity c.
    t = [1] * (instance.capacity + 1)
    for w in reversed(instance.weights):
        t = [1 + x for x in t[:w]] + [1 + x + y for x, y in zip(t[w:], t)]
    return t[-1]


def optimal_value(instance: KnapsackInstance) -> int:
    """The optimal objective value (capacity-indexed DP)."""
    best = [0] * (instance.capacity + 1)
    for p, w in zip(instance.profits, instance.weights):
        best = best[:w] + [max(x, y + p) for x, y in zip(best[w:], best)]
    return best[-1]
