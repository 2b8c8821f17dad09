"""The branch operation and the search stack (§4.3).

"Each node of a search tree is represented by a set of (index, value,
capacity). ... The search tree is represented by a stack onto which
nodes are pushed in a search procedure."

Externally a node is a plain tuple ``(index, value, capacity)`` — that
is what work-stealing ships between ranks and what the tests assert
on.  Internally :class:`SearchState` has two engines:

* ``engine="seed"`` — the original tuple-stack loop, kept verbatim as
  the reference implementation the tests compare ``"fast"`` against
  (whose speed the contract benchmark reports as
  ``apps.knapsack.search.nodes_per_s``);
* ``engine="fast"`` (default) — the chunked kernel.  Nodes live on the
  stack as single packed ints, ``node = (value << shift | capacity)
  << ibits | index``, so no tuples are built or torn apart at all: the
  exclude-child is literally ``node + 1`` and the include-child is one
  add of the precomputed per-item delta ``((profit << shift) - weight)
  << ibits) + 1``.  A *dead-chain skip* consumes
  subtrees in which no remaining item fits — provably a single-child
  chain of ``n - index + 1`` nodes with constant value and no net
  stack effect — in O(1) instead of one loop iteration per node (on
  the Table 4 instance family that is ~60 % of all branch operations).
  The skip is exact: node counts, stack contents at every batch
  boundary, and the best value observable at any batch boundary are
  identical to the seed engine (guarded by
  ``tests/knapsack/test_engine_equivalence.py``).

The engine default can be forced globally with
``REPRO_SEARCH_ENGINE=seed|fast``; per-run selection goes through
:attr:`~repro.apps.knapsack.master_slave.SchedulingParams.engine`.

The branch operation (verbatim from the paper):

1. pop a node from a stack
2. check the node
3. if the node has sub nodes, push them (one or two sub nodes) onto
   the stack
"""

from __future__ import annotations

import os
from typing import Optional

from repro.apps.knapsack.instance import KnapsackInstance

__all__ = ["SearchState", "Node", "root_node", "resolve_engine"]

#: A search-tree node: (index, value, capacity).
Node = tuple[int, int, int]


def root_node(instance: KnapsackInstance) -> Node:
    """index=0 (no item fixed), value=0, full capacity."""
    return (0, 0, instance.capacity)


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an engine request to ``"fast"`` or ``"seed"``.

    ``None``/``"auto"`` defer to ``REPRO_SEARCH_ENGINE`` (default
    ``"fast"``).
    """
    if engine in (None, "auto"):
        engine = os.environ.get("REPRO_SEARCH_ENGINE", "fast")
    if engine not in ("fast", "seed"):
        raise ValueError(f"unknown search engine {engine!r} (want 'fast' or 'seed')")
    return engine


class SearchState:
    """One process's stack plus its traversal counters.

    ``prune=True`` adds the greedy fractional upper bound
    (Martello–Toth U1 on ratio-sorted items); the paper's runs use
    ``prune=False`` ("no branches were pruned").
    """

    __slots__ = (
        "instance",
        "stack",
        "best_value",
        "nodes_traversed",
        "prune",
        "engine",
        "_profits",
        "_weights",
        "_n",
        "_wprefix",
        "_pprefix",
        "_shift",
        "_mask",
        "_ibits",
        "_imask",
        "_d2",
        "_wmin",
    )

    def __init__(
        self,
        instance: KnapsackInstance,
        prune: bool = False,
        engine: Optional[str] = None,
    ) -> None:
        self.instance = instance
        self.stack: list = []
        self.best_value = 0
        self.nodes_traversed = 0
        self.prune = prune
        self.engine = resolve_engine(engine)
        self._profits = list(instance.profits)
        self._weights = list(instance.weights)
        self._n = instance.n
        if prune:
            # Prefix sums for the fractional bound.
            wp = [0]
            pp = [0]
            for w, p in zip(self._weights, self._profits):
                wp.append(wp[-1] + w)
                pp.append(pp[-1] + p)
            self._wprefix = wp
            self._pprefix = pp
        else:
            self._wprefix = self._pprefix = None  # type: ignore[assignment]
        if self.engine == "fast":
            # Packed encoding: index in the low ``ibits`` bits, capacity
            # in the next ``shift`` bits (one bit of headroom so carries
            # from the value field never reach it), value above.  The
            # exclude-child of a node is then ``node + 1`` (index += 1,
            # value/capacity untouched) and the include-child is
            # ``node + _d2[item]``; feasibility is
            # ``_weights[item] <= (node >> ibits) & _mask``.
            shift = max(1, instance.capacity.bit_length() + 1)
            ibits = (self._n + 1).bit_length()
            self._shift = shift
            self._mask = (1 << shift) - 1
            self._ibits = ibits
            self._imask = (1 << ibits) - 1
            self._d2 = [
                (((p << shift) - w) << ibits) + 1
                for p, w in zip(self._profits, self._weights)
            ]
            # _wmin[i] = min weight among items i..n-1 (sentinel past the
            # end): wmin[i] > capacity  <=>  the subtree is a dead chain.
            wmin = [1 << (shift + 1)] * (self._n + 1)
            for i in range(self._n - 1, -1, -1):
                w = self._weights[i]
                wmin[i] = w if w < wmin[i + 1] else wmin[i + 1]
            self._wmin = wmin
        else:
            self._shift = self._mask = self._ibits = self._imask = 0
            self._d2 = self._wmin = None  # type: ignore[assignment]

    # -- stack management (work stealing operates here) ------------------

    def push_root(self) -> None:
        if self.engine == "fast":
            self.stack.append(self.instance.capacity << self._ibits)
        else:
            self.stack.append(root_node(self.instance))

    def push_nodes(self, nodes: "list[Node]") -> None:
        if self.engine == "fast":
            shift = self._shift
            ibits = self._ibits
            self.stack.extend(
                (((v << shift) | c) << ibits) | i for i, v, c in nodes
            )
        else:
            self.stack.extend(nodes)

    def _decode(self, packed: "list[int]") -> "list[Node]":
        shift = self._shift
        mask = self._mask
        ibits = self._ibits
        imask = self._imask
        return [
            (node & imask, node >> (ibits + shift), (node >> ibits) & mask)
            for node in packed
        ]

    def take_from_top(self, count: int) -> "list[Node]":
        """Remove up to ``count`` nodes from the *top* of the stack.

        "The master sends stealunit nodes on top of its stack."  In a
        DFS stack the top holds the most recently pushed (deepest)
        nodes — small subtrees, so stealing is fine-grained: many
        steal messages, good balance (the Table 5/6 trade-off).
        """
        if count <= 0:
            return []
        taken = self.stack[-count:]
        del self.stack[-count:]
        return self._decode(taken) if self.engine == "fast" else taken

    def take_from_bottom(self, count: int) -> "list[Node]":
        """Remove up to ``count`` nodes from the *bottom* of the stack.

        Bottom nodes are the shallowest pending siblings — the largest
        subtrees the owner won't reach for a long time.  Used for
        send-back (returning big work to the master for
        redistribution) and available as an alternative steal end for
        the grain ablation.
        """
        if count <= 0:
            return []
        taken = self.stack[:count]
        del self.stack[:count]
        return self._decode(taken) if self.engine == "fast" else taken

    @property
    def depth(self) -> int:
        return len(self.stack)

    @property
    def exhausted(self) -> bool:
        return not self.stack

    # -- the branch operation -----------------------------------------------

    def upper_bound(self, index: int, value: int, capacity: int) -> float:
        """Greedy fractional bound for the subtree at this node."""
        wp, pp = self._wprefix, self._pprefix
        assert wp is not None and pp is not None
        base_w = wp[index]
        limit = base_w + capacity
        # Largest j >= index with prefix weight <= limit: linear scan is
        # fine (items are few); bisect would also work.
        j = index
        n = self._n
        while j < n and wp[j + 1] <= limit:
            j += 1
        bound = value + (pp[j] - pp[index])
        if j < n:
            residual = limit - wp[j]
            bound += self._profits[j] * residual / self._weights[j]
        return bound

    def branch(self, max_ops: int) -> int:
        """Run up to ``max_ops`` branch operations ("the master repeats
        the branch operation *interval* times"); returns ops done.

        Stops early when the stack empties.
        """
        if self.engine == "fast":
            if self.prune:
                return self._branch_fast_pruned(max_ops)
            return self._branch_fast(max_ops)
        return self._branch_seed(max_ops)

    def _branch_seed(self, max_ops: int) -> int:
        """The original tuple-stack loop (reference implementation)."""
        stack = self.stack
        profits = self._profits
        weights = self._weights
        n = self._n
        best = self.best_value
        prune = self.prune
        ops = 0
        while stack and ops < max_ops:
            index, value, capacity = stack.pop()
            ops += 1
            if value > best:
                best = value
            if index == n:
                continue
            if prune and self.upper_bound(index, value, capacity) <= best:
                continue
            stack.append((index + 1, value, capacity))
            w = weights[index]
            if w <= capacity:
                stack.append((index + 1, value + profits[index], capacity - w))
        self.best_value = best
        self.nodes_traversed += ops
        return ops

    def _branch_fast(self, max_ops: int) -> int:
        """Chunked unpruned loop on the packed-int stack.

        The dead-chain skip: once ``min(weights[index:]) > capacity``
        nothing further fits, so every node down to the leaf has
        exactly one (exclude) child with the same value and capacity —
        ``n - index + 1`` branch operations that only decrement the
        budget.  A batch boundary falling inside the chain pushes the
        exact resume node (``node + budget`` advances only the index
        field), so batch-boundary state matches the seed loop node for
        node.

        ``best`` is tracked as the max *packed* node: packing is
        monotonic in value (the top field), so it decodes to exactly
        the seed loop's best value at every batch boundary.
        """
        stack = self.stack
        weights = self._weights
        d2 = self._d2
        wmin = self._wmin
        mask = self._mask
        ibits = self._ibits
        imask = self._imask
        np1 = self._n + 1
        best = self.best_value << (self._shift + ibits)
        pop = stack.pop
        append = stack.append
        budget = max_ops
        while budget and stack:
            node = pop()
            i = node & imask
            c = (node >> ibits) & mask
            if wmin[i] > c:
                if node > best:
                    best = node
                length = np1 - i
                if length <= budget:
                    budget -= length
                else:
                    append(node + budget)
                    budget = 0
                continue
            budget -= 1
            if node > best:
                best = node
            append(node + 1)
            if weights[i] <= c:
                append(node + d2[i])
        ops = max_ops - budget
        self.best_value = best >> (self._shift + ibits)
        self.nodes_traversed += ops
        return ops

    def _branch_fast_pruned(self, max_ops: int) -> int:
        """Pruned loop on the packed-int stack, fractional bound inlined.

        Mirrors the seed loop operation for operation (same bound
        floats, same prune decisions, same traversal) — the chain skip
        does not apply because the bound may cut a chain short.
        """
        stack = self.stack
        profits = self._profits
        weights = self._weights
        wp = self._wprefix
        pp = self._pprefix
        n = self._n
        shift = self._shift
        mask = self._mask
        ibits = self._ibits
        imask = self._imask
        d2 = self._d2
        best = self.best_value
        pop = stack.pop
        append = stack.append
        ops = 0
        while stack and ops < max_ops:
            node = pop()
            ops += 1
            i = node & imask
            vc = node >> ibits
            v = vc >> shift
            if v > best:
                best = v
            if i == n:
                continue
            c = vc & mask
            limit = wp[i] + c
            j = i
            while j < n and wp[j + 1] <= limit:
                j += 1
            bound = v + (pp[j] - pp[i])
            if j < n:
                residual = limit - wp[j]
                bound += profits[j] * residual / weights[j]
            if bound <= best:
                continue
            append(node + 1)
            if weights[i] <= c:
                append(node + d2[i])
        self.best_value = best
        self.nodes_traversed += ops
        return ops

    def branch_fused(
        self,
        interval: int,
        node_cost: float,
        batches_since_back: int,
        back_every: int,
        back_threshold: int,
    ) -> "tuple[float, int]":
        """Run consecutive ``interval``-op batches in one Python frame.

        Equivalent to ``branch(interval)`` in a loop with the slave's
        send-back check between batches, accumulating each batch's
        ``ops * node_cost`` — but without re-entering the simulator per
        batch.  Stops when the stack empties or a send-back is due
        (``batches_since_back >= back_every`` and depth above
        ``back_threshold``, checked at every batch boundary exactly as
        the per-batch slave loop does).  Returns ``(accumulated_cost,
        batches_since_back)``.
        """
        if self.engine == "fast" and not self.prune:
            return self._branch_fused_fast(
                interval, node_cost, batches_since_back, back_every, back_threshold
            )
        cost = 0.0
        while True:
            ops = self.branch(interval)
            cost += ops * node_cost
            batches_since_back += 1
            if not self.stack:
                break
            if (
                back_threshold
                and batches_since_back >= back_every
                and len(self.stack) > back_threshold
            ):
                break
        return cost, batches_since_back

    def _branch_fused_fast(
        self,
        interval: int,
        node_cost: float,
        batches_since_back: int,
        back_every: int,
        back_threshold: int,
    ) -> "tuple[float, int]":
        stack = self.stack
        weights = self._weights
        d2 = self._d2
        wmin = self._wmin
        mask = self._mask
        ibits = self._ibits
        imask = self._imask
        np1 = self._n + 1
        best = self.best_value << (self._shift + ibits)
        pop = stack.pop
        append = stack.append
        cost = 0.0
        total_ops = 0
        while True:
            budget = interval
            while budget and stack:
                node = pop()
                i = node & imask
                c = (node >> ibits) & mask
                if wmin[i] > c:
                    if node > best:
                        best = node
                    length = np1 - i
                    if length <= budget:
                        budget -= length
                    else:
                        append(node + budget)
                        budget = 0
                    continue
                budget -= 1
                if node > best:
                    best = node
                append(node + 1)
                if weights[i] <= c:
                    append(node + d2[i])
            ops = interval - budget
            total_ops += ops
            cost += ops * node_cost
            batches_since_back += 1
            if not stack:
                break
            if (
                back_threshold
                and batches_since_back >= back_every
                and len(stack) > back_threshold
            ):
                break
        self.best_value = best >> (self._shift + ibits)
        self.nodes_traversed += total_ops
        return cost, batches_since_back

    def run_to_exhaustion(self) -> None:
        """Branch until the stack empties (the sequential solver core)."""
        while self.stack:
            self.branch(1 << 30)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SearchState depth={self.depth} traversed={self.nodes_traversed} "
            f"best={self.best_value}>"
        )
