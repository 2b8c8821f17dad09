"""The branch operation and the search stack (§4.3).

"Each node of a search tree is represented by a set of (index, value,
capacity). ... The search tree is represented by a stack onto which
nodes are pushed in a search procedure."

Externally a node is a plain tuple ``(index, value, capacity)`` — that
is what work-stealing ships between ranks and what the tests assert
on.  Internally :class:`SearchState` has two engines:

* ``engine="seed"`` — the original tuple-stack loop, kept verbatim as
  the reference implementation the tests compare ``"fast"`` against;
  it walks every node;
* ``engine="fast"`` (default) — the table-driven kernel.  Nodes live
  on the stack as single packed ints, ``node = (value << shift |
  capacity) << ibits | index``, so the exclude-child is ``node + 1``
  and the include-child one add of a per-item delta.  Three exact
  tables keyed by a node's low bits ``capacity << ibits | index`` —
  built once per instance (:func:`_subtree_tables`) — give, for the
  subtree below any node, its size, its best gain and the most stack
  entries it ever holds.  On a LIFO stack, popping a node and running
  until the stack drops below its slot explores exactly its subtree,
  so the kernel *consumes* every subtree that no observable batch
  boundary falls inside in one lookup, and expands node by node only
  along the path to a boundary.

  Unpruned, :meth:`SearchState.branch` does not walk at all: it
  debits ``min(max_ops, _left)`` from ``_left`` (the stacked nodes no
  batch has been charged for) onto ``_owed`` (charged, not yet
  walked), keeping ``_left + _owed == Σ size`` over the stack.  Every
  reader or writer of the stack or best value first *settles*: one
  walk of all ``_owed`` operations, exact because unpruned DFS reaches
  the same stack and best value after k operations however the k are
  split into batches.  So the master's per-batch loop walks its stack
  only when a message or a parked slave reads it.  Node counts, the
  stack wherever it is read, the best value and the per-batch compute
  charges are identical to the seed engine (guarded by
  ``tests/knapsack/test_engine_equivalence.py``); the pruned path
  walks every node on the packed stack.  Running it to exhaustion is
  one lookup at the root, so the contract benchmark's
  ``apps.knapsack.search.nodes_per_s`` times a lookup, not a walk.

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

import functools
import os
from typing import Optional

from repro.apps.knapsack.instance import KnapsackInstance

__all__ = ["SearchState", "Node", "root_node", "resolve_engine"]

#: A search-tree node: (index, value, capacity).
Node = tuple[int, int, int]


def root_node(instance: KnapsackInstance) -> Node:
    """index=0 (no item fixed), value=0, full capacity."""
    return (0, 0, instance.capacity)


def _layout(instance: KnapsackInstance) -> "tuple[int, int]":
    """``(shift, ibits)`` of the packed encoding: index in the low
    ``ibits`` bits, capacity in the next ``shift`` bits (one bit of
    headroom so carries from the value field never reach it), value
    above."""
    return instance.capacity.bit_length() + 1, (instance.n + 1).bit_length()


@functools.lru_cache(maxsize=8)
def _subtree_tables(instance: KnapsackInstance) -> "tuple[tuple, tuple, tuple]":
    """``(size, gain, pend)`` of the unpruned subtree below every node,
    indexed by the node's low bits ``capacity << ibits | index``.

    With T/G/P at index n all 1/0/0 and ``fit = w_i <= c``:

    * ``size`` T_i(c) = 1 + T_{i+1}(c) + [fit] T_{i+1}(c - w_i), the
      subtree's branch operations;
    * ``gain`` G_i(c) = max(G_{i+1}(c), [fit] (p_i + G_{i+1}(c - w_i))),
      pre-shifted to the value field so ``node + gain[k]`` is the best
      packed node in the subtree;
    * ``pend`` P_i(c) = max(2, 1 + P_{i+1}(c - w_i), P_{i+1}(c)) if fit,
      else max(1, P_{i+1}(c)): the most stack entries the subtree
      holds after any of its operations.

    Every rank of a run shares one (immutable) copy; index slots past
    n stay 0.
    """
    shift, ibits = _layout(instance)
    vshift = shift + ibits
    n = instance.n
    length = (instance.capacity + 1) << ibits
    size, gain, pend = [0] * length, [0] * length, [0] * length
    for k in range(n, length, 1 << ibits):
        size[k] = 1
    for i in range(n - 1, -1, -1):
        w, p = instance.weights[i], instance.profits[i] << vshift
        for c in range(instance.capacity + 1):
            k = c << ibits | i
            e = k + 1
            if w <= c:
                t = e - (w << ibits)
                size[k] = 1 + size[e] + size[t]
                gain[k] = max(gain[e], p + gain[t])
                pend[k] = max(2, 1 + pend[t], pend[e])
            else:
                size[k] = 1 + size[e]
                gain[k] = gain[e]
                pend[k] = max(1, pend[e])
    return tuple(size), tuple(gain), tuple(pend)


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
        "_size",
        "_gain",
        "_pend",
        "_stack",
        "_best",
        "_left",
        "_owed",
    )

    def __init__(
        self,
        instance: KnapsackInstance,
        prune: bool = False,
        engine: Optional[str] = None,
    ) -> None:
        self.instance = instance
        self._stack: list = []
        self._best = 0
        self._left = 0
        self._owed = 0
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
            # The exclude-child of a node is ``node + 1`` (index += 1,
            # value/capacity untouched) and the include-child is
            # ``node + _d2[item]``; feasibility is
            # ``_weights[item] <= (node >> ibits) & _mask``.
            shift, ibits = _layout(instance)
            self._shift = shift
            self._mask = (1 << shift) - 1
            self._ibits = ibits
            self._imask = (1 << ibits) - 1
            self._d2 = [
                (((p << shift) - w) << ibits) + 1
                for p, w in zip(self._profits, self._weights)
            ]
        else:
            self._shift = self._mask = self._ibits = self._imask = 0
            self._d2 = None  # type: ignore[assignment]
        if self.engine == "fast" and not prune:
            self._size, self._gain, self._pend = _subtree_tables(instance)
        else:
            self._size = self._gain = self._pend = None  # type: ignore[assignment]

    # -- stack management (work stealing operates here) ------------------

    def _settle(self) -> None:
        """Walk the operations :meth:`branch` charged but deferred.

        Unpruned DFS on a LIFO stack reaches the same stack and best
        value after k operations however the k are split into batches,
        so one walk of all of them is exact.
        """
        if self._owed:
            owed, self._owed = self._owed, 0
            self._run(owed, 0.0, 0, 1, -1)

    @property
    def stack(self) -> list:
        """The pending nodes (packed ints on the fast engine), with
        every charged operation walked."""
        self._settle()
        return self._stack

    @property
    def best_value(self) -> int:
        self._settle()
        return self._best

    @best_value.setter
    def best_value(self, value: int) -> None:
        self._settle()
        self._best = value

    def push_root(self) -> None:
        self.push_nodes([root_node(self.instance)])

    def push_nodes(self, nodes: "list[Node]") -> None:
        """Push ``(index, value, capacity)`` nodes (stolen or sent
        back); a node outside the instance's tree is a ``ValueError``."""
        n, cap = self._n, self.instance.capacity
        for node in nodes:
            i, v, c = node
            if not (0 <= i <= n and v >= 0 and 0 <= c <= cap):
                raise ValueError(
                    f"node {node!r} is outside the search tree "
                    f"(index 0..{n}, value >= 0, capacity 0..{cap})"
                )
        self._settle()
        if self.engine == "fast":
            shift = self._shift
            ibits = self._ibits
            if self._size is not None:
                size = self._size
                self._left += sum(size[c << ibits | i] for i, _, c in nodes)
            self._stack.extend(
                (((v << shift) | c) << ibits) | i for i, v, c in nodes
            )
        else:
            self._stack.extend(nodes)

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
        stack = self.stack
        taken = stack[-count:]
        del stack[-count:]
        return self._taken(taken)

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
        stack = self.stack
        taken = stack[:count]
        del stack[:count]
        return self._taken(taken)

    def _taken(self, taken: list) -> "list[Node]":
        """Debit nodes removed from the stack; return them as tuples."""
        if self.engine != "fast":
            return taken
        if self._size is not None:
            size = self._size
            low = (1 << (self._shift + self._ibits)) - 1
            self._left -= sum(size[node & low] for node in taken)
        return self._decode(taken)

    @property
    def depth(self) -> int:
        return len(self.stack)

    @property
    def exhausted(self) -> bool:
        if self._size is not None:
            return not self._left
        return not self._stack

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

        Stops early when the stack empties.  The unpruned fast engine
        only debits the operations against the subtree tables here and
        walks them when something next reads or changes the stack.
        """
        if self._size is not None:
            ops = max_ops if max_ops < self._left else self._left
            if ops <= 0:
                return 0
            self._left -= ops
            self._owed += ops
            self.nodes_traversed += ops
            return ops
        if self.engine == "fast":
            return self._branch_fast_pruned(max_ops)
        return self._branch_seed(max_ops)

    def _branch_seed(self, max_ops: int) -> int:
        """The original tuple-stack loop (reference implementation)."""
        stack = self._stack
        profits = self._profits
        weights = self._weights
        n = self._n
        best = self._best
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
        self._best = best
        self.nodes_traversed += ops
        return ops

    def _branch_fast_pruned(self, max_ops: int) -> int:
        """Pruned loop on the packed-int stack, fractional bound inlined.

        Mirrors the seed loop operation for operation (same bound
        floats, same prune decisions, same traversal) — the subtree
        tables do not apply because the bound may cut a subtree short.
        """
        stack = self._stack
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
        best = self._best
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
        self._best = best
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
        if self._size is not None:
            self._settle()
            ops, cost, batches = self._run(
                interval, node_cost, batches_since_back, back_every, back_threshold
            )
            self._left -= ops
            self.nodes_traversed += ops
            return cost, batches
        cost = 0.0
        while True:
            ops = self.branch(interval)
            cost += ops * node_cost
            batches_since_back += 1
            if not self._stack:
                break
            if (
                back_threshold
                and batches_since_back >= back_every
                and len(self._stack) > back_threshold
            ):
                break
        return cost, batches_since_back

    def _run(
        self,
        interval: int,
        node_cost: float,
        batches: int,
        back_every: int,
        back_threshold: int,
    ) -> "tuple[int, float, int]":
        """The unpruned kernel: :meth:`branch_fused`'s batches, returning
        ``(ops, cost, batches)``.

        ``budget`` counts the operations left in the current batch and
        ``window`` those left before the first boundary whose send-back
        check can fire (every boundary once ``batches >= back_every``;
        none when ``back_threshold`` is 0).  A popped subtree is
        consumed whole when it ends inside the window, or when its
        ``pend`` on top of the stack below it stays within
        ``back_threshold`` — then no check inside it can fire either.
        The boundaries it crosses each add ``interval * node_cost``,
        in order, so ``cost`` is bit-identical to the batch loop's.
        Otherwise the node is expanded as one branch operation.
        Settling :meth:`branch`'s debit is the one-batch case whose
        boundary always stops (``back_every=1``, ``back_threshold=-1``).
        The caller accounts the ops (``_left``, ``nodes_traversed``).

        ``best`` is tracked as the max *packed* node: packing is
        monotonic in value (the top field), so it decodes to exactly
        the seed loop's best value.
        """
        stack = self._stack
        size, gain, pend = self._size, self._gain, self._pend
        weights = self._weights
        d2 = self._d2
        ibits = self._ibits
        imask = self._imask
        vshift = self._shift + ibits
        low = (1 << vshift) - 1
        best = self._best << vshift
        pop = stack.pop
        append = stack.append
        step = interval * node_cost
        cost = 0.0
        first = batches
        budget = interval
        window = float("inf")
        if back_threshold:
            window = interval * max(1, back_every - batches)
        while stack:
            node = pop()
            k = node & low
            t = size[k]
            while t > window and len(stack) + pend[k] > back_threshold:
                # One branch operation, then on down into the child the
                # seed loop would pop next, without the push/pop.
                window -= 1
                budget -= 1
                if node > best:
                    best = node
                i = k & imask
                if weights[i] <= k >> ibits:
                    append(node + 1)
                    node += d2[i]
                else:
                    node += 1
                if not budget:
                    append(node)
                    break
                k = node & low
                t = size[k]
            else:
                g = node + gain[k]
                if g > best:
                    best = g
                window -= t
                budget -= t
                if budget > 0:
                    continue
                while budget < 0:  # a boundary inside the subtree
                    cost += step
                    batches += 1
                    budget += interval
                if budget:
                    if window < budget:  # past a checked boundary
                        window = budget
                    continue
            cost += step
            batches += 1
            if not stack or (
                back_threshold
                and batches >= back_every
                and len(stack) > back_threshold
            ):
                break
            budget = interval
            if window <= 0:
                window = interval
        else:
            cost += (interval - budget) * node_cost
            batches += 1
        ops = (batches - first) * interval - budget
        self._best = best >> vshift
        return ops, cost, batches

    def run_to_exhaustion(self) -> None:
        """Branch until the stack empties (the sequential solver core)."""
        while not self.exhausted:
            self.branch(1 << 30)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SearchState depth={self.depth} traversed={self.nodes_traversed} "
            f"best={self.best_value}>"
        )
