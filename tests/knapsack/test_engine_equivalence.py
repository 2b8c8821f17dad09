"""The fast branch engine must be *indistinguishable* from the seed
engine at every observable point: per-batch ops, the decoded stack at
every batch boundary, the best value, steal/send-back interop, and the
fused slave loop.  These are the invariants that make the Table 4/5/6
outputs byte-identical between engines.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.knapsack.analysis import optimal_value, tree_size
from repro.apps.knapsack.instance import KnapsackInstance, scaled_instance
from repro.apps.knapsack.search import SearchState, _subtree_tables, resolve_engine
from repro.bench.table4 import Table4Config

#: Largest tree the property tests let the seed engine walk.
MAX_TREE = 1500


def _random_instance(rng: random.Random) -> KnapsackInstance:
    n = rng.randint(1, 16)
    items = [(rng.randint(1, 50), rng.randint(1, 30)) for _ in range(n)]
    items.sort(key=lambda pw: pw[0] / pw[1], reverse=True)
    return KnapsackInstance(
        tuple(p for p, _ in items),
        tuple(w for _, w in items),
        rng.randint(0, 60),
    )


def test_resolve_engine(monkeypatch) -> None:
    assert resolve_engine("fast") == "fast"
    assert resolve_engine("seed") == "seed"
    monkeypatch.delenv("REPRO_SEARCH_ENGINE", raising=False)
    assert resolve_engine(None) == "fast"
    assert resolve_engine("auto") == "fast"
    monkeypatch.setenv("REPRO_SEARCH_ENGINE", "seed")
    assert resolve_engine(None) == "seed"
    with pytest.raises(ValueError):
        resolve_engine("turbo")


@pytest.mark.parametrize("prune", [False, True])
def test_lockstep_batch_equivalence(prune: bool) -> None:
    """Drive both engines in identical batches on random instances;
    ops, best value and the (decoded) stack must match at every
    boundary."""
    rng = random.Random(7)
    for _ in range(25):
        instance = _random_instance(rng)
        seed = SearchState(instance, prune=prune, engine="seed")
        fast = SearchState(instance, prune=prune, engine="fast")
        seed.push_root()
        fast.push_root()
        step = rng.randint(1, 13)
        while not (seed.exhausted and fast.exhausted):
            assert seed.branch(step) == fast.branch(step)
            assert seed.best_value == fast.best_value
            assert seed.stack == fast._decode(fast.stack)
        assert seed.nodes_traversed == fast.nodes_traversed


def test_steal_interop_between_engines() -> None:
    """Nodes stolen from one engine's stack feed the other's: the wire
    format is the (index, value, capacity) tuple either way."""
    rng = random.Random(11)
    for _ in range(10):
        instance = _random_instance(rng)
        seed = SearchState(instance, engine="seed")
        fast = SearchState(instance, engine="fast")
        seed.push_root()
        fast.push_root()
        seed.branch(9)
        fast.branch(9)
        top_s, top_f = seed.take_from_top(2), fast.take_from_top(2)
        assert top_s == top_f
        bot_s, bot_f = seed.take_from_bottom(1), fast.take_from_bottom(1)
        assert bot_s == bot_f
        # Cross-feed: give the seed engine's nodes to the fast engine
        # and vice versa, then finish both; totals must agree.
        seed.push_nodes(top_f + bot_f)
        fast.push_nodes(top_s + bot_s)
        seed.run_to_exhaustion()
        fast.run_to_exhaustion()
        assert seed.best_value == fast.best_value
        assert seed.nodes_traversed == fast.nodes_traversed


def test_fused_matches_batched_loop() -> None:
    """branch_fused == branch(interval) in a loop with the slave's
    send-back checks between batches."""
    instance = scaled_instance(n=20, target_nodes=30_000, seed=5)
    interval, node_cost = 25, 1e-4
    back_every, back_threshold = 4, 3

    fused = SearchState(instance, engine="fast")
    fused.push_root()
    ref = SearchState(instance, engine="seed")
    ref.push_root()

    fused_backs = ref_backs = 0
    while not fused.exhausted or not ref.exhausted:
        cost_f, fused_backs = fused.branch_fused(
            interval, node_cost, fused_backs, back_every, back_threshold
        )
        cost_r = 0.0
        while True:
            cost_r += ref.branch(interval) * node_cost
            ref_backs += 1
            if not ref.stack:
                break
            if (
                back_threshold
                and ref_backs >= back_every
                and len(ref.stack) > back_threshold
            ):
                break
        assert fused_backs == ref_backs
        assert cost_f == cost_r
        assert ref.stack == fused._decode(fused.stack)
        assert ref.best_value == fused.best_value
        # Both loops stop at a send-back point: emulate the send-back
        # so the loop makes progress, feeding the same nodes to both.
        if fused.stack:
            sent_f = fused.take_from_bottom(2)
            sent_r = ref.take_from_bottom(2)
            assert sent_f == sent_r
            fused_backs = ref_backs = 0
    assert ref.nodes_traversed == fused.nodes_traversed


def test_full_solve_equivalence_scaled_instance() -> None:
    """End-to-end on a Table 4-family instance: same best, same count."""
    instance = scaled_instance(n=24, target_nodes=60_000, seed=5)
    results = {}
    for engine in ("seed", "fast"):
        state = SearchState(instance, engine=engine)
        state.push_root()
        state.run_to_exhaustion()
        results[engine] = (state.best_value, state.nodes_traversed)
    assert results["seed"] == results["fast"]


@st.composite
def small_trees(draw) -> KnapsackInstance:
    """1–22 items (zero profits allowed), capacity from 0, halved until
    the whole tree has at most ``MAX_TREE`` nodes."""
    items = draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 30)), min_size=1, max_size=22
        )
    )
    capacity = draw(st.integers(0, 80))
    while True:
        inst = KnapsackInstance.from_items(
            [p for p, _ in items], [w for _, w in items], capacity
        )
        if tree_size(inst) <= MAX_TREE:
            return inst
        capacity //= 2


@settings(max_examples=150, deadline=None)
@given(small_trees(), st.data())
def test_lockstep_property_seed_vs_fast(instance: KnapsackInstance, data) -> None:
    """Random interleavings of branch, branch_fused, steals and pushes
    leave both engines in the same observable state.  The stack and
    best value are read only on drawn steps, so the fast engine's
    deferred batches pile up across unobserved branch calls and are
    settled at whatever point the next read falls."""
    seed = SearchState(instance, engine="seed")
    fast = SearchState(instance, engine="fast")
    seed.push_root()
    fast.push_root()
    nodes = st.tuples(
        st.integers(0, instance.n),
        st.integers(0, 100),
        st.integers(0, instance.capacity),
    )
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(["branch", "fused", "top", "bottom", "push"]))
        if op == "branch":
            budget = data.draw(st.integers(1, MAX_TREE + 50))
            assert seed.branch(budget) == fast.branch(budget)
        elif op == "fused":
            args = (
                data.draw(st.integers(1, 60)),
                data.draw(st.sampled_from([1e-4, 0.3, 1.0 / 3.0])),
                data.draw(st.integers(0, 80)),
                data.draw(st.integers(1, 70)),
                data.draw(st.integers(0, 8)),
            )
            assert seed.branch_fused(*args) == fast.branch_fused(*args)
        elif op in ("top", "bottom"):
            count = data.draw(st.integers(0, 5))
            taken = getattr(seed, f"take_from_{op}")(count)
            assert taken == getattr(fast, f"take_from_{op}")(count)
        else:
            pushed = data.draw(st.lists(nodes, max_size=2))
            seed.push_nodes(pushed)
            fast.push_nodes(pushed)
        assert seed.exhausted == fast.exhausted
        # The count is charged as it is done, so reading it settles nothing.
        assert seed.nodes_traversed == fast.nodes_traversed
        if data.draw(st.booleans()):
            assert seed.stack == fast._decode(fast.stack)
            assert seed.best_value == fast.best_value
    assert seed.stack == fast._decode(fast.stack)
    assert seed.best_value == fast.best_value
    seed.run_to_exhaustion()
    fast.run_to_exhaustion()
    assert (seed.best_value, seed.nodes_traversed) == (
        fast.best_value,
        fast.nodes_traversed,
    )


def test_master_batches_are_walked_only_when_read(monkeypatch) -> None:
    """The master's loop, ``branch(25)`` after ``branch(25)`` with no
    read of the stack, walks nothing; one ``depth`` read walks all of
    the batches at once and agrees with the seed engine."""
    instance = scaled_instance(n=20, target_nodes=30_000, seed=5)
    fast = SearchState(instance, engine="fast")
    seed = SearchState(instance, engine="seed")
    fast.push_root()
    seed.push_root()
    walks = []
    run = SearchState._run

    def counted_run(state, *args):
        walks.append(args)
        return run(state, *args)

    monkeypatch.setattr(SearchState, "_run", counted_run)
    for _ in range(400):
        assert fast.branch(25) == seed.branch(25) == 25
        assert not fast.exhausted
    assert fast.nodes_traversed == 10_000
    assert walks == []
    assert fast.depth == seed.depth
    assert walks == [(10_000, 0.0, 0, 1, -1)]
    assert fast._decode(fast.stack) == seed.stack
    assert fast.best_value == seed.best_value
    assert len(walks) == 1


@settings(max_examples=60, deadline=None)
@given(small_trees())
def test_subtree_tables_match_independent_oracles(instance: KnapsackInstance) -> None:
    """At the root: size is the analytic tree size, gain the DP optimum,
    and pend the deepest stack the seed engine reaches walking node by
    node."""
    fast = SearchState(instance, engine="fast")
    fast.push_root()
    root = fast.stack[0]
    size, gain, pend = _subtree_tables(instance)
    assert size[root] == tree_size(instance)
    assert gain[root] >> (fast._shift + fast._ibits) == optimal_value(instance)
    seed = SearchState(instance, engine="seed")
    seed.push_root()
    deepest = 0
    while seed.branch(1):
        deepest = max(deepest, len(seed.stack))
    assert pend[root] == deepest


@pytest.mark.parametrize("engine", ["seed", "fast"])
@pytest.mark.parametrize(
    "node",
    [(0, 0, 300), (70, 0, 3), (31, 0, 3), (-1, 0, 3), (0, -1, 3), (0, 0, 51), (0, 0, -1)],
)
def test_push_nodes_rejects_nodes_outside_the_tree(engine: str, node) -> None:
    """Quick Table 4 instance (n = 30, C = 50): nothing is pushed, and
    the error names the node."""
    instance = Table4Config(n_items=30, target_nodes=120_000).instance()
    assert (instance.n, instance.capacity) == (30, 50)
    state = SearchState(instance, engine=engine)
    with pytest.raises(ValueError, match=re.escape(repr(node))):
        state.push_nodes([(1, 0, 0), node])
    assert state.stack == []
    state.push_nodes([(0, 0, 0), (30, 7, 50)])
    assert state.take_from_top(2) == [(0, 0, 0), (30, 7, 50)]
