"""Search correctness against analytic ground truth (vectorized DP)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.knapsack import (
    KnapsackInstance,
    SearchState,
    depth_profile,
    optimal_selection,
    optimal_value,
    random_instance,
    solve,
    tree_size,
)
from repro.apps.knapsack.search import root_node


def small_instances():
    return [
        random_instance(n, seed=seed)
        for n, seed in [(8, 1), (12, 2), (16, 3), (20, 4), (14, 5)]
    ]


def test_root_node():
    inst = random_instance(6, seed=1)
    assert root_node(inst) == (0, 0, inst.capacity)


@pytest.mark.parametrize("inst", small_instances(), ids=lambda i: i.name)
def test_unpruned_traversal_matches_tree_size(inst):
    res = solve(inst, prune=False)
    assert res.nodes_traversed == tree_size(inst)


@pytest.mark.parametrize("inst", small_instances(), ids=lambda i: i.name)
def test_best_value_matches_dp(inst):
    assert solve(inst, prune=False).best_value == optimal_value(inst)


@pytest.mark.parametrize("inst", small_instances(), ids=lambda i: i.name)
def test_pruned_solver_agrees_and_visits_fewer(inst):
    pruned = solve(inst, prune=True)
    assert pruned.best_value == optimal_value(inst)
    assert pruned.nodes_traversed <= tree_size(inst)


def test_optimal_selection_is_feasible_and_optimal():
    inst = random_instance(15, seed=8)
    value, chosen = optimal_selection(inst)
    assert value == optimal_value(inst)
    assert sum(inst.weights[i] for i in chosen) <= inst.capacity
    assert sum(inst.profits[i] for i in chosen) == value


def test_depth_profile_sums_to_tree_size():
    inst = random_instance(12, seed=6)
    profile = depth_profile(inst)
    assert len(profile) == inst.n + 1
    assert profile[0] == 1
    assert int(profile.sum()) == tree_size(inst)


def test_zero_capacity_tree_is_a_chain():
    # Nothing fits: every node has exactly one (exclude) child.
    inst = KnapsackInstance(profits=(5, 4, 3), weights=(2, 2, 2), capacity=1)
    assert tree_size(inst) == 4  # root + 3 exclude nodes
    res = solve(inst)
    assert res.nodes_traversed == 4
    assert res.best_value == 0


def test_everything_fits_tree_is_full_binary():
    inst = KnapsackInstance(profits=(1, 1, 1), weights=(1, 1, 1), capacity=3)
    assert tree_size(inst) == 2**4 - 1
    assert solve(inst).best_value == 3


def test_table4_instance_runs_to_exhaustion():
    """The real 20 M-node Table 4 instance, run whole by the fast engine."""
    from repro.bench.table4 import Table4Config

    state = SearchState(Table4Config().instance(), engine="fast")
    state.push_root()
    state.run_to_exhaustion()
    assert (state.nodes_traversed, state.best_value) == (19_939_939, 350)


def test_branch_in_batches_equivalent_to_one_shot():
    inst = random_instance(14, seed=10)
    one = SearchState(inst)
    one.push_root()
    one.run_to_exhaustion()
    batched = SearchState(inst)
    batched.push_root()
    while not batched.exhausted:
        batched.branch(7)
    assert batched.nodes_traversed == one.nodes_traversed
    assert batched.best_value == one.best_value


def test_take_from_top_and_bottom():
    inst = random_instance(10, seed=3)
    st_ = SearchState(inst)
    st_.push_nodes([(1, 0, 5), (2, 0, 5), (3, 0, 5), (4, 0, 5)])
    top = st_.take_from_top(2)
    assert top == [(3, 0, 5), (4, 0, 5)]
    bottom = st_.take_from_bottom(1)
    assert bottom == [(1, 0, 5)]
    assert st_.depth == 1
    assert st_.take_from_top(0) == []
    assert st_.take_from_bottom(-1) == []
    # Taking more than available drains without error.
    assert len(st_.take_from_top(99)) == 1
    assert st_.exhausted


def test_work_splitting_conserves_tree():
    """Splitting a stack across workers traverses each node once."""
    inst = random_instance(16, seed=11)
    main = SearchState(inst)
    main.push_root()
    main.branch(50)
    stolen = main.take_from_top(3)
    worker = SearchState(inst)
    worker.push_nodes(stolen)
    main.run_to_exhaustion()
    worker.run_to_exhaustion()
    assert main.nodes_traversed + worker.nodes_traversed == tree_size(inst)
    assert max(main.best_value, worker.best_value) == optimal_value(inst)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(0, 10_000),
    cap_frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_traversal_invariants_property(n, seed, cap_frac):
    inst = random_instance(n, seed=seed)
    inst = KnapsackInstance(
        inst.profits, inst.weights, int(inst.total_weight * cap_frac)
    )
    res = solve(inst)
    assert res.nodes_traversed == tree_size(inst)
    assert res.best_value == optimal_value(inst)
    # The tree is bounded by the full binary tree and contains at
    # least the exclude chain.
    assert n + 1 <= res.nodes_traversed <= 2 ** (n + 1) - 1


def test_upper_bound_dominates_subtree_optimum():
    """The fractional bound is admissible: never below the best leaf
    reachable from the node."""
    inst = random_instance(10, seed=12)
    state = SearchState(inst, prune=True)
    # Evaluate the bound at the root: must be >= the global optimum.
    bound = state.upper_bound(0, 0, inst.capacity)
    assert bound >= optimal_value(inst)
