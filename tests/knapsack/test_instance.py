"""Knapsack instance construction, serialization, generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.knapsack import (
    KnapsackInstance,
    optimal_value,
    paper_instance,
    random_instance,
    scaled_instance,
    tree_size,
)
from repro.apps.knapsack import analysis
from repro.apps.knapsack import instance as instance_module
from repro.util.rng import DEFAULT_SEED


def test_from_items_sorts_by_ratio():
    inst = KnapsackInstance.from_items([1, 10, 4], [2, 2, 2], capacity=4)
    assert inst.profits == (10, 4, 1)
    assert inst.weights == (2, 2, 2)


def test_validation():
    with pytest.raises(ValueError, match="equal length"):
        KnapsackInstance((1, 2), (1,), 5)
    with pytest.raises(ValueError, match="at least one"):
        KnapsackInstance((), (), 5)
    with pytest.raises(ValueError, match="capacity"):
        KnapsackInstance((1,), (1,), -1)
    with pytest.raises(ValueError, match="positive"):
        KnapsackInstance((1,), (0,), 5)
    with pytest.raises(ValueError, match="non-negative"):
        KnapsackInstance((-1,), (1,), 5)
    with pytest.raises(ValueError, match="sorted"):
        KnapsackInstance((1, 10), (2, 2), 5)


def test_serialize_parse_roundtrip():
    inst = random_instance(12, seed=4)
    again = KnapsackInstance.parse(inst.serialize())
    assert again.profits == inst.profits
    assert again.weights == inst.weights
    assert again.capacity == inst.capacity


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        KnapsackInstance.parse("")
    with pytest.raises(ValueError):
        KnapsackInstance.parse("2 10\n1 1\n")  # missing a row


def test_random_instance_deterministic():
    a = random_instance(10, seed=7)
    b = random_instance(10, seed=7)
    assert a.profits == b.profits and a.weights == b.weights


def test_random_instance_default_capacity_half_weight():
    inst = random_instance(30, seed=2)
    assert inst.capacity == inst.total_weight // 2


def test_scaled_instance_hits_target():
    target = 50_000
    inst = scaled_instance(n=28, target_nodes=target, seed=9)
    size = tree_size(inst)
    assert 0.5 * target <= size <= 1.5 * target


def test_scaled_instance_impossible_target():
    with pytest.raises(ValueError):
        scaled_instance(n=5, target_nodes=3, seed=1)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=20), seed=st.integers(0, 1000))
def test_random_instances_always_valid(n, seed):
    inst = random_instance(n, seed=seed)
    assert inst.n == n
    ratios = [p / w for p, w in zip(inst.profits, inst.weights)]
    assert ratios == sorted(ratios, reverse=True)


# -- NumPy-built references ---------------------------------------------------
# The generators and the DP are pure Python; NumPy's Generator and the
# vectorised DP they replace are the references they must equal.


def numpy_tree_size(instance: KnapsackInstance) -> int:
    cap = instance.capacity
    t_next = np.ones(cap + 1, dtype=np.int64)
    for w in reversed(instance.weights):
        t = 1 + t_next.copy()
        if w <= cap:
            t[w:] += t_next[: cap + 1 - w]
        t_next = t
    return int(t_next[cap])


def numpy_optimal_value(instance: KnapsackInstance) -> int:
    cap = instance.capacity
    best = np.zeros(cap + 1, dtype=np.int64)
    for p, w in zip(instance.profits, instance.weights):
        if w <= cap:
            np.maximum(best[w:], best[: cap + 1 - w] + p, out=best[w:])
    return int(best[cap])


class NumpyRng:
    def __init__(self, seed):
        self.gen = np.random.default_rng(DEFAULT_SEED if seed is None else seed)

    def integers(self, low, high, size):
        return self.gen.integers(low, high, size=size).tolist()


def numpy_built(monkeypatch, build, *args, **kwargs) -> KnapsackInstance:
    """``build(*args, **kwargs)`` with NumPy drawing and sizing trees."""
    with monkeypatch.context() as m:
        m.setattr(instance_module, "make_rng", NumpyRng)
        m.setattr(analysis, "tree_size", numpy_tree_size)
        return build(*args, **kwargs)


@pytest.mark.parametrize("build, kwargs", [
    pytest.param(random_instance, dict(n=30), id="random"),
    pytest.param(random_instance, dict(n=12, max_weight=1000), id="random-wide"),
    pytest.param(scaled_instance, dict(n=28, target_nodes=50_000), id="scaled"),
    pytest.param(scaled_instance, dict(n=44, target_nodes=20_000_000, tolerance=0.9),
                 id="scaled-table4"),
    pytest.param(paper_instance, dict(), id="paper"),
])
@pytest.mark.parametrize("seed", [None, 0, 5, 7, 2**64 + 1])
def test_builders_equal_numpy_built_references(monkeypatch, build, kwargs, seed):
    assert build(seed=seed, **kwargs) == numpy_built(monkeypatch, build, seed=seed, **kwargs)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 10_000),
       cap_frac=st.floats(0.0, 1.0))
def test_dp_equals_numpy_dp(n, seed, cap_frac):
    inst = random_instance(n, seed=seed)
    inst = KnapsackInstance(inst.profits, inst.weights, int(inst.total_weight * cap_frac))
    assert tree_size(inst) == numpy_tree_size(inst)
    assert optimal_value(inst) == numpy_optimal_value(inst)
