"""Deterministic RNG plumbing: the pure-Python generator against NumPy.

:func:`repro.util.rng.make_rng` must draw exactly what
``numpy.random.default_rng(seed).integers(low, high, size)`` draws, so
every instance built from a seed is the one NumPy would build.  NumPy
is the reference here and nowhere in the program.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.rng import DEFAULT_SEED, make_rng

#: One ``integers(low, high, size)`` call: a range of 1 … 2**32 values
#: (a one-value range draws nothing), starting anywhere in ±2**40.
calls = st.tuples(
    st.integers(-(1 << 40), 1 << 40),
    st.one_of(st.just(1), st.just(1 << 32), st.integers(1, 1 << 32)),
    st.integers(0, 9),
)


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(st.integers(0, 1 << 32), st.integers(0, 1 << 130)),
       sequence=st.lists(calls, min_size=1, max_size=6))
# A one-value range consumes no draw, not even the buffered half of one.
@example(seed=3, sequence=[(0, 7, 1), (4, 1, 3), (0, 7, 1), (9, 1, 2), (0, 100, 5)])
def test_draws_match_numpy(seed, sequence):
    ours, ref = make_rng(seed), np.random.default_rng(seed)
    for low, span, size in sequence:
        got = ours.integers(low, low + span, size=size)
        assert type(got) is list and all(type(v) is int for v in got)
        assert got == ref.integers(low, low + span, size=size).tolist()


@pytest.mark.parametrize("seed, low, high", [
    pytest.param(-1, 0, 10, id="negative-seed"),
    pytest.param(1, 5, 5, id="empty-range"),
    pytest.param(1, 5, 4, id="high-below-low"),
    pytest.param(1, 0, (1 << 32) + 1, id="range-wider-than-2**32"),
])
def test_rejects(seed, low, high):
    with pytest.raises(ValueError):
        make_rng(seed).integers(low, high, size=1)


def test_default_is_deterministic():
    a = make_rng(None).integers(0, 1 << 30, size=8)
    b = make_rng(None).integers(0, 1 << 30, size=8)
    assert a == b == make_rng(DEFAULT_SEED).integers(0, 1 << 30, size=8)


def test_seed_changes_stream():
    a = make_rng(1).integers(0, 1 << 30, size=8)
    b = make_rng(2).integers(0, 1 << 30, size=8)
    assert a != b


def test_default_seed_value_documented():
    assert DEFAULT_SEED == 20000801
