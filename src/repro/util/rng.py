"""Deterministic random-number plumbing.

Every stochastic component in the library (instance generators, jittered
link delays, allocator tie-breaking) takes an explicit seed.  Nothing
reads global random state: two runs with the same seeds produce
bit-identical event traces, which is what makes the simulated
experiments reproducible.

:func:`make_rng` returns a pure-Python :class:`Rng` that draws exactly
what NumPy's ``default_rng(seed).integers(low, high, size)`` draws for
ranges up to 2**32 (``SeedSequence`` seeding, PCG64 XSL-RR, the
generator's buffered 32-bit draw and Lemire's bounded draw), so an
instance built from a seed is the one NumPy would build; NumPy itself
is only the tests' reference.
"""

from __future__ import annotations

import operator
from typing import Callable

#: Default seed used by examples and benchmarks when none is given.
DEFAULT_SEED: int = 20000801  # HPDC 2000 ;-)

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int) -> "Callable[[int], int]":
    """``SeedSequence``'s 32-bit hash, whose multiplier moves on each call."""
    def hash32(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hash32


def _mix(x: int, y: int) -> int:
    r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
    return r ^ r >> 16


def _seed_state(seed: int) -> "list[int]":
    """``SeedSequence(seed).generate_state(4, uint64)`` as four ints."""
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Rng:
    """PCG64 seeded through ``SeedSequence``; draws bounded integers only."""

    def __init__(self, seed: int) -> None:
        if operator.index(seed) < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = (self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc & _M128
        self._spare: "int | None" = None  # high half of the last 64-bit draw

    def _next64(self) -> int:
        self._state = state = self._state * _PCG_MULT + self._inc & _M128
        rot = state >> 122
        x = (state >> 64 ^ state) & _M64
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        x = self._next64()
        self._spare = x >> 32
        return x & _M32

    def integers(self, low: int, high: int, size: int) -> "list[int]":
        """``size`` draws from ``[low, high)``, as NumPy's
        ``Generator.integers(low, high, size)`` makes them."""
        span = high - low
        if not 0 < span <= 1 << 32:
            raise ValueError(f"need 1 <= high - low <= 2**32, got {high} - {low}")
        if span == 1:
            return [low] * size
        threshold = (1 << 32) % span  # Lemire: reject a low word below it
        out = []
        for _ in range(size):
            m = self._next32() * span
            if m & _M32 < span:
                while m & _M32 < threshold:
                    m = self._next32() * span
            out.append(low + (m >> 32))
        return out


def make_rng(seed: "int | None" = None) -> Rng:
    """An :class:`Rng` for ``seed``.

    ``None`` maps to :data:`DEFAULT_SEED` (not to OS entropy) so that
    "I forgot to pass a seed" still yields reproducible runs.
    """
    return Rng(DEFAULT_SEED if seed is None else seed)
