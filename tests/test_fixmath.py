"""Exactness of the fixed-point powers of two."""

import pytest
from hypothesis import given, strategies as st

from mpcover.fixmath import exp2_frac


def test_edge_values():
    assert exp2_frac(0, 5, 40) == 1 << 40
    assert exp2_frac(3, 7, 0) == 1
    # one half: 2**0.5 * 2**20, floor-ish
    v = exp2_frac(1, 2, 20)
    assert v * v <= 2 << 40 < (v + 2) * (v + 2)


def test_rejects_improper_fraction():
    with pytest.raises(ValueError):
        exp2_frac(5, 5, 10)


@given(st.integers(1, 63), st.integers(2, 64), st.integers(1, 48))
def test_underestimate_and_range(num, den, g):
    num = num % den
    if num == 0:
        num = 1
    v = exp2_frac(num, den, g)
    assert (1 << g) <= v < (1 << (g + 1))
    # v <= 2**(num/den + g) exactly: v**den <= 2**(num + g*den)
    assert v**den <= 1 << (num + g * den)


@given(st.integers(1, 63), st.integers(2, 64))
def test_relative_error_within_documented_bound(num, den):
    g = 40
    num = num % den
    if num == 0:
        num = 1
    v = exp2_frac(num, den, g)
    real = 2.0 ** (num / den + g)
    assert v <= real * (1 + 1e-12)
    assert v >= real * (1 - (2 * g + 2) * 2.0**-g)


def test_deterministic_and_cached():
    assert exp2_frac(7, 13, 30) == exp2_frac(7, 13, 30)

