"""Reference solvers and the exhaustive oracle cross-check."""

import math
from dataclasses import dataclass
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mpcover import SetSystem, coverage
from mpcover.baselines import exact_opt, greedy_sequential

BRUTEFORCE_N = 12
BRUTEFORCE_M = 8


@dataclass(frozen=True)
class TruncatedPQ:
    """Per-element and per-set oracle costs on the common 2**-frac_bits grid."""

    p_scaled: tuple[int, ...]
    q_scaled: tuple[int, ...]
    frac_bits: int


def oracle_minimum(pq: TruncatedPQ, length: int, num_sets_kept: int) -> int:
    """Exhaustive minimum of the truncated oracle objective.

    Enumerates every x support of the given size and every z support of
    size num_sets_kept and returns the smallest scaled objective.  Only for
    cross-checking the sort-based oracle on toy sizes.
    """
    n, m = len(pq.p_scaled), len(pq.q_scaled)
    if n > BRUTEFORCE_N or m > BRUTEFORCE_M:
        raise ValueError("exhaustive oracle check is limited to toy sizes")
    best_x = min(
        (sum(pq.p_scaled[i] for i in xs) for xs in combinations(range(n), length)),
        default=0,
    )
    best_z = min(
        (sum(pq.q_scaled[j] for j in zs) for zs in combinations(range(m), num_sets_kept)),
        default=0,
    )
    return best_x + best_z


def test_exact_opt_hand_example():
    sys_ = SetSystem(4, 3, 2, ((1, 2), (2, 3), (3, 4)))
    res = exact_opt(sys_)
    assert res.value == 4
    assert res.selection == (1, 3)


def test_exact_opt_lexicographic_witness():
    # sets 1 and 2 tie; the lexicographically first selection wins
    sys_ = SetSystem(4, 3, 1, ((1, 2), (3, 4), (4,)))
    assert exact_opt(sys_).selection == (1,)


def test_exact_opt_guard():
    n = 40
    sys_ = SetSystem(n, n, 20, tuple((i,) for i in range(1, n + 1)))
    assert math.comb(40, 20) > 10**7
    with pytest.raises(ValueError, match="too many"):
        exact_opt(sys_)


def test_greedy_tie_rule_and_pick_order():
    # all first gains tie at 2: lowest index picked first
    sys_ = SetSystem(5, 3, 2, ((1, 2), (3, 4), (4, 5)))
    res = greedy_sequential(sys_)
    assert res.selection == (1, 2)
    assert res.value == 4
    # gain order can put a later set first; selection is in pick order
    sys2 = SetSystem(6, 3, 2, ((3, 4), (1, 2), (4, 5, 6)))
    assert greedy_sequential(sys2).selection == (3, 2)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_greedy_meets_classic_ratio(data):
    n = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(1, min(n, 6)))
    k = data.draw(st.integers(1, m))
    sets = tuple(
        tuple(sorted(data.draw(st.sets(st.integers(1, n), max_size=n)))) for _ in range(m)
    )
    sys_ = SetSystem(n, m, k, sets)
    g = greedy_sequential(sys_)
    o = exact_opt(sys_)
    assert g.value == coverage(sys_, g.selection)
    assert len(set(g.selection)) == k
    assert g.value >= (1 - (1 - 1 / k) ** k) * o.value - 1e-9


def test_oracle_minimum_small():
    pq = TruncatedPQ((5, 1, 3), (7, 2), 0)
    assert oracle_minimum(pq, 2, 1) == (1 + 3) + 2
    assert oracle_minimum(pq, 0, 0) == 0
    assert oracle_minimum(pq, 3, 2) == 9 + 9


def test_oracle_minimum_guard():
    pq = TruncatedPQ(tuple(range(13)), (1,), 0)
    with pytest.raises(ValueError, match="toy sizes"):
        oracle_minimum(pq, 1, 1)
    pq2 = TruncatedPQ((1,), tuple(range(9)), 0)
    with pytest.raises(ValueError, match="toy sizes"):
        oracle_minimum(pq2, 1, 1)
