"""Randomized rounding: exact thresholds, determinism, best-of schedule."""

from fractions import Fraction

import numpy as np
import pytest

from mpcover import Cluster, SetSystem, coverage
from mpcover.cluster import ceil_log2
from mpcover.rounding import RoundingConfig, best_of_repetitions, randbelow
from mpcover.rounding import _cumulative_thresholds, _draw


def randomized_round(y, kprime: int, seed: int) -> tuple[int, ...]:
    """The reference candidate: k' independent categorical draws of
    probability y_j / k', deduplicated, from stream `seed` (candidate r of
    best_of_repetitions is randomized_round(y, kprime, seed ^ r)).  A pure
    function of (y, kprime, seed)."""
    cum, den = _cumulative_thresholds(y, kprime)
    return _draw(cum, den, kprime, seed)


def test_config_schedule():
    cfg = RoundingConfig(eps=Fraction(1, 4), seed=0)
    assert cfg.batch_size == 4
    assert cfg.repetitions(3) == 45  # ceil(8 * ln(4) / 0.25)
    tight = RoundingConfig(eps=Fraction(1, 32), seed=0)
    assert tight.batch_size == 32
    assert tight.repetitions(3) > cfg.repetitions(3)


def test_randbelow_range_and_determinism():
    rng = np.random.Generator(np.random.PCG64(5))
    draws = [randbelow(rng, 10) for _ in range(2000)]
    assert set(draws) == set(range(10))
    rng2 = np.random.Generator(np.random.PCG64(5))
    assert draws[:50] == [randbelow(rng2, 10) for _ in range(50)]
    assert randbelow(rng, 1) == 0
    with pytest.raises(ValueError):
        randbelow(rng, 0)


def test_randbelow_handles_wide_bounds():
    rng = np.random.Generator(np.random.PCG64(11))
    bound = 3**40  # forces multi-byte rejection sampling
    vals = [randbelow(rng, bound) for _ in range(50)]
    assert all(0 <= v < bound for v in vals)


def test_cumulative_thresholds_exact():
    y = [Fraction(1, 2), Fraction(3, 2), Fraction(1)]
    cum, den = _cumulative_thresholds(y, 3)
    assert den == 6
    assert cum == [1, 4, 6]
    with pytest.raises(ValueError, match="pad"):
        _cumulative_thresholds([Fraction(1, 2), Fraction(1, 2)], 3)


def test_randomized_round_deterministic_sorted_dedup():
    y = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    a = randomized_round(y, 3, seed=42)
    assert a == randomized_round(y, 3, seed=42)
    assert a == tuple(sorted(set(a)))
    assert all(1 <= j <= 4 for j in a)
    assert 1 <= len(a) <= 3


def test_randomized_round_degenerate_point_mass():
    y = [Fraction(2), Fraction(0)]
    for seed in range(8):
        assert randomized_round(y, 2, seed=seed) == (1,)


def test_draw_frequencies_track_probabilities():
    # one categorical draw (kprime=1): chance of set 1 is 1/4
    y = [Fraction(1, 4), Fraction(3, 4)]
    hits = sum(randomized_round(y, 1, seed=s) == (1,) for s in range(4000))
    assert 850 <= hits <= 1150  # 1000 expected, ~5.5 sigma margin


def test_best_of_repetitions_schedule_and_accounting():
    sys_ = SetSystem(4, 3, 1, ((1, 2), (3,), (4,)))
    y = [Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    cfg = RoundingConfig(eps=Fraction(1, 4), seed=9)
    cl = Cluster(3, 4)
    sel, cov, reps = best_of_repetitions(sys_.incidence, y, 2, cfg, cl)
    assert reps == cfg.repetitions(3) == 45
    assert cov == coverage(sys_, sel) == 3
    # per batch: one broadcast plus lanes that each converge-cast
    batches = -(-reps // cfg.batch_size)
    assert cl.rounds == batches * (1 + ceil_log2(3))
    cl.check_log_consistent()


def test_best_of_repetitions_prefers_earliest_rep_on_ties():
    # both sets tie at coverage 1 on every draw; rep 0 must win
    sys_ = SetSystem(2, 2, 1, ((1,), (2,)))
    y = [Fraction(1, 2), Fraction(1, 2)]
    cfg = RoundingConfig(eps=Fraction(1, 4), seed=17)
    sel, cov, _ = best_of_repetitions(sys_.incidence, y, 1, cfg, Cluster(2, 2))
    assert cov == 1
    assert sel == randomized_round(y, 1, seed=17 ^ 0)


def test_best_of_repetitions_finds_disjoint_pair():
    # y spread over three disjoint sets; two draws hit two distinct sets
    # in most reps, so the best candidate covers 4 elements
    sys_ = SetSystem(6, 3, 2, ((1, 2), (3, 4), (5, 6)))
    y = [Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    cfg = RoundingConfig(eps=Fraction(1, 4), seed=1)
    sel, cov, _ = best_of_repetitions(sys_.incidence, y, 2, cfg, Cluster(3, 6))
    assert cov == 4
    assert len(sel) == 2
