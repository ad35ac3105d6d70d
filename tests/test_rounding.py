"""Randomized rounding: exact thresholds, determinism, best-of schedule."""

from fractions import Fraction

import numpy as np
import pytest

from mpcover import Cluster, RoundLogEntry, SetSystem, coverage
from mpcover.cluster import ceil_log2
from mpcover.rounding import best_of_repetitions, randbelow
from mpcover.rounding import _cumulative_thresholds, _draw


def randomized_round(y, kprime: int, seed: int) -> tuple[int, ...]:
    """The reference candidate: k' independent categorical draws of
    probability y_j / k', deduplicated, from stream `seed` (candidate r of
    best_of_repetitions is randomized_round(y, kprime, seed ^ r)).  A pure
    function of (y, kprime, seed)."""
    cum, den = _cumulative_thresholds(y, kprime)
    return _draw(cum, den, kprime, seed)


# three sets over four elements, and a fractional cover y of them that sums to k' = 2
THREE_SETS = SetSystem(4, 3, 1, ((1, 2), (3,), (4,)))
THREE_SETS_Y = [Fraction(1), Fraction(1, 2), Fraction(1, 2)]
QUARTER = Fraction(1, 4)


def test_repetition_schedule():
    """ceil(8 * ln(m + 1) / eps) candidates in batches of ceil(1 / eps), the
    last one partial, read off the batches' candidate broadcasts (m bits a
    candidate)."""
    for eps, reps, batch in ((QUARTER, 45, 4), (Fraction(1, 32), 355, 32)):
        cl = Cluster(3, 4)
        _, _, got = best_of_repetitions(THREE_SETS.incidence, THREE_SETS_Y, 2, eps, 0, cl)
        assert got == reps  # 45 = ceil(8 * ln(4) / 0.25)
        sizes = [e.peak_bits // 3 for e in cl.log if e.primitive == "round.candidate_broadcast"]
        assert sizes == [batch] * (reps // batch) + [reps % batch]


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


def batch_log(m: int, n: int, reps: int, batch: int) -> list[RoundLogEntry]:
    """The log of a repetition schedule on m sets over n elements: per batch
    of B candidates, one broadcast of their B selection masks, then their B
    coverage converge-casts side by side, one converge-cast of width B * n
    at 1-bit entries.  With one machine both cost 0 bits, and the
    converge-cast 0 rounds."""
    depth = ceil_log2(m)
    log = []
    for start in range(0, reps, batch):
        b = min(batch, reps - start)
        log.append(RoundLogEntry("round.candidate_broadcast", 1, b * m if m > 1 else 0))
        peak = b * n * (1 + depth) if depth else 0
        log.append(RoundLogEntry(f"round.batch[{start}]", depth, peak))
    return log


def test_best_of_repetitions_schedule_and_accounting(monkeypatch):
    # the batches are charged on the run's cluster: no candidate takes a lane
    monkeypatch.setattr(Cluster, "lane", lambda self: pytest.fail("a candidate took a lane"))
    cl = Cluster(3, 4)
    sel, cov, reps = best_of_repetitions(THREE_SETS.incidence, THREE_SETS_Y, 2, QUARTER, 9, cl)
    assert reps == 45
    assert cov == coverage(THREE_SETS, sel) == 3
    # 11 batches of 4 and a last one of 1; a batch's converge-cast takes
    # ceil(log2 3) = 2 rounds at 4 * 4 * (1 + 2) = 48 bits
    assert cl.log == batch_log(3, 4, 45, 4)
    assert cl.log[-2:] == [
        RoundLogEntry("round.candidate_broadcast", 1, 3),
        RoundLogEntry("round.batch[44]", 2, 12),
    ]
    cl.check_log_consistent()
    # one set: the broadcasts reach no other machine, the converge-casts are
    # 0 rounds at 0 bits, and 23 = ceil(8 * ln(2) / 0.25) candidates all draw it
    one = SetSystem(2, 1, 1, ((1, 2),))
    cl = Cluster(1, 2)
    got = best_of_repetitions(one.incidence, [Fraction(1)], 1, QUARTER, 9, cl)
    assert got == ((1,), 2, 23)
    assert cl.log == batch_log(1, 2, 23, 4)
    assert cl.log[-1] == RoundLogEntry("round.batch[20]", 0, 0)


def test_best_of_repetitions_prefers_earliest_rep_on_ties():
    # both sets tie at coverage 1 on every draw; rep 0 must win
    sys_ = SetSystem(2, 2, 1, ((1,), (2,)))
    y = [Fraction(1, 2), Fraction(1, 2)]
    sel, cov, _ = best_of_repetitions(sys_.incidence, y, 1, Fraction(1, 4), 17, Cluster(2, 2))
    assert cov == 1
    assert sel == randomized_round(y, 1, seed=17 ^ 0)


def test_best_of_repetitions_finds_disjoint_pair():
    # y spread over three disjoint sets; two draws hit two distinct sets
    # in most reps, so the best candidate covers 4 elements
    sys_ = SetSystem(6, 3, 2, ((1, 2), (3, 4), (5, 6)))
    y = [Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    sel, cov, _ = best_of_repetitions(sys_.incidence, y, 2, Fraction(1, 4), 1, Cluster(3, 6))
    assert cov == 4
    assert len(sel) == 2
