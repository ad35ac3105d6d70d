"""Randomized rounding: exact thresholds, determinism, best-of schedule."""

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mpcover import Cluster, RoundLogEntry, SetSystem, coverage
from mpcover.cluster import ceil_log2
from mpcover.rounding import _draw, _thresholds, best_of_repetitions

# -- the reference sampler --------------------------------------------------
# The Fraction padding and thresholds and the Generator-based draws that
# _thresholds and _draw replace, kept verbatim as their yardstick.  _draw
# reads PCG64's raw outputs where the reference calls Generator.bytes, so
# the identity below rests on numpy's PCG64 stream layout.
# reference_thresholds is _thresholds as it was when y came as Fractions: it
# rebuilt their common denominator as an lcm (see test_lp's reference test).


def randbelow(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) from raw bytes, bias-free."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound == 1:
        return 0
    bits = (bound - 1).bit_length()
    nbytes = (bits + 7) // 8
    shift = 8 * nbytes - bits
    while True:
        v = int.from_bytes(rng.bytes(nbytes), "big") >> shift
        if v < bound:
            return v


def pad_budget(y, kprime: int):
    """Raise y entries (ascending index, clamped at 1) until sum(y) = kprime."""
    y = [Fraction(v) for v in y]
    deficit = kprime - sum(y)
    if deficit < 0:
        raise ValueError("kprime below the fractional budget")
    for j in range(len(y)):
        if deficit == 0:
            break
        room = 1 - y[j]
        add = room if room < deficit else deficit
        y[j] += add
        deficit -= add
    if deficit != 0:
        raise ValueError("kprime exceeds the number of sets")
    return y


def cumulative_thresholds(y, kprime: int) -> tuple[list[int], int]:
    """Integer prefix sums of y_j / k' on a common denominator."""
    probs = [Fraction(v) / kprime for v in y]
    den = 1
    for p in probs:
        den = den * p.denominator // math.gcd(den, p.denominator)
    nums = [p.numerator * (den // p.denominator) for p in probs]
    if sum(nums) != den:
        raise ValueError("probabilities must sum to exactly 1; pad y first")
    cum = []
    acc = 0
    for v in nums:
        acc += v
        cum.append(acc)
    return cum, den


def reference_thresholds(y, kprime: int) -> tuple[list[int], int]:
    """Pad y (Fractions or ints) to sum k' and cut it into draw intervals:
    u in [cum[j-2], cum[j-1]) draws set j, with probability y_j / k'.

    On D = lcm of y's denominators y_j is the integer Y_j = D*y_j, padded in
    ascending j towards D (y_j = 1) until the sum is k'*D.  With g =
    gcd(k'*D, Y_1, ..., Y_m), den = k'*D/g is the least common denominator
    of the y_j / k', and cum the prefix sums of Y_j / g.
    """
    d = math.lcm(*(v.denominator for v in y))
    ys = [v.numerator * (d // v.denominator) for v in y]
    deficit = kprime * d - sum(ys)
    if deficit < 0:
        raise ValueError("kprime below the fractional budget")
    for j, v in enumerate(ys):
        add = min(d - v, deficit) if deficit else 0
        ys[j], deficit = v + add, deficit - add
    if deficit != 0:
        raise ValueError("kprime exceeds the number of sets")
    g = math.gcd(kprime * d, *ys)
    return list(accumulate(v // g for v in ys)), kprime * d // g


def reference_draw(cum: list[int], den: int, kprime: int, seed: int) -> tuple[int, ...]:
    rng = np.random.Generator(np.random.PCG64(seed))
    picked: set[int] = set()
    for _ in range(kprime):
        u = randbelow(rng, den)
        picked.add(bisect_right(cum, u) + 1)
    return tuple(sorted(picked))


LAYOUT = (
    f"numpy {np.__version__}: _draw no longer reads the bytes Generator.bytes returns; "
    "has numpy changed how PCG64 splits its outputs into uint32 words?"
)


def randomized_round(y, den: int, kprime: int, seed: int) -> tuple[int, ...]:
    """The reference candidate: k' independent categorical draws of
    probability y_j / den / k' (y / den padded to sum k'), deduplicated,
    from stream `seed` (candidate r of best_of_repetitions is
    randomized_round(y, den, kprime, seed ^ r)).  A pure function of
    (y, den, kprime, seed)."""
    cum, draw_den = _thresholds(y, den, kprime)
    return _draw(cum, draw_den, kprime, seed)


# three sets over four elements, and a fractional cover y = (1, 1/2, 1/2) of
# them that sums to k' = 2, as integers over den 2
THREE_SETS = SetSystem(4, 3, 1, ((1, 2), (3,), (4,)))
THREE_SETS_Y = ((2, 1, 1), 2)
QUARTER = Fraction(1, 4)


def test_repetition_schedule():
    """ceil(8 * ln(m + 1) / eps) candidates in batches of ceil(1 / eps), the
    last one partial, read off the batches' candidate broadcasts (m bits a
    candidate)."""
    for eps, reps, batch in ((QUARTER, 45, 4), (Fraction(1, 32), 355, 32)):
        cl = Cluster(3, 4)
        _, _, got = best_of_repetitions(THREE_SETS.incidence, *THREE_SETS_Y, 2, eps, 0, cl)
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
    # _draw reads the same stream: set j holds u = j - 1, so its first k'
    # draws land in the sets of the reference's first k', shifted by one
    for kprime in range(1, 8):
        want = tuple(sorted({u + 1 for u in draws[:kprime]}))
        assert _draw(list(range(1, 11)), 10, kprime, 5) == want, LAYOUT


def test_randbelow_handles_wide_bounds():
    rng = np.random.Generator(np.random.PCG64(11))
    bound = 3**40  # forces multi-byte rejection sampling
    vals = [randbelow(rng, bound) for _ in range(50)]
    assert all(0 <= v < bound for v in vals)
    # thresholds at every tenth of the bound: _draw lands where the reference does
    cum = [bound * i // 10 for i in range(1, 11)]
    for kprime in range(1, 8):
        want = tuple(sorted({bisect_right(cum, v) + 1 for v in vals[:kprime]}))
        assert _draw(cum, bound, kprime, 11) == want, LAYOUT


def pads_to(y, den: int, kprime: int) -> list[Fraction]:
    """The padded y that _thresholds' intervals stand for: k' * width / den."""
    cum, draw_den = _thresholds(y, den, kprime)
    return [Fraction(kprime * (b - a), draw_den) for a, b in zip([0, *cum], cum)]


def test_pad_budget():
    assert pads_to([1, 1, 0], 2, 2) == [1, 1, 0]  # y = (1/2, 1/2, 0)
    assert _thresholds([1], 1, 1) == ([1], 1)
    with pytest.raises(ValueError, match="below the fractional budget"):
        _thresholds([3], 2, 1)
    with pytest.raises(ValueError, match="exceeds the number of sets"):
        _thresholds([1], 2, 2)


def test_cumulative_thresholds_exact():
    # y = (1/2, 3/2, 1) over den 2, and over den 4: the same cut
    for y, den in (([1, 3, 2], 2), ([2, 6, 4], 4)):
        assert _thresholds(y, den, 3) == ([1, 4, 6], 6)
    # padding raises [1/2, 1/2] to [1, 1] and still falls 1 short of k' = 3
    with pytest.raises(ValueError, match="exceeds the number of sets"):
        _thresholds([1, 1], 2, 3)


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as err:
        return type(err), str(err) if isinstance(err, ValueError) else None


@st.composite
def fractional_covers(draw):
    """(y, k'): zeros, values up to 1 on denominators from 1 to about
    2**200, point masses above 1, and k' from 0 to 40, near sum(y) or m."""
    m = draw(st.integers(1, 40))
    if draw(st.booleans()):
        q = draw(st.sampled_from([1, 2, 6]) | st.integers(1, 2**190) | st.integers(2**190, 2**200))
        dens = [q, draw(st.integers(1, 12))]
        y = []
        for _ in range(m):
            den = draw(st.sampled_from(dens))
            y.append(Fraction(draw(st.integers(0, den) | st.just(0)), den))
    else:
        mass = draw(st.integers(0, 3))
        y = [Fraction(0)] * m
        y[draw(st.integers(0, m - 1))] = Fraction(mass)
    low = math.ceil(sum(y))
    kprime = draw(st.sampled_from(sorted({low, m, min(low + 1, 40)})) | st.integers(0, 40))
    return y, kprime


@settings(max_examples=300, deadline=None)
@given(fractional_covers(), st.integers(1, 6), st.integers(0, 2**64 - 1))
@example(([Fraction(2), Fraction(0)], 2), 1, 0)  # a point mass: den = 1
@example(([Fraction(1, 2), Fraction(1, 2), Fraction(0)], 3), 1, 1)  # k' = m
def test_thresholds_and_draw_equal_the_reference(case, mult, seed):
    """y as integers over mult times the least common denominator of its
    entries: every such den gives the reference's cut."""
    y, kprime = case
    den = mult * math.lcm(*(v.denominator for v in y))
    got = outcome(_thresholds, [int(v * den) for v in y], den, kprime)
    assert got == outcome(lambda: cumulative_thresholds(pad_budget(y, kprime), kprime))
    if isinstance(got, tuple) and isinstance(got[0], list):
        cum, den = got
        assert _draw(cum, den, kprime, seed) == reference_draw(cum, den, kprime, seed), LAYOUT


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 2**64 - 1), st.integers(0, 40))
def test_draw_equals_the_reference(data, seed, kprime):
    """Any den from 1 to 2**220, rejection-heavy 2**b + 1 among them, cut at
    up to eight random thresholds."""
    den = data.draw(
        st.just(1) | st.integers(2, 2**220) | st.integers(0, 220).map(lambda b: 2**b + 1)
    )
    cuts = data.draw(st.lists(st.integers(0, den), max_size=8))
    cum = sorted(cuts) + [den]
    assert _draw(cum, den, kprime, seed) == reference_draw(cum, den, kprime, seed), LAYOUT


def test_draw_refills_after_a_run_of_rejections(monkeypatch):
    """den = 2**64 + 1 rejects about half the tries, so the two tries a
    draw of the first read run out on some seeds: the refilled stream
    still equals the reference."""
    reads = []

    class CountingPCG64(np.random.PCG64):
        def random_raw(self, size=None, output=True):
            reads.append(size)
            return super().random_raw(size, output)

    monkeypatch.setattr(np.random, "PCG64", CountingPCG64)
    den, kprime = 2**64 + 1, 40
    cum = [den * i // 100 for i in range(1, 101)]
    refilled = 0
    for seed in range(20):
        reads.clear()
        assert _draw(cum, den, kprime, seed) == reference_draw(cum, den, kprime, seed), LAYOUT
        refilled += len(reads) > 1
        # the first read holds two 12-byte tries a draw: 120 raw 64-bit outputs
        assert reads[0] == 120
    assert refilled > 0


def test_draw_builds_no_generator(monkeypatch):
    # every try is read off the candidate's bit generator: no Generator, no call per draw
    monkeypatch.setattr(np.random, "Generator", lambda *a: pytest.fail("_draw built a Generator"))
    assert _draw([1, 3], 3, 30, 7) == (1, 2)
    assert _draw([0, 1], 1, 5, 7) == (2,)
    cl = Cluster(3, 4)
    best_of_repetitions(THREE_SETS.incidence, *THREE_SETS_Y, 2, QUARTER, 9, cl)


def test_randomized_round_deterministic_sorted_dedup():
    y = [2, 2, 1, 1]  # (1, 1, 1/2, 1/2) over den 2
    a = randomized_round(y, 2, 3, seed=42)
    assert a == randomized_round(y, 2, 3, seed=42)
    assert a == tuple(sorted(set(a)))
    assert all(1 <= j <= 4 for j in a)
    assert 1 <= len(a) <= 3


def test_randomized_round_degenerate_point_mass():
    y = [2, 0]
    for seed in range(8):
        assert randomized_round(y, 1, 2, seed=seed) == (1,)


def test_draw_frequencies_track_probabilities():
    # one categorical draw (kprime=1): chance of set 1 is 1/4
    y = [1, 3]  # (1/4, 3/4) over den 4
    hits = sum(randomized_round(y, 4, 1, seed=s) == (1,) for s in range(4000))
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
    sel, cov, reps = best_of_repetitions(THREE_SETS.incidence, *THREE_SETS_Y, 2, QUARTER, 9, cl)
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
    got = best_of_repetitions(one.incidence, [1], 1, 1, QUARTER, 9, cl)
    assert got == ((1,), 2, 23)
    assert cl.log == batch_log(1, 2, 23, 4)
    assert cl.log[-1] == RoundLogEntry("round.batch[20]", 0, 0)


def test_best_of_repetitions_prefers_earliest_rep_on_ties():
    # both sets tie at coverage 1 on every draw; rep 0 must win
    sys_ = SetSystem(2, 2, 1, ((1,), (2,)))
    y = [1, 1]  # (1/2, 1/2) over den 2
    sel, cov, _ = best_of_repetitions(sys_.incidence, y, 2, 1, Fraction(1, 4), 17, Cluster(2, 2))
    assert cov == 1
    assert sel == randomized_round(y, 2, 1, seed=17 ^ 0)


def test_best_of_repetitions_finds_disjoint_pair():
    # y spread over three disjoint sets; two draws hit two distinct sets
    # in most reps, so the best candidate covers 4 elements
    sys_ = SetSystem(6, 3, 2, ((1, 2), (3, 4), (5, 6)))
    y = [2, 1, 1]  # (1, 1/2, 1/2) over den 2
    sel, cov, _ = best_of_repetitions(sys_.incidence, y, 2, 2, Fraction(1, 4), 1, Cluster(3, 6))
    assert cov == 4
    assert len(sel) == 2
