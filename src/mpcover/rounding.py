"""Randomized rounding of the fractional cover.

Given y with sum(y) = k', draw k' sets independently, each equal to j with
probability y_j / k', and keep the distinct ones.  An element fractionally
covered to extent x survives with probability at least (1 - 1/e) * x
(compare (1 - x/k')**k' against e**-x), so one draw already covers
(1 - 1/e) of the LP value in expectation; repeating O(log(m)/eps) times and
keeping the best candidate turns that into a high-probability bound.

Sampling is exact: the probabilities are Fractions, brought to a common
denominator D, and each draw is an unbiased integer below D obtained by
rejection on raw generator bytes.  Identical seeds give identical
selections on any platform.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from .cluster import Cluster, ceil_log2
from .instance import Incidence, union_size
from .lp import OracleSoundnessError

REP_FACTOR = 8


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


def _cumulative_thresholds(y, kprime: int) -> tuple[list[int], int]:
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


def _draw(cum: list[int], den: int, kprime: int, seed: int) -> tuple[int, ...]:
    rng = np.random.Generator(np.random.PCG64(seed))
    picked: set[int] = set()
    for _ in range(kprime):
        u = randbelow(rng, den)
        picked.add(bisect_right(cum, u) + 1)
    return tuple(sorted(picked))


def best_of_repetitions(
    inc: Incidence,
    y,
    kprime: int,
    eps: Fraction,
    seed: int,
    cluster: Cluster,
) -> tuple[tuple[int, ...], int, int]:
    """Best candidate over the repetition schedule; (selection, coverage, reps).

    The schedule draws ceil(REP_FACTOR * ln(m + 1) / eps) candidates in
    batches of ceil(1 / eps).  Candidate r is drawn with stream seed ^ r, so
    repetitions are independent but the whole schedule is replayable.  One
    broadcast ships a batch's selection masks; each candidate's coverage is
    then a converge-cast of its sets' indicator vectors, and the batch's
    casts run side by side, so the batch is charged as one converge-cast of
    their concatenation, once its candidates are drawn and checked.  Ties
    prefer the earliest candidate.
    """
    m, n = inc.shape
    reps = math.ceil(REP_FACTOR * math.log(m + 1) / float(eps))
    batch_size = max(1, math.ceil(1 / float(eps)))
    cum, den = _cumulative_thresholds(y, kprime)
    best: tuple[int, int, tuple[int, ...]] | None = None  # (-cov, rep, sel)
    for start in range(0, reps, batch_size):
        batch = range(start, min(start + batch_size, reps))
        cluster.broadcast(len(batch) * m, label="round.candidate_broadcast")
        for r in batch:
            sel = _draw(cum, den, kprime, seed ^ r)
            cov = int(np.count_nonzero(inc.take_rows([j - 1 for j in sel]).sum(axis=0)))
            if cov != union_size(inc, sel):
                raise OracleSoundnessError("converge-cast coverage disagrees with union_size()")
            cand = (-cov, r, sel)
            if best is None or cand < best:
                best = cand
        cluster.convergecast(len(batch) * n, entry_bits=1, label=f"round.batch[{start}]")
    # unreachable: the schedule draws ceil(8 * ln(m + 1) / eps) >= 1 candidates
    # for m >= 1 and eps > 0, in batches of at least 1, so the first batch draws one
    if best is None:
        raise OracleSoundnessError("the repetition schedule drew no candidate")
    return best[2], -best[0], reps
