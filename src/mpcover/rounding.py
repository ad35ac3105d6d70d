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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cluster import Cluster, ceil_log2
from .instance import Incidence, union_size
from .lp import OracleSoundnessError

REP_FACTOR = 8


@dataclass(frozen=True)
class RoundingConfig:
    eps: Fraction
    seed: int

    @property
    def batch_size(self) -> int:
        return max(1, math.ceil(1 / float(self.eps)))

    def repetitions(self, m: int) -> int:
        return math.ceil(REP_FACTOR * math.log(m + 1) / float(self.eps))


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
    config: RoundingConfig,
    cluster: Cluster,
) -> tuple[tuple[int, ...], int, int]:
    """Best candidate over the repetition schedule; (selection, coverage, reps).

    Candidate r is drawn with stream seed ^ r, so repetitions are
    independent but the whole schedule is replayable.  Candidates are
    checked in batches: one broadcast ships a batch of selection masks,
    then each candidate's coverage is a converge-cast of per-set indicator
    vectors in its own parallel lane.  Ties prefer the earliest candidate.
    """
    m, n = inc.shape
    reps = config.repetitions(m)
    cum, den = _cumulative_thresholds(y, kprime)
    best: tuple[int, int, tuple[int, ...]] | None = None  # (-cov, rep, sel)
    for start in range(0, reps, config.batch_size):
        batch = range(start, min(start + config.batch_size, reps))
        cluster.broadcast(len(batch) * m, label="round.candidate_broadcast")
        lanes = []
        for r in batch:
            sel = _draw(cum, den, kprime, config.seed ^ r)
            lane = cluster.lane()
            lane.convergecast(n, entry_bits=1, label="round.coverage_cast")
            cov = int(np.count_nonzero(inc.take_rows([j - 1 for j in sel]).sum(axis=0)))
            if cov != union_size(inc, sel):
                raise OracleSoundnessError("converge-cast coverage disagrees with union_size()")
            lanes.append(lane)
            cand = (-cov, r, sel)
            if best is None or cand < best:
                best = cand
        cluster.absorb_parallel(lanes, label=f"round.batch[{start}]")
    # unreachable: repetitions(m) = ceil(8 * ln(m + 1) / eps) >= 1 for m >= 1 and
    # eps > 0, and batch_size >= 1, so the first batch draws a candidate
    if best is None:
        raise OracleSoundnessError("the repetition schedule drew no candidate")
    return best[2], -best[0], reps
