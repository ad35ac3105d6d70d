"""Randomized rounding of the fractional cover.

Given y padded to sum k', draw k' sets independently, each equal to j with
probability y_j / k', and keep the distinct ones.  An element fractionally
covered to extent x survives with probability at least (1 - 1/e) * x
(compare (1 - x/k')**k' against e**-x), so one draw already covers
(1 - 1/e) of the LP value in expectation; repeating O(log(m)/eps) times and
keeping the best candidate turns that into a high-probability bound.

Sampling is exact: y comes from the LP as integers over one denominator, is
padded and cut on it, and each draw is an unbiased integer, by rejection
on the raw outputs of the candidate's own PCG64 stream, the bytes
Generator.bytes would return.  Identical seeds give identical selections.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .cluster import Cluster
from .instance import Incidence, union_size
from .lp import OracleSoundnessError

REP_FACTOR = 8


def _thresholds(y, den: int, kprime: int) -> tuple[list[int], int]:
    """Pad y to sum k' and cut it into draw intervals: u in [cum[j-2],
    cum[j-1]) draws set j, with probability y_j / k'.

    y holds the integers Y_j = den * y_j, padded in ascending j towards den
    (y_j = 1) until the sum is k'*den.  With g = gcd(k'*den, Y_1, ..., Y_m),
    k'*den/g is the least common denominator of the y_j / k' for any such
    den, and cum the prefix sums of Y_j / g.
    """
    ys = list(y)
    deficit = kprime * den - sum(ys)
    if deficit < 0:
        raise ValueError("kprime below the fractional budget")
    for j, v in enumerate(ys):
        add = min(den - v, deficit) if deficit else 0
        ys[j], deficit = v + add, deficit - add
    if deficit != 0:
        raise ValueError("kprime exceeds the number of sets")
    g = math.gcd(kprime * den, *ys)
    return list(accumulate(v // g for v in ys)), kprime * den // g


def _draw(cum: list[int], den: int, kprime: int, seed: int) -> tuple[int, ...]:
    """k' draws of u uniform below den on stream `seed`, as the sorted
    distinct sets they land in.

    A try takes the next 4*ceil(nbytes/4) bytes of the stream, reads the
    first nbytes big-endian, shifts them to bits(den - 1) bits and rejects
    values >= den.  The stream is Generator(PCG64(seed)).bytes': that reads
    whole uint32 words, and PCG64 yields each 64-bit output low half first,
    so random_raw's outputs as little-endian bytes are the same bytes.
    """
    bits = (den - 1).bit_length()
    nbytes = (bits + 7) // 8
    shift = 8 * nbytes - bits
    block = 4 * -(-nbytes // 4)
    words = kprime * block // 4  # two whole tries a draw: no try straddles two reads
    bitgen = np.random.PCG64(seed)
    buf, pos = b"", 0
    picked: set[int] = set()
    for _ in range(kprime):
        while True:
            if pos + block > len(buf):
                buf, pos = bitgen.random_raw(words).astype("<u8").tobytes(), 0
            u = int.from_bytes(buf[pos : pos + nbytes], "big") >> shift
            pos += block
            if u < den:
                break
        picked.add(bisect_right(cum, u) + 1)
    return tuple(sorted(picked))


def best_of_repetitions(
    inc: Incidence,
    y,
    den: int,
    kprime: int,
    eps: Fraction,
    seed: int,
    cluster: Cluster,
) -> tuple[tuple[int, ...], int, int]:
    """Best candidate over the repetition schedule; (selection, coverage, reps).

    The schedule draws ceil(REP_FACTOR * ln(m + 1) / eps) candidates from
    y / den padded to sum k', in batches of ceil(1 / eps).  Candidate r is drawn
    with stream seed ^ r, so repetitions are independent but the whole
    schedule is replayable.  One broadcast ships a batch's selection masks;
    each candidate's coverage is then a converge-cast of its sets'
    indicator vectors, and the batch's casts run side by side, so the batch
    is charged as one converge-cast of their concatenation, once its
    candidates are drawn and checked.  Ties prefer the earliest candidate.
    """
    m, n = inc.shape
    reps = math.ceil(REP_FACTOR * math.log(m + 1) / float(eps))
    batch_size = max(1, math.ceil(1 / float(eps)))
    cum, draw_den = _thresholds(y, den, kprime)
    best: tuple[int, int, tuple[int, ...]] | None = None  # (-cov, rep, sel)
    for start in range(0, reps, batch_size):
        batch = range(start, min(start + batch_size, reps))
        cluster.broadcast(len(batch) * m, label="round.candidate_broadcast")
        for r in batch:
            sel = _draw(cum, draw_den, kprime, seed ^ r)
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
