"""Reference solvers used to calibrate the distributed pipeline.

These run on one machine with no accounting.  exact_opt is exponential and
refuses instances where C(m, k) is large; greedy_sequential is the usual
(1 - 1/e) yardstick and doubles as the ground truth for the distributed
greedy path, which must reproduce it pick for pick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .instance import SetSystem, coverage
from .lp import OracleSoundnessError

EXACT_OPT_LIMIT = 10**7


def set_masks(sys: SetSystem) -> tuple[int, ...]:
    """Bitmask per set, bit e-1 for element e, in O(n + |set|) per set."""
    masks = []
    for row in sys.incidence.lists():
        bits = np.zeros(sys.n, dtype=bool)
        bits[row] = True
        masks.append(int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))
    return tuple(masks)


@dataclass(frozen=True)
class OptResult:
    value: int
    selection: tuple[int, ...]


def exact_opt(sys: SetSystem) -> OptResult:
    """Best coverage over all C(m, k) selections; lexicographically
    smallest witness.  Guarded: refuses more than ten million candidates."""
    if math.comb(sys.m, sys.k) > EXACT_OPT_LIMIT:
        raise ValueError(f"C({sys.m}, {sys.k}) candidate selections is too many")
    masks = set_masks(sys)
    best_val = -1
    best_sel: tuple[int, ...] = ()
    for sel in combinations(range(1, sys.m + 1), sys.k):
        acc = 0
        for j in sel:
            acc |= masks[j - 1]
        val = acc.bit_count()
        if val > best_val:
            best_val, best_sel = val, sel
    return OptResult(best_val, best_sel)


def greedy_sequential(sys: SetSystem) -> OptResult:
    """k greedy picks, largest marginal gain first, ties to the lowest set
    index.  Selection is in pick order."""
    masks = set_masks(sys)
    covered = 0
    picks: list[int] = []
    remaining = set(range(1, sys.m + 1))
    for _ in range(sys.k):
        best_gain, best_j = -1, -1
        for j in sorted(remaining):
            gain = (masks[j - 1] & ~covered).bit_count()
            if gain > best_gain:
                best_gain, best_j = gain, j
        picks.append(best_j)
        remaining.remove(best_j)
        covered |= masks[best_j - 1]
    if covered.bit_count() != coverage(sys, picks):
        raise OracleSoundnessError("greedy's running union disagrees with coverage()")
    return OptResult(covered.bit_count(), tuple(picks))

