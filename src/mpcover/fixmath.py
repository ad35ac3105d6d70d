"""Deterministic fixed-point powers of two.

All weight arithmetic in the LP solver is integer arithmetic on values
scaled by 2**G.  exp2_frac computes an underestimate of 2**(num/den) on
that grid using a chain of integer square roots (2**(2**-j) factors), so
results are exact functions of the inputs, never overestimate the real
value, and are reproducible on any platform.  Relative error is below
(2*G+2) * 2**-G, which downstream consumers absorb in their slack terms.
"""

from __future__ import annotations

import math

_chain_cache: dict[int, list[int]] = {}


def _sqrt_chain(g: int) -> list[int]:
    """chain[j] = floor-approx of 2**(2**-(j+1)) * 2**g, for j in [0, g)."""
    chain = _chain_cache.get(g)
    if chain is None:
        chain = []
        cur = 2 << g  # 2.0 at scale 2**g
        for _ in range(g):
            cur = math.isqrt(cur << g)
            chain.append(cur)
        _chain_cache[g] = chain
    return chain


def exp2_frac(num: int, den: int, g: int) -> int:
    """Underestimate of 2**(num/den) * 2**g for 0 <= num < den.

    The binary expansion of num/den is truncated at g bits and the selected
    square-root factors are multiplied with truncation at every step, so the
    result is in [2**g, 2**(g+1)) and never exceeds the real value.
    """
    if not 0 <= num < den:
        raise ValueError(f"exp2_frac needs 0 <= num < den, got {num}/{den}")
    if num == 0 or g == 0:
        return 1 << g
    chain = _sqrt_chain(g)
    acc = 1 << g
    x = num
    for j in range(g):
        x <<= 1
        if x >= den:
            x -= den
            acc = (acc * chain[j]) >> g
        if x == 0:
            break
    return acc

