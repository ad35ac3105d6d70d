"""Parallel prefix unions and marginal-based trimming.

Rounding can hand back more than k sets.  To trim without giving up the
coverage guarantee we need, for each selected set, its marginal: the number
of elements it is the first to cover when the selection is scanned in index
order.  Marginals sum to the coverage, and dropping a set loses at most its
own marginal, so dropping the g smallest-marginal sets keeps coverage at
least total minus their mass.

On the cluster the marginals come from a recursive prefix-union: pair
adjacent machines, recurse on the pair unions, then expand back.  Its
rounds depend on the number r of selected machines alone, so they are
charged from r, and the marginals are read off the incidence: each
element's first covering set in the selection, counted per set.  Every
round has a fixed shape and is charged as one round whose peak is the
largest inbox:

  prefix.pair_up     even level of r machines, before the r/2 subproblem:
                     each odd-position machine takes one n-bit mask; peak n
  prefix.expand      even level, after it: r/2 - 1 machines take one n-bit
                     mask each; peak n, or 0 when r = 2 (the round is
                     still charged)
  prefix.tail        odd level r > 1, after the r - 1 subproblem: the last
                     machine takes one n-bit mask; peak n
  prefix.size_shift  when r > 1: each machine but the first takes its
                     predecessor's prefix size; peak ceil(log2(n + 1))
  prefix.phi_gather  central takes the marginal of every selected machine
                     but itself; peak ceil(log2(n + 1)) times their number

A single machine needs no union round, so r machines finish in at most
3 * ceil(log2 r) + 2 rounds.  Every message is either an n-bit element mask
or a prefix size, well under the per-machine budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import Cluster, ceil_log2
from .instance import Incidence, union_size
from .lp import OracleSoundnessError


@dataclass(frozen=True)
class MarginalVector:
    """Selection in index order with each set's first-cover count."""

    selection: tuple[int, ...]
    phis: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.phis)


def _charge_unions(r: int, n: int, cluster: Cluster) -> None:
    """Charge the prefix-union recursion over r machines, one level per call."""
    if r == 1:
        return
    if r % 2 == 1:
        _charge_unions(r - 1, n, cluster)
        cluster.charge("prefix.tail", 1, n)
        return
    cluster.charge("prefix.pair_up", 1, n)
    _charge_unions(r // 2, n, cluster)
    # r // 2 - 1 messages, none when r = 2
    cluster.charge("prefix.expand", 1, n if r > 2 else 0)


def prefix_coverage(inc: Incidence, selection, cluster: Cluster) -> MarginalVector:
    """Marginals of a selection, computed over the cluster.

    Deterministic: the scan order is ascending set index, so an element's
    first covering set is the least selected set holding it, and the
    marginals are a pure function of the input.
    """
    sel = tuple(sorted(set(selection)))
    if not sel:
        return MarginalVector((), ())
    n, r = inc.shape[1], len(sel)
    _charge_unions(r, n, cluster)
    size_bits = ceil_log2(n + 1)
    if r > 1:
        cluster.charge("prefix.size_shift", 1, size_bits)
    chosen = inc.take_rows([j - 1 for j in sel])
    first = np.full(n, r)  # each element's first covering set, by position in sel; r if none
    np.minimum.at(first, chosen.ids, np.repeat(np.arange(r), np.diff(chosen.offsets)))
    phis = tuple(np.bincount(first, minlength=r + 1)[:r].tolist())
    # every selected machine but central sends central its marginal
    senders = r - (cluster.central in sel)
    cluster.charge("prefix.phi_gather", 1, size_bits * senders)
    if sum(phis) != union_size(inc, sel):
        raise OracleSoundnessError("marginals do not sum to the selection's coverage")
    return MarginalVector(sel, phis)


def trim_to_k(inc: Incidence, marginals: MarginalVector, k: int, cluster: Cluster):
    """Drop the r - k smallest-marginal sets; ties drop the larger index.

    Returns (trimmed selection, coverage lower bound).  The bound, total
    marginal mass minus the dropped mass, is checked against the true
    trimmed coverage: each surviving set still covers everything it was
    first to cover.
    """
    sel, phis = marginals.selection, marginals.phis
    r = len(sel)
    if r <= k:
        return sel, marginals.total
    order = sorted(range(r), key=lambda i: (phis[i], -sel[i]))
    dropped = set(order[: r - k])
    trimmed = tuple(sel[i] for i in range(r) if i not in dropped)
    bound = marginals.total - sum(phis[i] for i in dropped)
    cluster.broadcast(inc.shape[0], label="trim.selection_broadcast")
    actual = union_size(inc, trimmed)
    if actual < bound:
        raise OracleSoundnessError(f"trim bound {bound} exceeds actual coverage {actual}")
    return trimmed, bound
