"""Parallel prefix unions and marginal-based trimming.

Rounding can hand back more than k sets.  To trim without giving up the
coverage guarantee we need, for each selected set, its marginal: the number
of elements it is the first to cover when the selection is scanned in index
order.  Marginals sum to the coverage, and dropping a set loses at most its
own marginal, so dropping the g smallest-marginal sets keeps coverage at
least total minus their mass.

The marginals come from a recursive prefix-union: pair adjacent machines,
recurse on the pair unions, then expand back.  An even level costs two
rounds plus the half-size subproblem, an odd level peels the last machine
for one round, so r machines finish in at most 3 * ceil(log2 r) rounds,
plus one round to ship each predecessor's prefix size and one to gather
the marginals.  Every message is either an n-bit element mask or a prefix
size, well under the per-machine budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import Cluster, ceil_log2
from .instance import SetSystem, coverage, set_masks
from .lp import OracleSoundnessError


@dataclass(frozen=True)
class MarginalVector:
    """Selection in index order with each set's first-cover count."""

    selection: tuple[int, ...]
    phis: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.phis)


def _prefix_unions(ids: list[int], masks: list[int], n: int, cluster: Cluster) -> list[int]:
    """Prefix-or of masks, one recursion level per call; ids name machines."""
    r = len(ids)
    if r == 1:
        return [masks[0]]
    if r % 2 == 1:
        pre = _prefix_unions(ids[:-1], masks[:-1], n, cluster)
        cluster.step_round([(ids[-2], ids[-1], n)], label="prefix.tail")
        return pre + [pre[-1] | masks[-1]]
    cluster.step_round(
        [(ids[2 * i], ids[2 * i + 1], n) for i in range(r // 2)], label="prefix.pair_up"
    )
    pair_masks = [masks[2 * i] | masks[2 * i + 1] for i in range(r // 2)]
    sub = _prefix_unions(ids[1::2], pair_masks, n, cluster)
    cluster.step_round(
        [(ids[2 * i + 1], ids[2 * i + 2], n) for i in range(r // 2 - 1)], label="prefix.expand"
    )
    out = [0] * r
    for i in range(r // 2):
        out[2 * i + 1] = sub[i]
        out[2 * i] = masks[2 * i] if i == 0 else sub[i - 1] | masks[2 * i]
    return out


def prefix_coverage(sys: SetSystem, selection, cluster: Cluster) -> MarginalVector:
    """Marginals of a selection, computed over the cluster.

    Deterministic: the scan order is ascending set index, so the marginal
    vector is a pure function of the instance and the selection.
    """
    sel = tuple(sorted(set(selection)))
    if not sel:
        return MarginalVector((), ())
    masks = set_masks(sys)
    ids = list(sel)
    r = len(ids)
    prefixes = _prefix_unions(ids, [masks[j - 1] for j in ids], sys.n, cluster)
    size_bits = ceil_log2(sys.n + 1)
    if r > 1:
        cluster.step_round(
            [(ids[i - 1], ids[i], size_bits) for i in range(1, r)], label="prefix.size_shift"
        )
    phis = [prefixes[0].bit_count()]
    for i in range(1, r):
        phis.append(prefixes[i].bit_count() - prefixes[i - 1].bit_count())
    cluster.step_round(
        ((ids[i], cluster.central, size_bits) for i in range(r) if ids[i] != cluster.central),
        label="prefix.phi_gather",
    )
    if sum(phis) != coverage(sys, sel):
        raise OracleSoundnessError("marginals do not sum to the selection's coverage")
    return MarginalVector(sel, tuple(phis))


def trim_to_k(sys: SetSystem, marginals: MarginalVector, k: int, cluster: Cluster):
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
    cluster.broadcast(sys.m, label="trim.selection_broadcast")
    actual = coverage(sys, trimmed)
    if actual < bound:
        raise OracleSoundnessError(f"trim bound {bound} exceeds actual coverage {actual}")
    return trimmed, bound
