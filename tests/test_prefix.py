"""Prefix unions, marginals and trimming."""

import pytest
from hypothesis import given, settings, strategies as st

from mpcover import Cluster, SetSystem, coverage
from mpcover.baselines import set_masks
from mpcover.cluster import ceil_log2
from mpcover.prefix import MarginalVector, prefix_coverage, trim_to_k
from test_cluster import ReplayCluster


def sequential_marginals(sys_, sel):
    """The reference scan: running union in index order."""
    seen = set()
    phis = []
    for j in sel:
        new = [e for e in sys_.sets[j - 1] if e not in seen]
        phis.append(len(new))
        seen.update(new)
    return phis


def test_marginals_hand_example():
    sys_ = SetSystem(6, 4, 2, ((1, 2, 3), (3, 4), (2, 4, 5), (6,)))
    cl = Cluster(4, 6)
    marg = prefix_coverage(sys_.incidence, (1, 2, 3, 4), cl)
    assert marg.selection == (1, 2, 3, 4)
    assert marg.phis == (3, 1, 1, 1)
    assert marg.total == coverage(sys_, (1, 2, 3, 4)) == 6


def test_selection_is_sorted_and_deduplicated():
    sys_ = SetSystem(4, 3, 1, ((1, 2), (2, 3), (4,)))
    marg = prefix_coverage(sys_.incidence, (3, 1, 1), Cluster(3, 4))
    assert marg.selection == (1, 3)
    assert marg.phis == (2, 1)


def test_empty_selection():
    sys_ = SetSystem(2, 2, 1, ((1,), (2,)))
    marg = prefix_coverage(sys_.incidence, (), Cluster(2, 2))
    assert marg == MarginalVector((), ())
    assert marg.total == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_marginals_match_sequential_scan(data):
    n = data.draw(st.integers(1, 40))
    m = data.draw(st.integers(1, min(n, 16)))
    sets = tuple(
        tuple(sorted(data.draw(st.sets(st.integers(1, n), max_size=n)))) for _ in range(m)
    )
    sys_ = SetSystem(n, m, 1, sets)
    r = data.draw(st.integers(1, m))
    sel = tuple(sorted(data.draw(st.permutations(range(1, m + 1)))[:r]))
    cl = Cluster(m, n)
    replay = ReplayCluster(m, cl.budget_bits)
    marg = prefix_coverage(sys_.incidence, sel, cl)
    # two references: the running union of the elements, and the big-int
    # mask prefix unions delivered message by message
    phis = sequential_marginals(sys_, sel)
    assert list(marg.phis) == phis == replay_marginals(sys_, sel, replay)
    assert cl.log == replay.log
    assert cl.rounds <= 3 * ceil_log2(len(sel)) + 2
    cl.check_log_consistent()


def test_round_bound_at_powers_and_odd_sizes():
    n = 8
    for r in range(1, 131):
        sys_ = SetSystem(max(n, r), r, 1, tuple((1 + i % n,) for i in range(r)))
        cl = Cluster(r, max(n, r))
        prefix_coverage(sys_.incidence, tuple(range(1, r + 1)), cl)
        assert cl.rounds <= 3 * ceil_log2(r) + 2


def replay_prefix_unions(ids, masks, n, cluster):
    """The prefix recursion message by message: every round lists its
    (sender, receiver, bits) deliveries; ids name the machines."""
    r = len(ids)
    if r == 1:
        return [masks[0]]
    if r % 2 == 1:
        pre = replay_prefix_unions(ids[:-1], masks[:-1], n, cluster)
        cluster.step_round([(ids[-2], ids[-1], n)], label="prefix.tail")
        return pre + [pre[-1] | masks[-1]]
    cluster.step_round(
        [(ids[2 * i], ids[2 * i + 1], n) for i in range(r // 2)], label="prefix.pair_up"
    )
    pair_masks = [masks[2 * i] | masks[2 * i + 1] for i in range(r // 2)]
    sub = replay_prefix_unions(ids[1::2], pair_masks, n, cluster)
    cluster.step_round(
        [(ids[2 * i + 1], ids[2 * i + 2], n) for i in range(r // 2 - 1)], label="prefix.expand"
    )
    out = [0] * r
    for i in range(r // 2):
        out[2 * i + 1] = sub[i]
        out[2 * i] = masks[2 * i] if i == 0 else sub[i - 1] | masks[2 * i]
    return out


def replay_marginals(sys_, sel, cluster):
    """The reference prefix_coverage: marginals from the big-int mask prefix
    unions, every round delivered message by message with machine 1 as
    central."""
    masks = set_masks(sys_)
    ids = list(sel)
    r = len(ids)
    prefixes = replay_prefix_unions(ids, [masks[j - 1] for j in ids], sys_.n, cluster)
    size_bits = ceil_log2(sys_.n + 1)
    if r > 1:
        cluster.step_round(
            [(ids[i - 1], ids[i], size_bits) for i in range(1, r)], label="prefix.size_shift"
        )
    cluster.step_round([(j, 1, size_bits) for j in ids if j != 1], label="prefix.phi_gather")
    return [prefixes[0].bit_count()] + [
        prefixes[i].bit_count() - prefixes[i - 1].bit_count() for i in range(1, r)
    ]


def test_prefix_charges_match_message_replay():
    for r in range(1, 73):
        # 2r sets; the odd indices hold central (set 1), the even ones do not
        n = r + 5
        sets = tuple(tuple(sorted({1 + i % n, 1 + (3 * i) % n})) for i in range(2 * r))
        sys_ = SetSystem(n, 2 * r, 1, sets)
        for sel in (tuple(range(1, 2 * r, 2)), tuple(range(2, 2 * r + 1, 2))):
            cl = Cluster(sys_.m, sys_.n)
            replay = ReplayCluster(sys_.m, cl.budget_bits)
            phis = replay_marginals(sys_, sel, replay)
            assert list(prefix_coverage(sys_.incidence, sel, cl).phis) == phis, (r, sel[0])
            assert cl.log == replay.log, (r, sel[0])


def test_trim_noop_when_within_budget():
    marg = MarginalVector((2, 5), (3, 1))
    sys_ = SetSystem(6, 5, 2, ((1, 2, 3), (1, 2, 3), (4,), (5,), (4,)))
    sel, bound = trim_to_k(sys_.incidence, marg, 2, Cluster(5, 6))
    assert sel == (2, 5)
    assert bound == 4


def test_trim_drops_smallest_marginals_ties_to_larger_index():
    sys_ = SetSystem(8, 4, 2, ((1, 2, 3), (4,), (5,), (6, 7)))
    marg = prefix_coverage(sys_.incidence, (1, 2, 3, 4), Cluster(4, 8))
    assert marg.phis == (3, 1, 1, 2)
    trimmed, bound = trim_to_k(sys_.incidence, marg, 2, Cluster(4, 8))
    # phi ties at 1 between sets 2 and 3; the larger index goes first
    assert trimmed == (1, 4)
    assert bound == 5
    assert coverage(sys_, trimmed) == 5


def test_trim_bound_is_conservative_under_overlap():
    # dropping set 2 "loses" its marginal, but set 3 re-covers element 3
    sys_ = SetSystem(5, 3, 2, ((1, 2), (3,), (3, 4, 5)))
    marg = prefix_coverage(sys_.incidence, (1, 2, 3), Cluster(3, 5))
    assert marg.phis == (2, 1, 2)
    trimmed, bound = trim_to_k(sys_.incidence, marg, 2, Cluster(3, 5))
    assert trimmed == (1, 3)
    assert bound == 4
    assert coverage(sys_, trimmed) == 5  # strictly above the bound


def test_trim_logs_one_broadcast_when_given_a_cluster():
    sys_ = SetSystem(4, 3, 1, ((1, 2), (3,), (4,)))
    marg = prefix_coverage(sys_.incidence, (1, 2, 3), Cluster(3, 4))
    cl = Cluster(3, 4)
    trim_to_k(sys_.incidence, marg, 1, cl)
    assert [e.primitive for e in cl.log] == ["trim.selection_broadcast"]
    assert cl.rounds == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trim_bound_holds_for_random_selections(data):
    n = data.draw(st.integers(2, 24))
    m = data.draw(st.integers(2, min(n, 8)))
    sets = tuple(
        tuple(sorted(data.draw(st.sets(st.integers(1, n), max_size=n)))) for _ in range(m)
    )
    k = data.draw(st.integers(1, m - 1))
    sys_ = SetSystem(n, m, k, sets)
    marg = prefix_coverage(sys_.incidence, tuple(range(1, m + 1)), Cluster(m, n))
    trimmed, bound = trim_to_k(sys_.incidence, marg, k, Cluster(m, n))
    assert len(trimmed) == k
    assert coverage(sys_, trimmed) >= bound
    # the removed mass is always the m - k smallest marginal values
    assert bound == marg.total - sum(sorted(marg.phis)[: m - k])
