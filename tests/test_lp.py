"""Multiplicative-weights LP solver: exactness, frozen fixed points, contract."""

from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import mpcover.lp as lp_mod
from mpcover import Cluster, OracleSoundnessError, SetSystem, generate_random
from mpcover.cluster import ceil_log2
from mpcover.instance import frequency, normalize_covered
from mpcover.lp import (
    FractionalPair,
    LpContext,
    WeightAccumulator,
    _check_pair,
    _mwu,
    guess_grid,
    iteration_count,
    oracle_step,
    round_eps_down,
    scale_to_pi0,
    solve_pi1,
)
from test_baselines import TruncatedPQ
from test_instance import dense_incidence

CHAIN = SetSystem(4, 3, 2, ((1, 2), (2, 3), (3, 4)))
CHAIN_F = frequency(CHAIN)
QUARTER = Fraction(1, 4)
# three frequency classes: f = 1, 2 and 4
MULTI = SetSystem(9, 5, 2, ((1, 2, 3, 4), (2, 3, 5, 6), (3, 6, 7, 8), (1, 3, 4, 7), (5, 8, 9)))


def chain_ctx() -> LpContext:
    return LpContext(CHAIN, QUARTER)


def truncated_pq(ctx: LpContext, w) -> TruncatedPQ:
    """The oracle's costs at weights w: p_i = w_i // f_i and q_j = the sum
    of p over set j."""
    p = tuple(wi // fv for wi, fv in zip(w, ctx.f))
    return TruncatedPQ(p, tuple(sum(p[i] for i in row) for row in ctx.rows), ctx.b)


def sparse(errors) -> dict[int, int]:
    """The nonzero entries of a dense error row, as update() takes them."""
    return {i: int(e) for i, e in enumerate(errors) if e}


def drive_to(acc: WeightAccumulator, target) -> None:
    """Move the accumulator to `target` through update(), at most 2n per
    entry and step, as the solver's own error rows would."""
    lim = 2 * acc.n
    target = np.asarray(target, dtype=np.int64)
    while acc.a != target.tolist():
        acc.update(sparse(np.clip(target - acc.a, -lim, lim)))


@contextmanager
def recording_charges(charges: list):
    """Record every Cluster.charge as (label, rounds, peak)."""
    charge = Cluster.charge

    def recorded_charge(cluster, label, rounds, peak):
        charges.append((label, rounds, peak))
        return charge(cluster, label, rounds, peak)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Cluster, "charge", recorded_charge)
        yield


def covered_instance(seed: int, data) -> SetSystem:
    """A small random covered instance with at least two frequency classes
    and a drawn k."""
    n = data.draw(st.integers(5, 12), label="n")
    m = data.draw(st.integers(2, 5), label="m")
    raw = generate_random(n, m, 1, density=0.5, seed=seed)
    assume(any(raw.sets))  # normalize_covered rejects an instance covering nothing
    covered = normalize_covered(raw)[0]
    assume(covered.n >= 4 and len(set(frequency(covered))) >= 2)
    k = data.draw(st.integers(1, covered.m), label="k")
    return SetSystem(covered.n, covered.m, k, covered.sets)


def random_point(ctx: LpContext, data) -> tuple[list[int], list[int], list[int]]:
    """Random oracle picks: any chosen elements x, any split of the sets into
    the m - k kept (z) and the k left out (y)."""
    x_idx = data.draw(st.lists(st.integers(0, ctx.n - 1), unique=True), label="x")
    order = data.draw(st.permutations(range(ctx.m)), label="sets")
    return x_idx, order[: ctx.m - ctx.k], order[ctx.m - ctx.k :]


# -- parameters ------------------------------------------------------------


def test_round_eps_down():
    assert round_eps_down(Fraction(1, 4)) == (Fraction(1, 4), 2)
    assert round_eps_down(Fraction(1, 8)) == (Fraction(1, 8), 3)
    assert round_eps_down(Fraction(1, 10)) == (Fraction(1, 16), 4)
    assert round_eps_down(Fraction(3, 16)) == (Fraction(1, 8), 3)
    for bad in (Fraction(0), Fraction(1, 3), Fraction(1)):
        with pytest.raises(ValueError):
            round_eps_down(bad)


def test_iteration_count():
    assert iteration_count(4, Fraction(1, 4)) == 70
    # quartering eps multiplies T by 16, up to the ceil
    t1 = iteration_count(100, Fraction(1, 8))
    t2 = iteration_count(100, Fraction(1, 32))
    assert 15.9 < t2 / t1 < 16.1


def test_weight_accumulator_bounds():
    three = SetSystem(3, 2, 1, ((1, 2), (2, 3)))
    ctx = LpContext(three, QUARTER)
    acc = WeightAccumulator(ctx)
    acc.update({0: 6, 1: -6})
    assert acc.t == 1
    # the range counts the errors left implicit at 0
    with pytest.raises(
        OracleSoundnessError, match=r"^per-iteration error outside \[-2n, 2n\]: 0\.\.7$"
    ):
        acc.update({0: 7})
    with pytest.raises(
        OracleSoundnessError, match=r"^per-iteration error outside \[-2n, 2n\]: -7\.\.1$"
    ):
        acc.update({0: -7, 1: 1, 2: 1})
    # with every entry moved there are no implicit zeros
    with pytest.raises(
        OracleSoundnessError, match=r"^per-iteration error outside \[-2n, 2n\]: 1\.\.7$"
    ):
        acc.update({0: 7, 1: 1, 2: 1})
    acc2 = WeightAccumulator(ctx)
    acc2.a[0] = 13  # stale state beyond 2*n*t after one update
    with pytest.raises(OracleSoundnessError, match=r"^accumulator magnitude exceeded 2\*n\*t$"):
        acc2.update({0: 0})


def test_context_validation():
    ctx = chain_ctx()
    assert ctx.f == CHAIN_F and ctx.k == CHAIN.k
    # element 4 lies in no set
    uncovered = SetSystem(4, 2, 1, ((1, 2), (2, 3)))
    with pytest.raises(
        ValueError, match="^every element must lie in some set; normalize the instance first$"
    ):
        LpContext(uncovered, QUARTER)
    # m + 1 must stay under n**4 for the truncation slack to mean anything
    wide = SetSystem(20, 20, 1, tuple((j,) for j in range(1, 21)))
    small = SetSystem(2, 2, 1, ((1,), (2,)))
    LpContext(wide, QUARTER)
    with pytest.raises(ValueError, match="accumulator|broadcast"):
        LpContext(small, Fraction(1, 2**12))


# -- weights and the oracle ------------------------------------------------


def test_uniform_weights_and_oracle_step():
    ctx = chain_ctx()
    acc = WeightAccumulator(ctx)
    st_ = oracle_step(ctx, acc, 3)
    pq = truncated_pq(ctx, list(acc.w))
    one = 1 << ctx.b
    assert pq.p_scaled == (one, one // 2, one // 2, one)
    assert pq.q_scaled == (3 * one // 2, one, 3 * one // 2)
    assert st_.x_idx == [1, 2, 0]
    assert st_.z_idx == [1]
    assert st_.y_idx == [0, 2]
    assert st_.lhs_hat_scaled == 3 * one
    assert st_.sum_w_scaled == 4 * one
    assert st_.feasible
    charges = []
    with recording_charges(charges):
        _mwu(ctx, 3, Cluster(3, 4))
    # the oracle's two rounds: cost gather, then the point broadcast
    assert [c[:2] for c in charges[:2]] == [
        ("oracle.cost_gather", 1),
        ("oracle.point_broadcast", 1),
    ]


def test_weights_cap_is_enforced():
    ctx = chain_ctx()
    a = np.zeros(4, dtype=np.int64)
    a[0] = -(ctx.wcap_log2 + 1) * ctx.d[0]
    with pytest.raises(OracleSoundnessError, match="^weight above the 4n\\^2 potential cap$"):
        ctx.weights(a)
    # each weight 2**6 stays under its own cap; together they pass 4n^2 = 64
    assert 6 <= ctx.wcap_log2
    with pytest.raises(OracleSoundnessError, match="^weight sum above the 4n\\^2 potential cap$"):
        ctx.weights(np.array([-6 * d for d in ctx.d]))


# x = elements 1..3, z = set 2: x_i + cnt_i per element
CHAIN_COVER = [1 + 0, 1 + 1, 1 + 1, 0 + 0]


def chain_point(ctx: LpContext) -> tuple[WeightAccumulator, dict[int, int]]:
    """Uniform weights and the errors of the point behind CHAIN_COVER: the
    kept set 2 leaves sets 1 and 3 out."""
    acc = WeightAccumulator(ctx)
    moves = ctx.moves([0, 1, 2], [0, 2])
    assert [fv - moves.get(i, 0) for i, fv in enumerate(CHAIN_F)] == CHAIN_COVER
    return acc, moves


def test_exact_check_rejects_tampered_values():
    ctx = chain_ctx()
    acc, moves = chain_point(ctx)
    w, total, cover = acc.w, acc.total, CHAIN_COVER
    lhs = sum(w[i] * cover[i] // CHAIN_F[i] for i in range(4))
    ctx.exact_check(acc, lhs, total, moves, True)
    with pytest.raises(OracleSoundnessError, match="truncated objective exceeds the exact one"):
        ctx.exact_check(acc, lhs + (1 << ctx.b), total, moves, True)
    with pytest.raises(OracleSoundnessError, match="accepted point violates the weighted budget"):
        ctx.exact_check(acc, lhs, total // 4, moves, True)


def test_exact_check_rejects_truncation_loss():
    ctx = chain_ctx()
    acc, moves = chain_point(ctx)
    w, total, cover = acc.w, acc.total, CHAIN_COVER
    lhs = sum(w[i] * cover[i] // CHAIN_F[i] for i in range(4))
    # a truncated objective 1/n^5 below the exact one is still sound ...
    ctx.exact_check(acc, lhs - (1 << ctx.b) // ctx.n_pow5, total, moves, False)
    # ... one that lost half of it is not, accepted or rejected
    for feasible in (True, False):
        with pytest.raises(OracleSoundnessError, match="truncation lost more than 1/n\\^5"):
            ctx.exact_check(acc, lhs // 2, total, moves, feasible)


# -- the lane's maintained state ---------------------------------------------


def test_weight_cap_fires_on_an_entry_changed_mid_run():
    ctx = chain_ctx()
    acc = WeightAccumulator(ctx)
    oracle_step(ctx, acc, 3)
    target = np.zeros(4, dtype=np.int64)
    target[2] = -(ctx.wcap_log2 + 1) * ctx.d[2]
    with pytest.raises(OracleSoundnessError, match="^weight above the 4n\\^2 potential cap$"):
        drive_to(acc, target)


def test_weight_sum_cap_fires_mid_run():
    ctx = chain_ctx()
    acc = WeightAccumulator(ctx)
    oracle_step(ctx, acc, 3)
    # each weight 2**6 stays under its own cap; together they pass 4n^2 = 64
    drive_to(acc, [-6 * d for d in ctx.d])
    assert 6 <= ctx.wcap_log2
    with pytest.raises(OracleSoundnessError, match="^weight sum above the 4n\\^2 potential cap$"):
        oracle_step(ctx, acc, 3)


def test_set_cost_width_check_fires():
    ctx = chain_ctx()
    acc = WeightAccumulator(ctx)
    oracle_step(ctx, acc, 3)
    # a set cost one bit wider than its message, in the lane's kept state
    acc.q[1] = 1 << ctx.qhat_bits
    with pytest.raises(OracleSoundnessError, match="^set cost outgrew its message width$"):
        oracle_step(ctx, acc, 3)


def assert_state_matches_scratch(ctx: LpContext, acc: WeightAccumulator) -> None:
    """The accumulator's kept w, total, p, q and |A|max equal a from-scratch
    derivation at its current values."""
    assert acc.absmax == max(map(abs, acc.a))
    assert acc.at_max == [abs(v) for v in acc.a].count(acc.absmax)
    w, total = ctx.weights(acc.a)
    assert acc.w == w
    assert acc.total == total
    pq = truncated_pq(ctx, w)
    assert tuple(acc.p) == pq.p_scaled and tuple(acc.q) == pq.q_scaled


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_maintained_state_matches_from_scratch(seed, data):
    n = data.draw(st.integers(5, 9), label="n")
    m = data.draw(st.integers(3, 5), label="m")
    raw = generate_random(n, m, 2, density=0.5, seed=seed)
    assume(any(raw.sets))  # normalize_covered rejects an instance covering nothing
    sys_ = normalize_covered(raw)[0]
    f = frequency(sys_)
    assume(sys_.n >= 4 and len(set(f)) >= 2)
    n = sys_.n
    ctx = LpContext(sys_, QUARTER)
    lo = np.array([-3 * d for d in ctx.d])  # c <= 3 keeps the weight sum under 4n^2
    hi = -lo
    acc = WeightAccumulator(ctx)
    length = data.draw(st.integers(0, n), label="length")

    def update_and_compare(errors):
        acc.update(sparse(errors))
        assert_state_matches_scratch(ctx, acc)

    assert_state_matches_scratch(ctx, acc)
    # a ramp down to c = 3 and back up to c < 0 on every entry ...
    crossed = np.zeros(n, dtype=bool)
    for target in (lo, hi):
        while acc.a != target.tolist():
            before = np.array(acc.a)
            update_and_compare(np.clip(target - before, -2 * n, 2 * n))
            crossed |= (before <= 0) & (np.array(acc.a) > 0)  # shift c >= 0, then c < 0
    assert crossed.all()
    # ... then random moves
    moves = data.draw(
        st.lists(st.lists(st.integers(-2 * n, 2 * n), min_size=n, max_size=n), max_size=12),
        label="moves",
    )
    for move in moves:
        a = np.array(acc.a)
        update_and_compare(np.clip(a + np.array(move), lo, hi) - a)
    # the oracle reads the kept total
    assert oracle_step(ctx, acc, length).sum_w_scaled == acc.total


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_absmax_and_its_count_follow_sparse_moves(data):
    """|A|max and the count of entries at it stay exact under moves of a
    few entries, where an entry at the max can move toward 0 alone."""
    ctx = LpContext(MULTI, QUARTER)
    acc = WeightAccumulator(ctx)
    for _ in range(data.draw(st.integers(1, 25), label="updates")):
        moves = data.draw(
            st.dictionaries(st.integers(0, ctx.n - 1), st.integers(-3, 3), max_size=3),
            label="moves",
        )
        # keep every accumulator within the weight cap: |A_i| <= 2 d_i
        moves = {i: e for i, e in moves.items() if abs(acc.a[i] + e) <= 2 * ctx.d[i]}
        acc.update(moves)
        assert acc.absmax == max(map(abs, acc.a))
        assert acc.at_max == [abs(v) for v in acc.a].count(acc.absmax)


@contextmanager
def counting_derivations(counts: dict):
    """Count, from outside the solver, the lanes, full weight derivations,
    per-element re-derivations outside them, and the nonzero error entries
    handed to update()."""
    weights, rederive, update = LpContext.weights, LpContext.rederive, WeightAccumulator.update
    step = lp_mod.oracle_step
    lanes: dict[int, WeightAccumulator] = {}  # keeps each lane alive, so ids stay distinct
    in_full = [False]
    counts.update(full=0, rederived=0, nonzero=0)

    def counted_weights(ctx, a):
        counts["full"] += 1
        in_full[0] = True
        try:
            return weights(ctx, a)
        finally:
            in_full[0] = False

    def counted_rederive(ctx, idx, a_vals):
        if not in_full[0]:
            counts["rederived"] += len(idx)
        return rederive(ctx, idx, a_vals)

    def counted_update(acc, moves):
        counts["nonzero"] += sum(1 for e in moves.values() if e)
        return update(acc, moves)

    def counted_step(ctx, acc, length):
        lanes[id(acc)] = acc
        counts["lanes"] = len(lanes)
        return step(ctx, acc, length)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LpContext, "weights", counted_weights)
        mp.setattr(LpContext, "rederive", counted_rederive)
        mp.setattr(WeightAccumulator, "update", counted_update)
        mp.setattr(lp_mod, "oracle_step", counted_step)
        yield


@pytest.mark.parametrize("sys_, length", [(CHAIN, 3), (MULTI, 7)], ids=["chain", "multi"])
def test_weights_rederived_only_where_the_accumulator_moved(sys_, length):
    counts: dict = {}
    ctx = LpContext(sys_, QUARTER)
    with counting_derivations(counts):
        pair = _mwu(ctx, length, Cluster(sys_.m, sys_.n))
    assert pair is not None
    assert counts["lanes"] == counts["full"] == 1
    assert counts["rederived"] == counts["nonzero"] > 0
    # one full derivation per lane, also across a guess batch
    with counting_derivations(counts):
        res = solve_pi1(LpContext(sys_, QUARTER), Cluster(sys_.m, sys_.n))
    guesses = len(res.feasible_guesses) + len(res.infeasible_guesses)
    assert counts["lanes"] == counts["full"] == guesses > 1
    assert counts["rederived"] == counts["nonzero"] > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_moves_are_the_nonzero_dense_errors(seed, data):
    ctx = LpContext(covered_instance(seed, data), QUARTER)
    n, f = ctx.n, ctx.f
    x_idx, z_idx, y_idx = random_point(ctx, data)
    x_ind = np.zeros(n, dtype=np.int64)
    x_ind[x_idx] = 1
    cnt = dense_incidence(ctx.sys)[z_idx].sum(axis=0)
    moves = ctx.moves(x_idx, y_idx)
    assert moves == sparse(np.array(f) - x_ind - cnt)
    assert [fv - moves.get(i, 0) for i, fv in enumerate(f)] == (x_ind + cnt).tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_exact_check_from_moves_equals_the_dense_sum(seed, data):
    ctx = LpContext(covered_instance(seed, data), QUARTER)
    n, lcm = ctx.n, ctx.f_lcm
    acc = WeightAccumulator(ctx)
    # a random kept state, c <= 3 keeping the weight sum under 4n^2
    drive_to(acc, [data.draw(st.integers(-3 * d, 3 * d), label="a") for d in ctx.d])
    x_idx, z_idx, y_idx = random_point(ctx, data)
    moves = ctx.moves(x_idx, y_idx)
    x_ind = np.zeros(n, dtype=np.int64)
    x_ind[x_idx] = 1
    cover = (x_ind + dense_incidence(ctx.sys)[z_idx].sum(axis=0)).tolist()
    dense = sum(wi * ci * lf for wi, ci, lf in zip(acc.w, cover, ctx.lcm_over_f))
    w = acc.w
    assert lcm * acc.total - sum(w[i] * e * ctx.lcm_over_f[i] for i, e in moves.items()) == dense
    # exact_check reads that sum: the floor of lhs passes, one unit above it does not
    ctx.exact_check(acc, dense // lcm, acc.total, moves, False)
    with pytest.raises(OracleSoundnessError, match="^truncated objective exceeds the exact one$"):
        ctx.exact_check(acc, dense // lcm + 1, acc.total, moves, False)


# -- the weight-update loop ------------------------------------------------


def test_mwu_fixed_point_full_objective():
    cl = Cluster(3, 4)
    ctx = chain_ctx()
    pair = _mwu(ctx, 4, cl)
    assert ctx.t_total == 70
    assert pair.sum_x == (70, 70, 70, 70)
    assert pair.sum_z == (0, 70, 0)
    assert pair.rounds_t == 70
    # 2 oracle rounds + cover-count cast + accumulator broadcast, per iteration
    assert cl.rounds == 70 * (2 + ceil_log2(3) + 1)
    assert [e.primitive for e in cl.log] == ["mwu[L=4]"]


def test_mwu_fixed_point_shorter_objective():
    pair = _mwu(chain_ctx(), 3, Cluster(3, 4))
    assert pair.sum_x == (35, 70, 70, 35)
    assert pair.sum_z == (21, 28, 21)


SINGLES = SetSystem(4, 4, 1, ((1,), (2,), (3,), (4,)))


def test_mwu_detects_infeasible_guess_in_two_rounds():
    cl = Cluster(4, 4)
    ctx = LpContext(SINGLES, QUARTER)
    assert _mwu(ctx, 4, cl) is None
    assert cl.rounds == 2


@contextmanager
def recording_iterations(records: list):
    """Record every MWU iteration from outside the solver: the iteration
    index, the oracle's verdict and truncated sums, and the accumulator
    right after its update."""
    step, update = lp_mod.oracle_step, WeightAccumulator.update

    def recorded_step(ctx, acc, length):
        st_ = step(ctx, acc, length)
        records.append(
            {
                "t": acc.t,
                "feasible": st_.feasible,
                "lhs_hat_scaled": st_.lhs_hat_scaled,
                "sum_w_scaled": st_.sum_w_scaled,
            }
        )
        return st_

    def recorded_update(acc, moves):
        update(acc, moves)
        records[-1]["acc_absmax"] = max(map(abs, acc.a))
        records[-1]["acc_t"] = acc.t

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_mod, "oracle_step", recorded_step)
        mp.setattr(WeightAccumulator, "update", recorded_update)
        yield


def replay_loop_charges(ctx: LpContext, length: int) -> str:
    """Run _mwu on a fresh lane and check its coalesced entry, rounds and
    peak against a reference lane that charges each recorded iteration
    through the primitives: the cost gather, then the point or reject
    broadcast, then the cover-count cast and the accumulator broadcast.
    Returns the guess's outcome."""
    n, m = ctx.n, ctx.m
    records, charges = [], []
    lane = Cluster(m, n).lane()
    with recording_iterations(records), recording_charges(charges):
        pair = _mwu(ctx, length, lane)
    ref = Cluster(m, n).lane()
    with ref.coalesce(f"mwu[L={length}]"):
        for r in records:
            ref.gather(ctx.qhat_bits, label="oracle.cost_gather")
            if r["feasible"]:
                ref.broadcast(n + m, label="oracle.point_broadcast")
                ref.convergecast(n, entry_bits=1, label="mwu.cover_count")
                ref.broadcast(n * ctx.abits, label="mwu.acc_broadcast")
            else:
                ref.broadcast(1, label="oracle.reject_broadcast")
    assert lane.log == ref.log
    assert (lane.rounds, lane.peak_inbox_bits) == (ref.rounds, ref.peak_inbox_bits)
    # iteration 1, the later accepted ones at once, and a rejection's two
    assert len(charges) <= 4 + 1 + 2
    if pair is not None:
        assert len(records) == ctx.t_total and all(r["feasible"] for r in records)
        return "accepted"
    assert not records[-1]["feasible"] and all(r["feasible"] for r in records[:-1])
    return "rejected at 1" if len(records) == 1 else "rejected later"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_loop_charges_equal_a_per_iteration_replay(seed, data):
    ctx = LpContext(covered_instance(seed, data), QUARTER)
    length = data.draw(st.sampled_from(guess_grid(ctx.n, ctx.eps)), label="length")
    event(replay_loop_charges(ctx, length))


# guess 8 passes three oracle calls and is rejected at the fourth
LATE_REJECT = SetSystem(8, 4, 2, ((3, 4, 5, 6, 7), (1, 3, 5, 8), (1, 2, 3, 4, 5, 6), (2, 3)))


@pytest.mark.parametrize(
    "sys_, length, outcome",
    [(CHAIN, 3, "accepted"), (SINGLES, 4, "rejected at 1"), (LATE_REJECT, 8, "rejected later")],
    ids=["accepted", "rejected-at-1", "rejected-later"],
)
def test_loop_charges_replay_each_outcome(sys_, length, outcome):
    assert replay_loop_charges(LpContext(sys_, QUARTER), length) == outcome


def test_mwu_per_iteration_records():
    records = []
    with recording_iterations(records):
        pair = _mwu(chain_ctx(), 2, Cluster(3, 4))
    assert pair is not None
    assert len(records) == 70
    assert all(r["feasible"] for r in records)
    assert [r["t"] for r in records] == list(range(70))
    for r in records:
        assert r["acc_absmax"] <= 2 * 4 * r["acc_t"]
        assert r["lhs_hat_scaled"] <= r["sum_w_scaled"]


# -- guesses, batching, rescaling ------------------------------------------


def test_guess_grid():
    assert guess_grid(10, Fraction(1)) == [1, 2, 4, 8, 10]
    assert guess_grid(5, Fraction(1, 2)) == [1, 2, 3, 5]
    grid = guess_grid(60, Fraction(1, 8))
    assert grid[0] == 1 and grid[-1] == 60
    assert grid == sorted(set(grid))
    with pytest.raises(ValueError):
        guess_grid(0, Fraction(1, 4))


def test_solve_pi1_chain():
    cl = Cluster(3, 4)
    ctx = chain_ctx()
    res = solve_pi1(ctx, cl)
    assert res.l_star == 4
    assert res.pair.sum_x == (70, 70, 70, 70)
    assert res.feasible_guesses == (1, 2, 3, 4)
    assert res.infeasible_guesses == ()
    assert ctx.eps == QUARTER
    labels = [e.primitive for e in cl.log]
    assert labels == ["pi1.batch[1..3]", "pi1.batch[4..4]"]
    cl.check_log_consistent()


def test_solve_pi1_nothing_feasible_shape(monkeypatch):
    # l_star = 1 is always reachable on a covered instance, so force the
    # all-rejected branch to pin its result shape
    monkeypatch.setattr(lp_mod, "_mwu", lambda ctx, length, cluster: None)
    res = solve_pi1(chain_ctx(), Cluster(3, 4))
    assert res.l_star == 0
    assert res.pair is None
    assert res.feasible_guesses == ()
    assert res.infeasible_guesses == (1, 2, 3, 4)


def test_scale_to_pi0_chain():
    ctx = chain_ctx()
    res = solve_pi1(ctx, Cluster(3, 4))
    sol = scale_to_pi0(ctx, res.pair)
    assert sol.sigma == 0
    assert sol.objective == 4
    assert sol.budget_used == 2
    assert sol.y == (1, 0, 1)
    assert sol.x == (1, 1, 1, 1)


def test_scale_to_pi0_invariants_hold_under_slack():
    sys_ = SetSystem(6, 4, 2, ((1, 2, 3), (3, 4), (4, 5, 6), (1, 6)))
    ctx = LpContext(sys_, QUARTER)
    res = solve_pi1(ctx, Cluster(4, 6))
    sol = scale_to_pi0(ctx, res.pair)
    assert 0 <= sol.sigma <= Fraction(7, 5) * QUARTER
    assert sol.budget_used <= 2 + 2 * QUARTER * 4
    member = {i: [j for j, s in enumerate(sys_.sets) if i in s] for i in range(1, 7)}
    for i in range(1, 7):
        assert sol.x[i - 1] <= sum((sol.y[j] for j in member[i]), Fraction(0))


# -- checks on a tampered LP result ------------------------------------------


def test_check_pair_rejects_a_tampered_pair():
    ctx = chain_ctx()
    # sum(x) = 2 at guess 1, t = 1
    with pytest.raises(OracleSoundnessError, match="^averaged iterate left the region$"):
        _check_pair(ctx, 1, FractionalPair((1, 1, 0, 0), (1, 0, 0), 1))
    # in the region, but element 1 is covered twice with f_1 = 1
    with pytest.raises(
        OracleSoundnessError, match="^constraint 1 exceeds the 1 \\+ 1\\.4\\*eps slack$"
    ):
        _check_pair(ctx, 1, FractionalPair((1, 0, 0, 0), (1, 0, 0), 1))


def test_scale_to_pi0_rejects_a_tampered_pair():
    over = FractionalPair((1, 0, 0, 0), (1, 0, 0), 1)
    with pytest.raises(
        OracleSoundnessError, match="^constraint excess beyond the solver contract$"
    ):
        scale_to_pi0(chain_ctx(), over)
    # all-zero sums keep every y_j = 1: a budget of m = 3 > 1 + 2 * eps * m
    chain_k1 = SetSystem(4, 3, 1, CHAIN.sets)
    zeros = FractionalPair((0, 0, 0, 0), (0, 0, 0), 1)
    with pytest.raises(OracleSoundnessError, match="^rescaled budget exceeds k \\+ 2\\*eps\\*m$"):
        scale_to_pi0(LpContext(chain_k1, QUARTER), zeros)


# -- the solver contract, property based -----------------------------------


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 7), st.integers(2, 4))
def test_mwu_contract_random_instances(seed, n, m):
    k = 1 + seed % m
    sys_ = generate_random(n, m, k, density=0.55, seed=seed)
    f = frequency(sys_)
    if not all(f):
        return
    ctx = LpContext(sys_, QUARTER)
    for length in guess_grid(n, ctx.eps):
        pair = _mwu(ctx, length, Cluster(m, n))
        if pair is None:
            continue
        t = pair.rounds_t
        assert sum(pair.sum_x) == length * t
        assert sum(pair.sum_z) == (m - k) * t
        assert all(0 <= v <= t for v in pair.sum_x)
        assert all(0 <= v <= t for v in pair.sum_z)
        for i in range(n):
            lhs = Fraction(pair.sum_x[i], t)
            for j, s in enumerate(sys_.sets):
                if (i + 1) in s:
                    lhs += Fraction(pair.sum_z[j], t)
            assert lhs / f[i] <= 1 + Fraction(7, 5) * ctx.eps
