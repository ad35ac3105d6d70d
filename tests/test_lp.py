"""Multiplicative-weights LP solver: exactness, frozen fixed points, contract."""

from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import mpcover.lp as lp_mod
from mpcover import BudgetError, Cluster, OracleSoundnessError, SetSystem, generate_random
from mpcover.baselines import greedy_sequential
from mpcover.cluster import RoundLogEntry, ceil_log2
from mpcover.instance import frequency
from mpcover.pipeline import greedy_picks
from mpcover.lp import (
    FractionalPair,
    LpContext,
    OracleStep,
    WeightAccumulator,
    _check_pair,
    _mwu,
    charge_lane,
    guess_grid,
    iteration_count,
    oracle_step,
    round_eps_down,
    scale_to_pi0,
    solve_pi1,
)
from test_baselines import TruncatedPQ
from test_instance import normalize_covered
from test_pipeline import tile_system

CHAIN = SetSystem(4, 3, 2, ((1, 2), (2, 3), (3, 4)))
CHAIN_F = frequency(CHAIN.incidence)
QUARTER = Fraction(1, 4)
# three frequency classes: f = 1, 2 and 4
MULTI = SetSystem(9, 5, 2, ((1, 2, 3, 4), (2, 3, 5, 6), (3, 6, 7, 8), (1, 3, 4, 7), (5, 8, 9)))
# four frequency classes, f = 1 to 4; guess 8 passes three oracle calls and
# is rejected at the fourth
LATE_REJECT = SetSystem(8, 4, 2, ((3, 4, 5, 6, 7), (1, 3, 5, 8), (1, 2, 3, 4, 5, 6), (2, 3)))


def lp_context(sys_: SetSystem, eps: Fraction) -> LpContext:
    """The context a run builds from the instance's incidence and k."""
    return LpContext(sys_.incidence, sys_.k, eps)


def chain_ctx() -> LpContext:
    return lp_context(CHAIN, QUARTER)


def dense_rows(ctx: LpContext) -> np.ndarray:
    """The m x n bool matrix of the context's rows: row j is the indicator
    of set j+1 (test_context_validation checks the rows against the sets)."""
    dense = np.zeros((ctx.m, ctx.n), dtype=bool)
    for j, row in enumerate(ctx.rows):
        dense[j, row] = True
    return dense


def truncated_pq(ctx: LpContext, w) -> TruncatedPQ:
    """The oracle's costs at weights w: p_i = w_i // f_i and q_j = the sum
    of p over set j."""
    p = tuple(wi // fv for wi, fv in zip(w, ctx.f))
    return TruncatedPQ(p, tuple(sum(p[i] for i in row) for row in ctx.rows), ctx.b)


def sparse(errors) -> dict[int, int]:
    """The nonzero entries of a dense error row, as {element: error}."""
    return {i: int(e) for i, e in enumerate(errors) if e}


def reference_weights(ctx: LpContext, a) -> tuple[list[int], int]:
    """The weights at accumulator values a, each derived in full: with
    -a_i = c * d_i + r, entry r of element i's class table shifted left by c
    (right by -c when c is negative), as the module docstring of lp says.
    Returns them with their sum."""
    w = []
    for i, ai in enumerate(map(int, a)):
        c, r = divmod(-ai, ctx.d[i])
        base = ctx.tab[i][r]
        w.append(base << c if c >= 0 else base >> -c)
    return w, sum(w)


def scratch_state(ctx: LpContext, a) -> dict:
    """A lane's kept state derived from scratch at accumulator values a: the
    weights through reference_weights, the costs through truncated_pq, the
    oracle's keys and the totals from those."""
    a = [int(v) for v in a]
    w, total = reference_weights(ctx, a)
    pq = truncated_pq(ctx, w)
    return {
        "a": a,
        "w": w,
        "total": total,
        "p": list(pq.p_scaled),
        "q": list(pq.q_scaled),
        "qsum": sum(pq.q_scaled),
        "xkey": [pi * ctx.n + i for i, pi in enumerate(pq.p_scaled)],
        "skey": [qj * ctx.m + j for j, qj in enumerate(pq.q_scaled)],
    }


def assert_state_matches_scratch(ctx: LpContext, acc: WeightAccumulator) -> None:
    """The lane's kept w, total, p, q, keys and qsum equal a
    from-scratch derivation at its current accumulators."""
    want = scratch_state(ctx, acc.a)
    assert {key: getattr(acc, key) for key in want} == want


def seed_lane(ctx: LpContext, acc: WeightAccumulator, a) -> None:
    """Set the lane's kept state, in place, to its derivation at a: _mwu
    binds the lane's lists once, so they must stay the same objects.  The
    kept orders stay as they are, since oracle_step sorts them in full."""
    for key, value in scratch_state(ctx, a).items():
        if isinstance(value, list):
            getattr(acc, key)[:] = value
        else:
            setattr(acc, key, value)


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


@contextmanager
def wrapped_oracle(wrapper):
    """Route every oracle call of the lanes started inside through
    wrapper(step, ctx, acc, length), with step the real lp.oracle_step."""
    step = lp_mod.oracle_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_mod, "oracle_step", lambda ctx, acc, length: wrapper(step, ctx, acc, length))
        yield


@contextmanager
def recording_calls(calls: list):
    """Record acc.t at every oracle call of the one lane run inside, and fail
    at once when it does not move forward: no iteration runs twice."""

    def wrapper(step, ctx, acc, length):
        assert not calls or acc.t > calls[-1], (calls[-1], acc.t)
        calls.append(acc.t)
        return step(ctx, acc, length)

    with wrapped_oracle(wrapper):
        yield


@contextmanager
def tampering(**changes):
    """Replace fields of the first oracle answer of each lane, each by
    change(value): _mwu's exact check must catch what it makes unsound."""

    def wrapper(step, ctx, acc, length):
        st_ = step(ctx, acc, length)
        if acc.t:
            return st_
        return st_._replace(**{name: fn(getattr(st_, name)) for name, fn in changes.items()})

    with wrapped_oracle(wrapper):
        yield


def exact_lhs_lcm(ctx: LpContext, w, x_idx, z_idx) -> int:
    """lcm(f) times the exact weighted constraint sum at a point, in the
    weights' units of 2**-b, from the dense cover counts x_i + cnt_i."""
    x_ind = np.zeros(ctx.n, dtype=np.int64)
    x_ind[list(x_idx)] = 1
    cover = (x_ind + dense_rows(ctx)[list(z_idx)].sum(axis=0)).tolist()
    return sum(wi * ci * lf for wi, ci, lf in zip(w, cover, ctx.lcm_over_f))


def forced_step(ctx: LpContext, acc: WeightAccumulator, x_idx, y_idx) -> OracleStep:
    """An accepted oracle answer with chosen elements x_idx and left-out sets
    y_idx, whose truncated objective and weight sum are both the floor of
    the exact objective: the exact check passes it."""
    y_idx = list(y_idx)
    z_idx = [j for j in range(ctx.m) if j not in y_idx]
    lhs_hat = exact_lhs_lcm(ctx, acc.w, x_idx, z_idx) // ctx.f_lcm
    return OracleStep(True, list(x_idx), z_idx, y_idx, lhs_hat, lhs_hat)


@contextmanager
def forcing_points(choose):
    """Make each oracle call answer choose(acc)'s point (x_idx, y_idx),
    accepted (see forced_step); once choose returns None, the oracle's own
    point, rejected, which ends the lane.  The real oracle_step still runs
    first on every call, so its checks do too, and choose sees the lane
    after it."""

    def wrapper(step, ctx, acc, length):
        st_ = step(ctx, acc, length)
        point = choose(acc)
        if point is None:
            return st_._replace(feasible=False)
        return forced_step(ctx, acc, *point)

    with wrapped_oracle(wrapper):
        yield


def off_revisits(ctx: LpContext, seen: set, a, x_idx, y_idx) -> tuple[list[int], list[int]]:
    """The forced point (x_idx, y_idx), with the fewest elements added to x
    that move accumulators a to a vector not in seen.  _mwu skips ahead once
    a lane's accumulators repeat, which is exact for an oracle that is a
    function of the lane's state, and a forced point is not.  Each element
    added to x lowers the sum of the next accumulators by one, so every
    candidate is new to the others."""
    x_idx, spare = list(x_idx), [i for i in range(ctx.n) if i not in x_idx]
    while True:
        after = list(a)
        for i in x_idx:
            after[i] -= 1
        for j in y_idx:
            for i in ctx.rows[j]:
                after[i] += 1
        if tuple(after) not in seen:
            return x_idx, list(y_idx)
        assume(spare)
        x_idx.append(spare.pop())


def covered_instance(seed: int, data) -> SetSystem:
    """A small random covered instance with at least two frequency classes
    and a drawn k."""
    n = data.draw(st.integers(5, 12), label="n")
    m = data.draw(st.integers(2, 5), label="m")
    raw = generate_random(n, m, 1, density=0.5, seed=seed)
    covered = normalize_covered(raw)[0]
    assume(covered.n >= 4 and len(set(frequency(covered.incidence))) >= 2)
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


# k = 8 > 2n = 6: element 1 lies in every set, so at guess 1 the oracle
# chooses it and leaves out 8 sets that all hold it, an error of 8 - 1
WIDE_K_PAIRS = SetSystem(3, 9, 8, ((1, 2), (1, 3)) + ((1,),) * 7)
# the same, with element 3's only set kept: its error is an implicit 0
WIDE_K_KEEP = SetSystem(3, 9, 8, ((1, 2),) + ((1,),) * 7 + ((1, 3),))
# k = 7: at guess 1 element 1, the cheapest, is picked and left out 7 times,
# an error of exactly 2n = 6
EDGE_K = SetSystem(3, 8, 7, ((1, 2), (1, 3)) + ((1,),) * 6)


def test_weight_accumulator_bounds():
    # with every entry moved there are no implicit zeros
    with pytest.raises(
        OracleSoundnessError, match=r"^per-iteration error outside \[-2n, 2n\]: 1\.\.7$"
    ):
        _mwu(lp_context(WIDE_K_PAIRS, QUARTER), 1)
    # the range counts the errors left implicit at 0
    with pytest.raises(
        OracleSoundnessError, match=r"^per-iteration error outside \[-2n, 2n\]: 0\.\.7$"
    ):
        _mwu(lp_context(WIDE_K_KEEP, QUARTER), 2)
    # an error of exactly 2n is in range: the first iteration is accepted
    seen = []

    class Stop(Exception):
        pass

    def second_call(step, ctx_, acc, length):
        if acc.t:
            seen.append((acc.t, list(acc.a)))
            raise Stop
        return step(ctx_, acc, length)

    with wrapped_oracle(second_call), pytest.raises(Stop):
        _mwu(lp_context(EDGE_K, QUARTER), 1)
    assert seen == [(1, [6, 1, 1])]
    # stale lane state beyond 2*n*t after one iteration: the chain's first
    # point moves element 4 alone, by +1, from 13 to 14 > 2 * 4 * 1
    ctx = chain_ctx()
    seen = []

    def stale(step, ctx_, acc, length):
        if not acc.t:
            acc.a[3] = 13
        st_ = step(ctx_, acc, length)
        seen.append(acc.t)
        return st_

    with wrapped_oracle(stale), pytest.raises(
        OracleSoundnessError, match=r"^accumulator magnitude exceeded 2\*n\*t$"
    ):
        _mwu(ctx, 3)
    assert seen == [0]


def test_context_validation():
    ctx = chain_ctx()
    assert ctx.f == CHAIN_F and ctx.k == CHAIN.k
    # the rows and members read off the incidence are the sets, 0-based
    ctx = lp_context(MULTI, QUARTER)
    assert (ctx.m, ctx.n, ctx.k) == (MULTI.m, MULTI.n, MULTI.k)
    assert ctx.rows == [[e - 1 for e in s] for s in MULTI.sets]
    assert ctx.member == [
        [j for j, s in enumerate(MULTI.sets) if i in s] for i in range(1, MULTI.n + 1)
    ]
    # element 4 lies in no set
    uncovered = SetSystem(4, 2, 1, ((1, 2), (2, 3)))
    with pytest.raises(
        ValueError, match="^every element must lie in some set; normalize the instance first$"
    ):
        lp_context(uncovered, QUARTER)
    # m + 1 must stay under n**4 for the truncation slack to mean anything
    wide = SetSystem(20, 20, 1, tuple((j,) for j in range(1, 21)))
    small = SetSystem(2, 2, 1, ((1,), (2,)))
    lp_context(wide, QUARTER)
    with pytest.raises(ValueError, match="accumulator|broadcast"):
        lp_context(small, Fraction(1, 2**12))


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
    pair, t = _mwu(ctx, 3)
    charges = []
    with recording_charges(charges):
        charge_lane(ctx, t, pair is None, Cluster(3, 4))
    # the oracle's two rounds: cost gather, then the point broadcast
    assert [c[:2] for c in charges[:2]] == [
        ("oracle.cost_gather", 1),
        ("oracle.point_broadcast", 1),
    ]


@pytest.mark.parametrize("sys_", [CHAIN, MULTI, LATE_REJECT], ids=["chain", "multi", "late-reject"])
def test_a_lane_starts_at_the_derivation_at_zero(sys_):
    ctx = lp_context(sys_, QUARTER)
    # every class table reads 2**b at r = 0, so every weight starts at 1 << b
    assert {row[0] for row in ctx.tab} == {1 << ctx.b}
    assert_state_matches_scratch(ctx, WeightAccumulator(ctx))


# -- the exact check, tripped through the oracle's answers ------------------


def test_exact_check_rejects_tampered_values():
    ctx = chain_ctx()
    # the oracle's own sums pass
    assert _mwu(ctx, 3)[0] is not None
    with tampering(lhs_hat_scaled=lambda v: v + (1 << ctx.b)), pytest.raises(
        OracleSoundnessError, match="^truncated objective exceeds the exact one$"
    ):
        _mwu(ctx, 3)
    with tampering(sum_w_scaled=lambda v: v // 4), pytest.raises(
        OracleSoundnessError, match="^accepted point violates the weighted budget$"
    ):
        _mwu(ctx, 3)


def test_exact_check_rejects_truncation_loss():
    ctx = chain_ctx()
    # at uniform weights the chain's costs are exact, so a truncated
    # objective 1/n^5 below the oracle's is still sound ...
    with tampering(lhs_hat_scaled=lambda v: v - (1 << ctx.b) // ctx.n_pow5):
        assert _mwu(ctx, 3)[0] is not None
    # ... one that lost half of it is not, accepted or rejected
    for feasible in (True, False):
        with tampering(
            lhs_hat_scaled=lambda v: v // 2, feasible=lambda v: feasible
        ), pytest.raises(OracleSoundnessError, match="^truncation lost more than 1/n\\^5$"):
            _mwu(ctx, 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_exact_check_from_moves_equals_the_dense_sum(seed, data):
    ctx = lp_context(covered_instance(seed, data), QUARTER)
    n, lcm = ctx.n, ctx.f_lcm
    # a random kept state, c <= 3 keeping the weight sum under 4n^2
    a = [data.draw(st.integers(-3 * d, 3 * d), label="a") for d in ctx.d]
    x_idx, z_idx, y_idx = random_point(ctx, data)
    state = scratch_state(ctx, a)
    w = state["w"]
    dense = exact_lhs_lcm(ctx, w, x_idx, z_idx)
    x_ind = np.zeros(n, dtype=np.int64)
    x_ind[x_idx] = 1
    moves = sparse(np.array(ctx.f) - x_ind - dense_rows(ctx)[z_idx].sum(axis=0))
    moved = sum(w[i] * e * ctx.lcm_over_f[i] for i, e in moves.items())
    assert lcm * state["total"] - moved == dense

    def at_point(delta):
        """The lane seeded at a, its first answer the drawn point with the
        truncated objective floor(lhs) + delta, rejected."""

        def wrapper(step, ctx_, acc, length):
            seed_lane(ctx, acc, a)
            return step(ctx_, acc, length)._replace(
                feasible=False,
                x_idx=x_idx,
                z_idx=z_idx,
                y_idx=y_idx,
                lhs_hat_scaled=dense // lcm + delta,
            )

        return wrapped_oracle(wrapper)

    # _mwu's exact check reads that sum: the floor of lhs passes, one unit above it does not
    with at_point(0):
        assert _mwu(ctx, len(x_idx))[0] is None
    with at_point(1), pytest.raises(
        OracleSoundnessError, match="^truncated objective exceeds the exact one$"
    ):
        _mwu(ctx, len(x_idx))


# -- the lane's maintained state ---------------------------------------------


def test_weight_cap_fires_on_an_entry_changed_mid_run():
    ctx = chain_ctx()
    # the chain's first point moves element 4 alone, by +1: stale lane state
    # one below the edge of the cap puts that entry's weight past it
    edge = -(ctx.wcap_log2 + 1) * ctx.d[3]

    def stale(step, ctx_, acc, length):
        if not acc.t:
            acc.a[3] = edge - 1
        return step(ctx_, acc, length)

    with wrapped_oracle(stale), pytest.raises(
        OracleSoundnessError, match="^weight above the 4n\\^2 potential cap$"
    ):
        _mwu(ctx, 3)
    # solve_pi1 charges a lane once _mwu returns: with no inbox budget,
    # iteration 1's cost gather breaks the charge, yet the cap's check fires first
    with pytest.raises(BudgetError, match="^'oracle.cost_gather' puts"):
        solve_pi1(ctx, Cluster(3, 4, mem_c=0))
    with wrapped_oracle(stale), pytest.raises(
        OracleSoundnessError, match="^weight above the 4n\\^2 potential cap$"
    ):
        solve_pi1(ctx, Cluster(3, 4, mem_c=0))


def test_weight_sum_cap_fires_mid_run():
    ctx = chain_ctx()
    lanes = []

    def every_element(acc):
        # every element chosen and no set left out: each accumulator falls by 1
        lanes.append(acc)
        return range(ctx.n), []

    with forcing_points(every_element), pytest.raises(
        OracleSoundnessError, match="^weight sum above the 4n\\^2 potential cap$"
    ):
        _mwu(ctx, 3)
    acc = lanes[-1]
    assert acc.t > 1
    # each weight stays under its own cap 2**wcap_log2; together they pass 4n^2 = 64
    assert max(-ai // d for ai, d in zip(acc.a, ctx.d)) < ctx.wcap_log2


def test_set_cost_width_check_fires():
    ctx = chain_ctx()
    acc = WeightAccumulator(ctx)
    oracle_step(ctx, acc, 3)
    # a set cost one bit wider than its message, in the lane's kept state
    acc.q[1] = 1 << ctx.qhat_bits
    with pytest.raises(OracleSoundnessError, match="^set cost outgrew its message width$"):
        oracle_step(ctx, acc, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_maintained_state_matches_from_scratch(seed, data):
    n = data.draw(st.integers(5, 9), label="n")
    m = data.draw(st.integers(3, 5), label="m")
    raw = generate_random(n, m, 2, density=0.5, seed=seed)
    sys_ = normalize_covered(raw)[0]
    f = frequency(sys_.incidence)
    assume(sys_.n >= 4 and len(set(f)) >= 2)
    n = sys_.n
    ctx = lp_context(sys_, QUARTER)
    # c <= 2 keeps the weight sum under 4n^2, and every forced point below
    # fits in t_total >= 70 iterations: at most 8 * f_max <= 40 down, 16 up, 8 drawn
    lo = [-2 * d for d in ctx.d]
    hi = [2 * d for d in ctx.d]
    drawn = iter(
        data.draw(
            st.lists(
                st.tuples(
                    st.lists(st.integers(0, n - 1), unique=True),
                    st.lists(st.integers(0, ctx.m - 1), unique=True),
                ),
                max_size=8,
            ),
            label="points",
        )
    )
    crossed = [False] * n
    phase = ["down"]
    lanes, last, seen = [], [], set()

    def choose(acc):
        assert_state_matches_scratch(ctx, acc)
        a = acc.a
        seen.add(tuple(a))
        for i, before in enumerate(last):
            crossed[i] |= before <= 0 < a[i]  # shift c >= 0, then c < 0
        last[:] = a
        lanes.append(acc)
        # a ramp down to c = 2: every entry above it chosen, no set left out ...
        if phase[0] == "down":
            down = [i for i in range(n) if a[i] > lo[i]]
            if down:
                return down, []
            phase[0] = "up"
        # ... back up to c < 0: every set left out, each entry rising by f_i ...
        if phase[0] == "up":
            if a != hi:
                return [], range(ctx.m)
            phase[0] = "drawn"
        # ... then the drawn points, kept off revisits
        point = next(drawn, None)
        return point and off_revisits(ctx, seen, a, *point)

    with forcing_points(choose):
        assert _mwu(ctx, 0)[0] is None
    assert all(crossed)
    # the oracle reads the kept total
    acc = lanes[-1]
    assert oracle_step(ctx, acc, 0).sum_w_scaled == acc.total


@contextmanager
def counting_derivations(ctx: LpContext, counts: dict):
    """Count, from outside the solver, the lanes run on ctx, the weight
    derivations (each reads one entry of its class table, ctx.tab) and the
    nonzero errors: the accumulator entries each iteration moved, read off
    the lane at its next oracle call and, for its last iteration, when the
    lane ends."""
    step = lp_mod.oracle_step
    lanes: dict[int, tuple] = {}  # lane id: (lane, its accumulators at its last call)
    counts.update(lanes=0, rederived=0, nonzero=0)

    class CountedRow(list):
        def __getitem__(self, r):
            counts["rederived"] += 1
            return list.__getitem__(self, r)

    def count_moved(acc, before):
        counts["nonzero"] += sum(map(int.__ne__, before, acc.a))

    def counted_step(ctx, acc, length):
        if id(acc) in lanes:
            count_moved(*lanes[id(acc)])
        lanes[id(acc)] = (acc, list(acc.a))  # keeps each lane alive, so ids stay distinct
        counts["lanes"] = len(lanes)
        return step(ctx, acc, length)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ctx, "tab", [CountedRow(row) for row in ctx.tab])
        mp.setattr(lp_mod, "oracle_step", counted_step)
        yield
    for lane in lanes.values():
        count_moved(*lane)


@pytest.mark.parametrize("sys_, length", [(CHAIN, 3), (MULTI, 7)], ids=["chain", "multi"])
def test_weights_rederived_only_where_the_accumulator_moved(sys_, length):
    counts: dict = {}
    ctx = lp_context(sys_, QUARTER)
    with counting_derivations(ctx, counts):
        pair, _ = _mwu(ctx, length)
    assert pair is not None
    assert counts["lanes"] == 1
    # a lane's start reads no table entry: every read re-derives a moved weight
    assert counts["rederived"] == counts["nonzero"] > 0
    # also across a guess batch
    ctx = lp_context(sys_, QUARTER)
    with counting_derivations(ctx, counts):
        res = solve_pi1(ctx, Cluster(sys_.m, sys_.n))
    guesses = len(res.feasible_guesses) + len(res.infeasible_guesses)
    assert counts["lanes"] == guesses > 1
    assert counts["rederived"] == counts["nonzero"] > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_moves_are_the_nonzero_dense_errors(seed, data):
    """One iteration at a drawn point moves each accumulator by its dense
    error f_i - x_i - cnt_i: exactly the nonzero entries move."""
    ctx = lp_context(covered_instance(seed, data), QUARTER)
    n, f = ctx.n, ctx.f
    x_idx, z_idx, y_idx = random_point(ctx, data)
    points = iter([(x_idx, y_idx)])
    seen = []

    def choose(acc):
        seen.append(list(acc.a))
        return next(points, None)

    with forcing_points(choose):
        assert _mwu(ctx, len(x_idx))[0] is None
    x_ind = np.zeros(n, dtype=np.int64)
    x_ind[x_idx] = 1
    cnt = dense_rows(ctx)[z_idx].sum(axis=0)
    assert seen[0] == [0] * n
    assert sparse(seen[1]) == sparse(np.array(f) - x_ind - cnt)
    assert [fv - ai for fv, ai in zip(f, seen[1])] == (x_ind + cnt).tolist()


def tied_instance(data) -> SetSystem:
    """A covered instance full of cost ties: disjoint tiles of a few sizes,
    or the chain of pairs {i, i+1}, with a drawn k."""
    if data.draw(st.booleans(), label="tiles"):
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=6), label="sizes")
        ends = np.cumsum([0] + sizes).tolist()
        sets = tuple(tuple(range(lo + 1, hi + 1)) for lo, hi in zip(ends, ends[1:]))
    else:
        sets = tuple((i, i + 1) for i in range(1, data.draw(st.integers(4, 12), label="n")))
    n = max(map(max, sets))
    assume(n >= 4)  # smaller n outgrows the broadcast width at eps = 1/4
    return SetSystem(n, len(sets), data.draw(st.integers(1, len(sets)), label="k"), sets)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_kept_orders_and_state_match_a_from_scratch_derivation(data):
    """At every oracle call of a lane, from its uniform start on instances
    full of cost ties: the kept element and set orders are the stable sorts
    by cost, the oracle's picks are their heads and tails, the kept state
    is the from-scratch derivation, and every accumulator, moved by the
    last iteration or not, meets |A| <= 2*n*t.  The calls come at
    consecutive iterations, apart from at most one jump of whole periods of
    the lane's accumulators, and an accepted lane ends at t_total."""
    ctx = lp_context(tied_instance(data), QUARTER)
    n, m = ctx.n, ctx.m
    length = data.draw(st.sampled_from(guess_grid(n, ctx.eps)), label="length")
    calls, states, lanes = [], [], []

    def checked(step, ctx_, acc, length_):
        st_ = step(ctx_, acc, length_)
        assert acc.xorder == sorted(range(n), key=acc.p.__getitem__)
        assert acc.sorder == sorted(range(m), key=acc.q.__getitem__)
        assert (st_.x_idx, st_.z_idx + st_.y_idx) == (acc.xorder[:length_], acc.sorder)
        assert len(st_.y_idx) == ctx.k
        assert_state_matches_scratch(ctx, acc)
        assert max(map(abs, acc.a)) <= 2 * n * acc.t
        calls.append(acc.t)
        states.append(tuple(acc.a))
        lanes.append(acc)
        return st_

    with wrapped_oracle(checked):
        pair, _ = _mwu(ctx, length)
    if pair is None:
        event("rejected")
        assert calls == list(range(len(calls)))
        return
    # the lane's end, as if one more call came after its last iteration
    calls.append(lanes[-1].t)
    states.append(tuple(lanes[-1].a))
    assert calls[-1] == ctx.t_total
    jumps = [i for i in range(1, len(calls)) if calls[i] != calls[i - 1] + 1]
    assert calls[0] == 0 and len(jumps) <= 1
    event("accepted after a jump" if jumps else "accepted")
    for i in jumps:
        # the iterations before the jump run up to `ran`, whose state the
        # next call sees; its latest earlier visit gives the period
        ran = calls[i - 1] + 1
        visits = [calls[c] for c in range(i) if states[c] == states[i]]
        assert visits and (calls[i] - ran) % (ran - visits[-1]) == 0


# -- the weight-update loop ------------------------------------------------


def test_mwu_fixed_point_full_objective():
    ctx = chain_ctx()
    pair, t = _mwu(ctx, 4)
    assert t == ctx.t_total == 70
    assert pair.sum_x == (70, 70, 70, 70)
    assert pair.sum_z == (0, 70, 0)
    assert pair.rounds_t == 70
    cl = Cluster(3, 4)
    charge_lane(ctx, t, False, cl)
    # 2 oracle rounds + cover-count cast + accumulator broadcast, per iteration
    assert cl.rounds == 70 * (2 + ceil_log2(3) + 1)
    # iteration 1 primitive by primitive, then the other 69 in one entry
    assert [e.primitive for e in cl.log] == [
        "oracle.cost_gather",
        "oracle.point_broadcast",
        "mwu.cover_count",
        "mwu.acc_broadcast",
        "mwu.iterations",
    ]
    assert cl.log[-1].rounds == 69 * (2 + ceil_log2(3) + 1)


def test_mwu_fixed_point_shorter_objective():
    pair, _ = _mwu(chain_ctx(), 3)
    assert pair.sum_x == (35, 70, 70, 35)
    assert pair.sum_z == (21, 28, 21)


SINGLES = SetSystem(4, 4, 1, ((1,), (2,), (3,), (4,)))


def test_mwu_detects_infeasible_guess_in_two_rounds():
    ctx = lp_context(SINGLES, QUARTER)
    assert _mwu(ctx, 4) == (None, 0)
    cl = Cluster(4, 4)
    charge_lane(ctx, 0, True, cl)
    assert cl.rounds == 2


@contextmanager
def recording_iterations(records: list):
    """Record every MWU iteration from outside the solver: the iteration
    index, the oracle's verdict and truncated sums, and, once an iteration
    was accepted, the lane's accumulators right after it, read off the lane
    at its next oracle call or, for its last iteration, when the lane ends."""
    step = lp_mod.oracle_step
    open_records: dict[int, tuple] = {}  # lane id: (lane, its last record)

    def close(acc, record):
        if acc.t > record["t"]:  # accepted: the lane moved
            record["acc_absmax"] = max(map(abs, acc.a))
            record["acc_t"] = acc.t

    def recorded_step(ctx, acc, length):
        if id(acc) in open_records:
            close(*open_records[id(acc)])
        st_ = step(ctx, acc, length)
        records.append(
            {
                "t": acc.t,
                "feasible": st_.feasible,
                "lhs_hat_scaled": st_.lhs_hat_scaled,
                "sum_w_scaled": st_.sum_w_scaled,
            }
        )
        open_records[id(acc)] = (acc, records[-1])  # keeps each lane alive, so ids stay distinct
        return st_

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_mod, "oracle_step", recorded_step)
        yield
    for lane in open_records.values():
        close(*lane)


def replay_loop_charges(ctx: LpContext, length: int) -> str:
    """Run _mwu, charge a fresh lane from its outcome as solve_pi1 does, and
    check the lane's log entry by entry, its rounds and its peak against a
    reference lane that charges each recorded iteration through the
    primitives (the cost gather, then the point or reject broadcast, then
    the cover-count cast and the accumulator broadcast), folded the way
    charge_lane charges: iteration 1's entries, then
    the later accepted iterations as one mwu.iterations entry at the sum of
    iteration 1's rounds and the largest of its peaks, then a rejection's
    two.  An accepted record whose lane then skipped whole periods (its
    acc_t more than one past its t) stands for that many accepted
    iterations, the skipped ones repeats of it in cost.  Returns the
    guess's outcome."""
    n, m = ctx.n, ctx.m
    records = []
    with recording_iterations(records):
        pair, t = _mwu(ctx, length)
    lane = Cluster(m, n).lane()
    charge_lane(ctx, t, pair is None, lane)
    ref = Cluster(m, n).lane()
    accepted = 0
    for r in records:
        if not r["feasible"]:
            ref.gather(ctx.qhat_bits, label="oracle.cost_gather")
            ref.broadcast(1, label="oracle.reject_broadcast")
            continue
        for _ in range(r["acc_t"] - r["t"]):
            ref.gather(ctx.qhat_bits, label="oracle.cost_gather")
            ref.broadcast(n + m, label="oracle.point_broadcast")
            ref.convergecast(n, entry_bits=1, label="mwu.cover_count")
            ref.broadcast(n * ctx.abits, label="mwu.acc_broadcast")
            accepted += 1
    if accepted > 1:  # the four entries of each accepted iteration after the first
        later = ref.log[4 : 4 * accepted]
        ref.log[4 : 4 * accepted] = [
            RoundLogEntry(
                "mwu.iterations", sum(e.rounds for e in later), max(e.peak_bits for e in later)
            )
        ]
    assert t == accepted
    assert lane.log == ref.log
    assert (lane.rounds, lane.peak_inbox_bits) == (ref.rounds, ref.peak_inbox_bits)
    if pair is not None:
        assert accepted == ctx.t_total and all(r["feasible"] for r in records)
        return "accepted"
    assert not records[-1]["feasible"] and all(r["feasible"] for r in records[:-1])
    return "rejected at 1" if len(records) == 1 else "rejected later"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_loop_charges_equal_a_per_iteration_replay(seed, data):
    ctx = lp_context(covered_instance(seed, data), QUARTER)
    length = data.draw(st.sampled_from(guess_grid(ctx.n, ctx.eps)), label="length")
    event(replay_loop_charges(ctx, length))


@pytest.mark.parametrize(
    "sys_, length, outcome",
    [(CHAIN, 3, "accepted"), (SINGLES, 4, "rejected at 1"), (LATE_REJECT, 8, "rejected later")],
    ids=["accepted", "rejected-at-1", "rejected-later"],
)
def test_loop_charges_replay_each_outcome(sys_, length, outcome):
    assert replay_loop_charges(lp_context(sys_, QUARTER), length) == outcome


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_mwu_accepts_every_guess_up_to_a_greedy_coverage(seed, data):
    """k sets covering C elements give, at any guess L <= C, a point of the
    region (L of those elements, the other m - k sets in z) with x_i +
    cnt_i <= f_i for every i: the oracle's truncated minimum is at most its
    weighted sum, so every oracle call accepts.  This is the lemma behind
    the lanes solve_pi1 charges without running them, and C >= 1 makes
    guess 1 one of them, the lemma behind solve_pi1's unreachable raise."""
    sys_ = covered_instance(seed, data)
    cover = greedy_sequential(sys_).value
    assert cover >= 1
    ctx = lp_context(sys_, QUARTER)
    for length in guess_grid(ctx.n, ctx.eps):
        if length <= cover:
            assert _mwu(ctx, length)[0] is not None, length


def test_mwu_per_iteration_records():
    records = []
    with recording_iterations(records):
        pair, _ = _mwu(chain_ctx(), 2)
    assert pair is not None
    assert len(records) == 70
    assert all(r["feasible"] for r in records)
    assert [r["t"] for r in records] == list(range(70))
    for r in records:
        assert r["acc_absmax"] <= 2 * 4 * r["acc_t"]
        assert r["lhs_hat_scaled"] <= r["sum_w_scaled"]


def lane_run_in_full(ctx: LpContext, length: int) -> tuple[FractionalPair | None, int]:
    """The reference lane: it runs every iteration up to t_total or the first
    rejection, and makes no exact check.  Each iteration calls oracle_step,
    moves the accumulators by the point's dense errors f_i - x_i - cnt_i
    and re-derives the whole kept state from them (seed_lane).  Returns the
    pair, counted from the picks, or None, with the accepted iterations."""
    acc = WeightAccumulator(ctx)
    rows = dense_rows(ctx).astype(np.int64)
    sum_x, sum_z = np.zeros(ctx.n, dtype=np.int64), np.zeros(ctx.m, dtype=np.int64)
    for t in range(ctx.t_total):
        st_ = oracle_step(ctx, acc, length)
        if not st_.feasible:
            return None, t
        x_ind, z_ind = np.zeros_like(sum_x), np.zeros_like(sum_z)
        x_ind[st_.x_idx] = 1
        z_ind[st_.z_idx] = 1
        seed_lane(ctx, acc, np.array(acc.a) + np.array(ctx.f) - x_ind - z_ind @ rows)
        sum_x += x_ind
        sum_z += z_ind
    return FractionalPair(tuple(sum_x.tolist()), tuple(sum_z.tolist()), ctx.t_total), ctx.t_total


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_mwu_equals_the_lane_run_in_full(seed, data):
    """At every grid guess of tied and random covered instances, _mwu's
    outcome, the pair (or None) with the accepted iterations its lane is
    charged from, is that of the lane run in full: a lane that advances
    whole periods once its accumulators repeat ends where running them
    ends."""
    tied = data.draw(st.booleans(), label="tied")
    sys_ = tied_instance(data) if tied else covered_instance(seed, data)
    ctx = lp_context(sys_, QUARTER)
    for length in guess_grid(ctx.n, ctx.eps):
        calls = []
        with recording_calls(calls):
            got = _mwu(ctx, length)
        want = lane_run_in_full(ctx, length)
        assert got == want, length
        if len(calls) < want[1]:
            event("skipped")


def tiles_ctx() -> LpContext:
    """The LP context of test_path_lp_end_to_end_tiles' run: its 17 tiles
    (n = 52) at the LP stage's eps, 1/4 over EPS_STAGES = 8, where t_total
    = 9899."""
    sys_ = tile_system(17, 2)
    return LpContext(sys_.incidence, sys_.k, Fraction(1, 32))


def test_a_cycling_lane_runs_its_transient_and_remainder_only():
    """Guess 7 on the tiles is the run's l_star.  Its accumulators take
    period 2 from iteration 0; the checkpoint at t = 2 finds the repeat at
    t = 4, whole periods take the lane to t = 9898, and one iteration is
    left: 5 oracle calls, and the pair of the lane run in full."""
    ctx = tiles_ctx()
    assert ctx.t_total == 9899
    calls = []
    with recording_calls(calls):
        pair, _ = _mwu(ctx, 7)
    assert calls == [0, 1, 2, 3, 9898]
    assert pair == lane_run_in_full(ctx, 7)[0]
    assert pair.sum_z == (0, 4950) + (9899,) * 14 + (4949,)


def test_a_repeat_of_a_alone_skips_nothing():
    """A lane skips only when its whole kept state equals the checkpoint's,
    not its accumulators alone: a weight total one unit above sum(w) after
    the checkpoint at t = 2, within every exact check's slack, puts off the
    skip to the repeat at t = 6 of the checkpoint at t = 4, which holds the
    same stale total."""
    ctx = tiles_ctx()
    calls = []

    def stale_total(step, ctx_, acc, length):
        if acc.t == 3:
            acc.total += 1
        return step(ctx_, acc, length)

    with recording_calls(calls), wrapped_oracle(stale_total):
        pair, _ = _mwu(ctx, 7)
    assert calls == [0, 1, 2, 3, 4, 5, 9898]
    assert pair == _mwu(ctx, 7)[0]


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
    # l_star = 1 is always reachable on a covered instance (see
    # test_mwu_accepts_every_guess_up_to_a_greedy_coverage), so a rejected
    # guess 1 is a fault, whether or not a larger guess was accepted
    mwu = lp_mod._mwu
    for rejected in ((1, 2, 3, 4), (1,)):

        def rejecting(ctx, length):
            return (None, 0) if length in rejected else mwu(ctx, length)

        monkeypatch.setattr(lp_mod, "_mwu", rejecting)
        with pytest.raises(OracleSoundnessError, match="^guess 1 was rejected$"):
            solve_pi1(chain_ctx(), Cluster(3, 4))


def test_solve_pi1_checks_the_deferred_certified_lane(monkeypatch):
    # certified = 4 charges every chain guess without running it; l_star = 4
    # then runs alone for its pair, on no lane, and a rejection there is a fault
    mwu, lane = lp_mod._mwu, Cluster.lane
    ran, lanes = [], []

    def recording(ctx, length):
        ran.append(length)
        return mwu(ctx, length)

    def counted_lane(self):
        lanes.append(self)
        return lane(self)

    monkeypatch.setattr(lp_mod, "_mwu", recording)
    monkeypatch.setattr(Cluster, "lane", counted_lane)
    cl = Cluster(3, 4)
    res = solve_pi1(chain_ctx(), cl, 4)
    assert ran == [4]
    assert lanes == [cl] * 4  # one per guess
    assert res.l_star == 4 and res.pair.sum_x == (70, 70, 70, 70)
    assert res.feasible_guesses == (1, 2, 3, 4)
    assert [e.primitive for e in cl.log] == ["pi1.batch[1..3]", "pi1.batch[4..4]"]
    monkeypatch.setattr(lp_mod, "_mwu", lambda ctx, length: (None, 0))
    with pytest.raises(OracleSoundnessError, match="^certified guess 4 was rejected$"):
        solve_pi1(chain_ctx(), Cluster(3, 4), 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_certified_solve_pi1_equals_running_every_lane(seed, data):
    """With a bound at or below a greedy's coverage, solve_pi1 gives the
    Pi1Result and the root log of the run of every lane, whether a run
    guess above the bound is accepted or the largest certified one is
    deferred."""
    sys_ = covered_instance(seed, data)
    cover = greedy_picks(sys_.incidence, sys_.k)[1]
    certified = data.draw(st.just(cover) | st.integers(0, cover), label="certified")
    ctx = lp_context(sys_, QUARTER)
    cl, cl2 = Cluster(ctx.m, ctx.n), Cluster(ctx.m, ctx.n)
    ref = solve_pi1(ctx, cl)
    assert solve_pi1(ctx, cl2, certified) == ref
    assert cl2.log == cl.log
    event("deferred" if ref.l_star <= certified else "run")


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
    ctx = lp_context(sys_, QUARTER)
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
        scale_to_pi0(lp_context(chain_k1, QUARTER), zeros)


# -- the solver contract, property based -----------------------------------


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 7), st.integers(2, 4))
def test_mwu_contract_random_instances(seed, n, m):
    k = 1 + seed % m
    sys_ = generate_random(n, m, k, density=0.55, seed=seed)
    f = frequency(sys_.incidence)
    if not all(f):
        return
    ctx = lp_context(sys_, QUARTER)
    for length in guess_grid(n, ctx.eps):
        pair, _ = _mwu(ctx, length)
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
