"""Multiplicative-weights solver for the coverage LP.

The LP being solved (complement form) is: maximize sum(x) subject to
x_i / f_i + (1 / f_i) * sum(z_j over sets containing i) <= 1, sum(z) = m - k,
x and z in [0, 1], where f_i counts the sets containing element i.  Writing
y_j = 1 - z_j recovers the standard coverage relaxation, which is what
scale_to_pi0 emits.

The solver fixes a guess L for the objective, restricts to the region
sum(x) = L, sum(z) = m - k, and runs multiplicative weights over the n
per-element constraints.  Each iteration calls a linear oracle that
minimizes the weighted constraint sum over the region; the minimizer is
just "L cheapest elements, m - k cheapest sets", computed on truncated
fixed-point costs so machines exchange O(log n)-bit numbers.  Iteration
counts, weights and all feasibility comparisons are exact integer
arithmetic; the only floating point is the choice of the iteration count.

A guess at or below the coverage C of some k sets is accepted at every
iteration.  So solve_pi1, given C, charges those lanes from their shape
(charge_lane) without running them, and runs only the guesses above C;
when none of those is accepted, it runs the largest certified guess once
more, uncharged, for its pair.

Weight convention: after t iterations element i carries the exact integer
accumulator A_i = sum of f_i - x_i - |selected sets containing i| over past
iterations, and its weight is w_i = 2**(-eps * A_i / f_i), materialized on
the grid 2**-B with B = 10 * ceil(log2 n) as a Python int: with eps = 2**-s
and -A_i = c * f_i * 2**s + r, it is fixmath.exp2_frac(r, f_i * 2**s, B)
shifted left by c (right by -c when c is negative).  A lane starts at
A = 0, where every weight is 2**B, and _mwu re-derives each weight an
iteration moves: that loop holds the only copy of this derivation.

Each guess that runs is one lane: one loop (_mwu) over one state object
(WeightAccumulator), with one call per iteration, the module-level
oracle_step.  An iteration moves only a few of the n entries, so the lane
keeps everything between iterations and touches only what moved.  The
oracle's element and set orders are kept too, keyed by the unique ints
p_i * n + i and q_j * m + j, which sort as (cost, index) does: re-sorting
the nearly sorted lists gives exactly the stable order of a sort by cost.
From the oracle's picks the loop builds the nonzero errors, runs the exact
truncation check on them, and moves the accumulators, weights, costs, keys
and totals in one pass over them; it checks |A| <= 2*n*t on the entries it
moved.  _mwu takes no cluster: it returns its outcome, the pair or None
with the accepted iterations, and solve_pi1 charges the guess's lane from
that outcome alone (charge_lane).

A lane runs until its accumulators repeat.  All an iteration reads is a
function of a (the weights, costs, keys and totals are derived from it, the
kept orders re-sorted on unique keys), so if a after t2 accepted iterations
equals a after t1, iteration t2 + s repeats t1 + s, checks and outcome
included: the one check that reads t, |A| <= 2*n*t, only loosens as t grows.
_mwu saves its state at each power-of-two t (Brent's checkpoints) and, at a
repeat of it, advances the whole periods that fit before t_total at once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .cluster import Cluster, ceil_log2
from .fixmath import exp2_frac
from .instance import Incidence

TRUNC_BITS_PER_LOG = 10
# Runtime bound asserted on the averaged iterate: max constraint value must
# not exceed 1 + SLACK_NUM/SLACK_DEN * eps.  7/5 is just above the provable
# 2*ln(2) and leaves room for the fixed-point underestimates.
SLACK_NUM = 7
SLACK_DEN = 5


class OracleSoundnessError(AssertionError):
    """An exact internal check failed (truncation, feasibility or a
    data-plane invariant); upstream bug."""


def round_eps_down(eps: Fraction) -> tuple[Fraction, int]:
    """Largest power of 1/2 that is <= eps; also returns its exponent."""
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 4):
        raise ValueError(f"eps must be in (0, 1/4], got {eps}")
    s = 2
    while Fraction(1, 1 << s) > eps:
        s += 1
    return Fraction(1, 1 << s), s


def iteration_count(n: int, eps: Fraction) -> int:
    """Smallest T with ln(2n)/(T*a) <= a for a = eps*ln 2."""
    return math.ceil(math.log(2 * n) / (float(eps) * math.log(2)) ** 2)


@dataclass(frozen=True)
class FractionalPair:
    """Averaged LP iterate, kept as integer sums over rounds_t iterations."""

    sum_x: tuple[int, ...]
    sum_z: tuple[int, ...]
    rounds_t: int


@dataclass(frozen=True)
class LpSolution:
    """Standard-form relaxation values after rescaling."""

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    objective: Fraction
    budget_used: Fraction
    sigma: Fraction


class LpContext:
    """Shared precomputation for one (incidence, k, eps): rows[j] lists set
    j+1's elements and member[i] the sets holding element i, 0-based, off
    the m x n incidence and its transpose; f_i = len(member[i])."""

    def __init__(self, inc: Incidence, k: int, eps: Fraction):
        self.m, self.n = m, n = inc.shape
        self.k = k
        self.rows = inc.lists()
        self.member = inc.transpose().lists()
        self.f = tuple(map(len, self.member))
        if 0 in self.f:
            raise ValueError("every element must lie in some set; normalize the instance first")
        self.eps, self.s = round_eps_down(eps)
        if not (1 + m <= max(n, 2) ** 4):
            raise ValueError("m too large for the 1/n^5 truncation slack")
        self.b = TRUNC_BITS_PER_LOG * ceil_log2(max(n, 1))
        self.t_total = iteration_count(n, self.eps)
        self.abits = 4 * ceil_log2(max(n, 2)) + 3
        if (2 * n * self.t_total).bit_length() + 1 > self.abits:
            raise ValueError(
                f"eps={self.eps} too small for n={n}: accumulators outgrow "
                f"the {self.abits}-bit broadcast width"
            )
        self.d = [fv << self.s for fv in self.f]  # -A_i = c * d_i + r, 0 <= r < d_i
        self.f_lcm = math.lcm(*set(self.f))
        self.lcm_over_f = [self.f_lcm // fv for fv in self.f]
        self.wcap_log2 = (4 * n * n).bit_length()  # weights stay below 4n^2
        self.wsum_cap = (4 * n * n) << self.b
        self.qhat_bits = self.b + 3 * ceil_log2(max(n, 2)) + 3
        self.n_pow5 = max(n, 1) ** 5
        tabs = {}  # per frequency class f: exp2_frac(r, f * 2**s, b) for each r
        for fv in sorted(set(self.f)):
            den = fv << self.s
            tabs[fv] = [exp2_frac(r, den, self.b) for r in range(den)]
        self.tab = [tabs[fv] for fv in self.f]  # each element's class table


class WeightAccumulator:
    """One MWU lane's exact state, which _mwu moves in place: the integer
    error accumulators a, the accepted iterations t, the weights w derived
    from a, the element costs p = w // f, the set costs q (sums of p over
    each set), the weight total and qsum, the sum of q.

    It also keeps the oracle's orders between iterations: xorder lists the
    elements by the unique key xkey[i] = p_i * n + i and sorder the sets by
    skey[j] = q_j * m + j.  These keys order as (cost, index) does, which is
    the stable order of a sort by cost alone.  An iteration moves the keys
    of the few entries whose cost moved, so each re-sort in oracle_step
    runs over a nearly sorted list.

    A lane starts at a = 0, where every class table reads 2**b: each weight
    is 1 << b and their total n << b.  From there _mwu re-derives only the
    weights an iteration moves, in the one derivation of a weight from its
    accumulator (see the module docstring).
    """

    def __init__(self, ctx: LpContext):
        n, m = ctx.n, ctx.m
        self.a = [0] * n
        self.t = 0
        self.w = [1 << ctx.b] * n
        self.total = n << ctx.b
        self.p = [wi // fv for wi, fv in zip(self.w, ctx.f)]
        self.q = [sum(map(self.p.__getitem__, row)) for row in ctx.rows]
        self.qsum = sum(self.q)
        self.xkey = [pi * n + i for i, pi in enumerate(self.p)]
        self.skey = [qj * m + j for j, qj in enumerate(self.q)]
        self.xorder = list(range(n))
        self.sorder = list(range(m))


# collections.namedtuple rather than typing.NamedTuple: under the future
# import of annotations, the latter compiles each field's annotation when
# the module loads, which raised every run's peak RSS by about 40-50 KB
class OracleStep(
    namedtuple("OracleStep", "feasible x_idx z_idx y_idx lhs_hat_scaled sum_w_scaled")
):
    """An oracle point: the chosen elements x_idx, the m - k kept sets z_idx
    and the k sets y_idx left out of z, each a list in ascending cost order,
    with the truncated objective lhs_hat_scaled and the weight sum
    sum_w_scaled it was checked against."""

    __slots__ = ()


def oracle_step(ctx: LpContext, acc: WeightAccumulator, length: int) -> OracleStep:
    """One linear-oracle call: cheapest `length` elements, m-k cheapest sets.

    Declares infeasible exactly when even the minimizer of the truncated
    objective exceeds the weight sum, which is sound because truncation only
    ever lowers costs.  Data plane only: charge_lane charges the call's two
    rounds (the set-cost gather to central, then the chosen indicator
    vectors or a 1-bit reject broadcast).

    Re-sorts the lane's kept element and set orders by their keys (see
    WeightAccumulator), which gives exactly the stable (cost, index) order,
    and reads the costs and totals the lane keeps current: the set part of
    the objective is qsum minus the k left-out set costs.  Checks, on every
    call, the weight-sum cap and the set-cost message width, the latter on
    q itself rather than on the order its keys give.
    """
    n = ctx.n
    if not 0 <= length <= n:
        raise ValueError(f"guess length must be in [0, {n}], got {length}")
    sum_w = acc.total
    if sum_w > ctx.wsum_cap:
        raise OracleSoundnessError("weight sum above the 4n^2 potential cap")
    xorder, sorder, q = acc.xorder, acc.sorder, acc.q
    # the last call's picks lead the order, and their error of -1 (unless a
    # left-out set held them) raised their costs: at the back, they leave
    # the rest one ascending run, and the sort binary-inserts only them and
    # the few other moved entries
    xorder.extend(xorder[:length])
    del xorder[:length]
    xorder.sort(key=acc.xkey.__getitem__)
    sorder.sort(key=acc.skey.__getitem__)
    if max(q, default=0).bit_length() > ctx.qhat_bits:
        raise OracleSoundnessError("set cost outgrew its message width")
    xs = xorder[:length]
    kept = ctx.m - ctx.k
    ys = sorder[kept:]
    lhs_hat = sum(map(acc.p.__getitem__, xs)) + acc.qsum - sum(map(q.__getitem__, ys))
    return OracleStep(lhs_hat <= sum_w, xs, sorder[:kept], ys, lhs_hat, sum_w)


def _mwu(ctx: LpContext, length: int) -> tuple[FractionalPair | None, int]:
    """Feasibility solve at objective guess `length`: the pair, None when
    rejected, with the accepted iterations.

    A None is a certificate that no point of the region satisfies all
    constraints at slack 0; a pair satisfies every constraint within
    1 + 1.4 * eps (checked, exact).

    The lane is one loop over its WeightAccumulator, with one call per
    iteration: the module-level oracle_step.  From the oracle's picks the
    loop builds the point's nonzero errors: with x the chosen elements and
    y the k sets left out of z, the kept sets containing i number f_i minus
    the left-out ones, so e_i = f_i - x_i - cnt_i = (left-out sets
    containing i) - x_i, nonzero only on the members of the left-out sets
    and on the chosen elements.

    The exact check, per oracle call, verifies lhs - 1/n^5 <= lhs_hat <=
    lhs, and lhs <= sum w + 1/n^5 whenever the oracle accepted, where lhs
    is the true weighted constraint sum at the point and lhs_hat its
    truncated stand-in.  Cleared to the common denominator lcm(f) * 2**b
    these are plain integer comparisons, and since x_i + cnt_i = f_i - e_i,
    lhs * lcm = lcm * sum w - sum over the moves of w_i * e_i * lcm / f_i,
    read from the weights before the move.  It relies on the kept total
    being exactly sum(w), which oracle_step trusts as well.

    An accepted iteration then moves, in one pass over its errors, the
    accumulators, the weights (re-derived from their class tables, with the
    4n^2 cap checked on each), the costs p and q with their keys and the
    two totals.  After the pass it checks the error range, then |A| <=
    2*n*t on the largest moved |A|: every entry starts at 0, and one that
    did not move still meets the bound it met, which t only loosens.  A
    failed check leaves the lane unusable, as it ends the run.  The
    averaged iterate's sum_z_j is t_total minus the iterations that left
    set j out, and its sum_x_i the left-outs of i's sets minus A_i.

    At a repeat of the state saved at the last power-of-two t (see the
    module docstring), the whole periods that fit before t_total pass at
    once, each adding its left-outs to left_out, and the rest run.  The
    state compared is every kept list and total, not a alone, so that no
    bookkeeping fault is skipped over.

    It touches no cluster: its caller charges the lane from the returned
    outcome (charge_lane).
    """
    n, m, t_total = ctx.n, ctx.m, ctx.t_total
    acc = WeightAccumulator(ctx)
    a, w, p, q, xkey, skey = acc.a, acc.w, acc.p, acc.q, acc.xkey, acc.skey
    f, d, tab, rows, member = ctx.f, ctx.d, ctx.tab, ctx.rows, ctx.member
    lcm, lcm_over_f, n_pow5 = ctx.f_lcm, ctx.lcm_over_f, ctx.n_pow5
    slack = lcm << ctx.b  # the 1/n^5 slack, times lcm * n^5
    cap, lim = ctx.wcap_log2, 2 * n
    step = oracle_step  # the module-level seam, looked up once per lane
    left_out = [0] * m  # iterations that left each set out of z
    saved = ()  # t, left_out and the kept state at the last power-of-two t
    t = 0
    while t < t_total:
        feasible, xs, _, ys, lhs_hat, sum_w = step(ctx, acc, length)
        # the nonzero errors: -1 per pick, +1 per left-out set holding it
        err = dict.fromkeys(xs, -1)
        get = err.get
        for j in ys:
            for i in rows[j]:
                e = get(i, 0) + 1
                if e:
                    err[i] = e
                else:
                    del err[i]
        total = acc.total
        lhs_lcm = total * lcm - sum([w[i] * e * lcm_over_f[i] for i, e in err.items()])
        hat_lcm = lhs_hat * lcm
        if not hat_lcm <= lhs_lcm:
            raise OracleSoundnessError("truncated objective exceeds the exact one")
        if not (lhs_lcm - hat_lcm) * n_pow5 <= slack:
            raise OracleSoundnessError("truncation lost more than 1/n^5")
        if not feasible:
            break
        if not (lhs_lcm - sum_w * lcm) * n_pow5 <= slack:
            raise OracleSoundnessError("accepted point violates the weighted budget")
        qsum = acc.qsum
        top = 0  # the largest moved |A|
        for i, e in err.items():
            v = a[i] + e
            a[i] = v
            c, r = divmod(-v, d[i])
            if c > cap:
                raise OracleSoundnessError("weight above the 4n^2 potential cap")
            wi = tab[i][r] << c if c >= 0 else tab[i][r] >> -c
            total += wi - w[i]
            w[i] = wi
            dp = wi // f[i] - p[i]
            if dp:
                p[i] += dp
                xkey[i] += dp * n
                qsum += dp * f[i]
                dk = dp * m
                for j in member[i]:
                    q[j] += dp
                    skey[j] += dk
            if abs(v) > top:
                top = abs(v)
        # the error range with the implicit zeros; an error is (left-out
        # sets holding i) - x_i >= -1 > -2n, so only hi can leave the range,
        # but the message reports both ends
        lo, hi = min(err.values(), default=0), max(err.values(), default=0)
        if len(err) < n:
            lo, hi = min(lo, 0), max(hi, 0)
        if lo < -lim or hi > lim:
            raise OracleSoundnessError(f"per-iteration error outside [-2n, 2n]: {lo}..{hi}")
        if top > lim * (t + 1):
            raise OracleSoundnessError("accumulator magnitude exceeded 2*n*t")
        # unreachable: LpContext checks that 2*n*t_total fits in abits - 1
        # bits, and the check above keeps |A| <= 2*n*t with t <= t_total
        if top.bit_length() + 1 > ctx.abits:
            raise OracleSoundnessError("accumulator outgrew its broadcast width")
        for j in ys:
            left_out[j] += 1
        t += 1
        # back at the checkpoint's state (a compares first): each later
        # iteration repeats one already run
        state = a, w, p, q, xkey, skey, total, qsum
        if state == saved[2:]:
            reps, rest = divmod(t_total - t, t - saved[0])
            left_out = [c + reps * (c - c0) for c, c0 in zip(left_out, saved[1])]
            t = t_total - rest
        acc.t, acc.total, acc.qsum = t, total, qsum
        if not t & (t - 1):  # a checkpoint at each power of two
            saved = t, left_out[:], *map(list.copy, state[:6]), *state[6:]
    if not feasible:
        return None, t
    # A_i sums (left-out sets containing i) - x_i over the iterations, so the
    # iterations that chose element i number the left-outs of its sets minus A_i
    picked = [sum(map(left_out.__getitem__, js)) - ai for js, ai in zip(member, a)]
    pair = FractionalPair(tuple(picked), tuple(t_total - c for c in left_out), t_total)
    _check_pair(ctx, length, pair)
    return pair, t


def charge_lane(ctx: LpContext, accepted: int, rejected: bool, cluster: Cluster) -> None:
    """Charge an MWU lane from its outcome: `accepted` iterations, then a
    rejected oracle call when `rejected`.  Iteration 1's cost gather, point
    broadcast, cover-count cast and accumulator broadcast are charged one by
    one, so a budget violation names its primitive and round; the later
    iterations have its shape and take one mwu.iterations entry, each at its
    summed rounds and largest peak.  A rejection costs a cost gather and a
    1-bit reject broadcast."""
    if accepted:
        cluster.gather(ctx.qhat_bits, label="oracle.cost_gather")
        cluster.broadcast(ctx.n + ctx.m, label="oracle.point_broadcast")
        cluster.convergecast(ctx.n, entry_bits=1, label="mwu.cover_count")
        cluster.broadcast(ctx.n * ctx.abits, label="mwu.acc_broadcast")
        if accepted > 1:
            first = cluster.log[-4:]  # iteration 1's entries
            rounds_1, peak_1 = sum(e.rounds for e in first), max(e.peak_bits for e in first)
            cluster.charge("mwu.iterations", (accepted - 1) * rounds_1, peak_1)
    if rejected:
        cluster.gather(ctx.qhat_bits, label="oracle.cost_gather")
        cluster.broadcast(1, label="oracle.reject_broadcast")


def _check_pair(ctx: LpContext, length: int, pair: FractionalPair) -> None:
    """Membership and slack of the averaged iterate, exactly."""
    t = pair.rounds_t
    if sum(pair.sum_x) != length * t or sum(pair.sum_z) != (ctx.m - ctx.k) * t:
        raise OracleSoundnessError("averaged iterate left the region")
    cntz = [sum(map(pair.sum_z.__getitem__, js)) for js in ctx.member]
    # constraint_i = (sum_x_i + cntz_i) / (t * f_i) must be <= 1 + 7/5 * eps
    scale = SLACK_DEN << ctx.s
    bound = scale + SLACK_NUM
    for i in range(ctx.n):
        if (pair.sum_x[i] + cntz[i]) * scale > t * ctx.f[i] * bound:
            raise OracleSoundnessError(f"constraint {i + 1} exceeds the 1 + 1.4*eps slack")


def guess_grid(n: int, eps: Fraction) -> list[int]:
    """Candidate objective values: floors of (1+eps)**i, deduplicated,
    ascending, capped at n, always containing n."""
    if n < 1:
        raise ValueError("n must be positive")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    vals: set[int] = set()
    cur = Fraction(1)
    while True:
        v = cur.numerator // cur.denominator
        if v > n:
            break
        vals.add(v)
        cur *= 1 + eps
    vals.add(n)
    vals.discard(0)
    return sorted(vals)


@dataclass(frozen=True)
class Pi1Result:
    l_star: int
    pair: FractionalPair
    feasible_guesses: tuple[int, ...]
    infeasible_guesses: tuple[int, ...]


def solve_pi1(ctx: LpContext, cluster: Cluster, certified: int = 0) -> Pi1Result:
    """Settle every guess in the grid, batched, and keep the largest feasible.

    Guesses run in parallel batches of ceil(log2(n+1)): a batch costs the
    rounds of its slowest member while inbox bits add up.  Any guess at or
    below the LP optimum is feasible, so l_star * (1+eps) >= that optimum.

    `certified` is the coverage C of some k sets of the LP's incidence (0,
    the default, certifies nothing).  Those sets make every guess L <= C
    feasible: L of their elements with the other m - k sets in z meets
    every constraint, so every oracle call of that lane accepts (see
    test_mwu_accepts_every_guess_up_to_a_greedy_coverage).  Such a lane is
    charged from its shape, as a lane accepted at all t_total iterations,
    and is not run.  Every guess above C runs, and its lane is charged
    from what _mwu returns.  When none of them is accepted, l_star is the
    largest certified guess, and it runs last, uncharged, for its pair: its
    charges are already in its batch.  Every pair returned ran with every
    exact check, and the result and the charges are those of certified = 0.
    """
    grid = guess_grid(ctx.n, ctx.eps)
    batch_size = max(1, ceil_log2(ctx.n + 1))
    pair: FractionalPair | None = None  # of the largest run guess accepted so far
    feas: list[int] = []
    infeas: list[int] = []
    for start in range(0, len(grid), batch_size):
        batch = grid[start : start + batch_size]
        lanes = []
        for length in batch:
            lane = cluster.lane()
            lanes.append(lane)
            if length <= certified:
                charge_lane(ctx, ctx.t_total, False, lane)
                feas.append(length)
                continue
            accepted, t = _mwu(ctx, length)
            charge_lane(ctx, t, accepted is None, lane)
            if accepted is None:
                infeas.append(length)
            else:
                feas.append(length)
                pair = accepted  # the grid ascends: the largest so far
        cluster.absorb_parallel(lanes, label=f"pi1.batch[{batch[0]}..{batch[-1]}]")
    # unreachable: with x one element and a set holding it left out of z (k >= 1),
    # x_i + cnt_i <= f_i for every i, so the exact weighted sum is at most sum(w); the
    # truncated sum and the oracle's minimum are at most that, so guess 1 always accepts
    if 1 in infeas:
        raise OracleSoundnessError("guess 1 was rejected")
    l_star = feas[-1]
    if pair is None:  # every accepted guess was certified, l_star the largest
        pair, _ = _mwu(ctx, l_star)
        if pair is None:
            raise OracleSoundnessError(f"certified guess {l_star} was rejected")
    return Pi1Result(l_star, pair, tuple(feas), tuple(infeas))


def scale_to_pi0(ctx: LpContext, pair: FractionalPair) -> LpSolution:
    """Turn the averaged complement-form iterate into a clean relaxation.

    Divides x and z by 1 + sigma, where sigma is the measured worst
    constraint excess (never more than 1.4 * eps by the solver contract),
    then sets y = 1 - z.  The output satisfies, exactly:
      x_i <= sum of y_j over sets containing i,
      sum(y) <= k + 2 * eps * m,
      sum(x) >= (1 - 4 * eps) * (sum of the input x).
    """
    eps, t, member = ctx.eps, pair.rounds_t, ctx.member
    cntz = [sum(map(pair.sum_z.__getitem__, js)) for js in member]
    excess = [Fraction(sx + cz, t * fv) - 1 for sx, cz, fv in zip(pair.sum_x, cntz, ctx.f)]
    sigma = max(excess + [Fraction(0)])
    if sigma > Fraction(SLACK_NUM, SLACK_DEN) * eps:
        raise OracleSoundnessError("constraint excess beyond the solver contract")
    den = 1 + sigma
    x = tuple(Fraction(v, t) / den for v in pair.sum_x)
    y = tuple(1 - Fraction(v, t) / den for v in pair.sum_z)
    for i in range(ctx.n):
        covered = sum((y[j] for j in member[i]), Fraction(0))
        # unreachable: covered = f_i - cntz_i / (t * (1 + sigma)), so x_i > covered
        # holds exactly when excess_i > sigma, and sigma is the largest excess
        if x[i] > covered:
            raise OracleSoundnessError("rescaled x exceeds its fractional cover")
    objective = sum(x, Fraction(0))
    budget_used = sum(y, Fraction(0))
    if budget_used > ctx.k + 2 * eps * ctx.m:
        raise OracleSoundnessError("rescaled budget exceeds k + 2*eps*m")
    # unreachable: objective = sum(x) / t / (1 + sigma), and sigma <= 1.4 * eps
    # gives 1 / (1 + sigma) >= 1 - sigma >= 1 - 1.4 * eps > 1 - 4 * eps
    if objective < (1 - 4 * eps) * Fraction(sum(pair.sum_x), t):
        raise OracleSoundnessError("rescaling lost more than the 4*eps factor")
    return LpSolution(x=x, y=y, objective=objective, budget_used=budget_used, sigma=sigma)
