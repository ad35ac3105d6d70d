"""End-to-end distributed max-coverage run.

The stages, in order: learn which elements are covered and drop the rest
from the incidence; take the greedy path outright when the instance is
small relative to 1/eps (n' <= 10/eps); otherwise optionally subsample the
universe, solve the covering LP by multiplicative weights, rescale, round
the fractional cover to at most k + 2*eps*m sets, and trim back to k by
dropping the sets with the smallest marginals.  The stages run on an
Incidence and k; the SetSystem stays at the parse boundary.  Set indices
are never renumbered, so a selection is valid on the original instance
as-is; element renumbering stays internal.

The user's eps is split eight ways because four stages each consume O(eps)
of the guarantee (LP slack, rescaling, rounding, trimming) with constants
at most 2; the end-to-end statistical target is 1 - 1/e - eps.

Both entry points, solve_max_coverage and bounded_frequency_solve, charge
every round to one Cluster and run the stages on it (_run_stages).  Both
return through _report: coverage is recomputed on the original instance,
and the round total is checked against the audit bound at the original
shape and the run's eps (see round_audit_bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cluster import BudgetError, Cluster, RoundLogEntry, ceil_log2
from .instance import Incidence, InstanceError, SetSystem, frequency, union_size
from .lp import LpContext, OracleSoundnessError, scale_to_pi0, solve_pi1
from .prefix import prefix_coverage, trim_to_k
from .rounding import best_of_repetitions

EPS_STAGES = 8
SUBSAMPLE_FACTOR = 4  # c_s in the sampling rate
GREEDY_GATE = 10  # greedy fallback whenever 1/eps >= n'/GREEDY_GATE
ROUND_AUDIT_SUB = 4096  # audit constant, subsampled runs
ROUND_AUDIT_FULL = 65536  # audit constant, full-universe runs


class AuditError(AssertionError):
    """A run exceeded the documented round bound."""


@dataclass(frozen=True)
class PipelineConfig:
    """eps drives the approximation; eta switches to frequency-reduced mode
    (eps is then derived as eta**2 / max frequency and must be left None)."""

    eps: Fraction | None = None
    seed: int = 0
    subsample: bool = True
    eta: Fraction | None = None
    mem_c: int | None = None
    mem_e: int | None = None

    def __post_init__(self) -> None:
        if (self.eps is None) == (self.eta is None):
            raise ValueError("give exactly one of eps or eta")
        for name, v in (("eps", self.eps), ("eta", self.eta)):
            if v is not None and not 0 < Fraction(v) <= Fraction(1, 4):
                raise ValueError(f"{name} must be a rational in (0, 1/4], got {v}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class RunReport:
    selection: tuple[int, ...]
    coverage: int
    rounds: int
    peak_bits: int
    l_star: int
    subsampled_n: int | None
    seed: int
    config: dict
    log: tuple[RoundLogEntry, ...]

    def to_json(self) -> dict:
        """The stable external shape; log is shipped separately as JSONL."""
        return {
            "selection": list(self.selection),
            "coverage": self.coverage,
            "rounds": self.rounds,
            "peak_bits": self.peak_bits,
            "L_star": self.l_star,
            "subsampled_n": self.subsampled_n,
            "seed": self.seed,
            "config": self.config,
        }


def round_audit_bound(n: int, m: int, eps: Fraction, subsample: bool) -> int:
    """Hard ceiling on total rounds for a legitimate run.

    Subsampled runs must fit in ROUND_AUDIT_SUB * eps**-3 * log2(m) *
    (log2(1/eps) + log2(m)); full-universe runs trade the second factor for
    log2(n) under the larger ROUND_AUDIT_FULL.  Logs are ceil'd and floored
    at 1 so degenerate shapes keep a positive budget.
    """
    inv = 1 / Fraction(eps)
    inv3 = math.ceil(inv**3)
    lm = max(1, ceil_log2(m))
    if subsample:
        le = max(1, ceil_log2(math.ceil(inv)))
        return ROUND_AUDIT_SUB * inv3 * lm * (le + lm)
    ln_ = max(1, ceil_log2(n))
    return ROUND_AUDIT_FULL * inv3 * ln_ * lm


def subsample_universe(inc: Incidence, k: int, eps: Fraction, seed: int):
    """Keep each element independently with the rate the coverage lower
    bound allows; returns (the incidence without the unsampled columns,
    kept ids, rate).

    The rate is min(1, c_s * (m*ln2 + ln n) / (eps**2 * Opt_lb)) with
    Opt_lb = max(largest set, ceil(n*k/m)): the largest set is achievable
    with any budget, and a uniformly random k-subset of sets covers each
    covered element with probability >= k/m, so Opt >= ceil(n*k/m) on a
    normalized instance.  m*ln2 stands in for ln C(m, k).  The input is
    normalized with n >= 1, so Opt_lb >= 1 and every sampled element stays
    covered.
    """
    m, n = inc.shape
    opt_lb = max(int(np.max(np.diff(inc.offsets), initial=0)), -(-n * k // m))
    rate = SUBSAMPLE_FACTOR * (m * math.log(2) + math.log(n)) / (float(eps) ** 2 * opt_lb)
    if rate < 1:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
        keep = rng.random(n) < rate
        # a pathologically unlucky draw keeps nothing; solving the full instance is always sound
        if keep.any():
            return inc.keep_columns(keep), tuple((np.flatnonzero(keep) + 1).tolist()), rate
    return inc, tuple(range(1, n + 1)), 1.0


def greedy_picks(inc: Incidence, k: int) -> tuple[tuple[int, ...], int]:
    """The sequential greedy on the m x n incidence `inc` (row j-1 is set
    j): k picks of the largest gain, ties to the lower index; returns the
    picks in selection order and the elements they cover.  Data plane
    only: greedy_fallback charges its rounds.

    Each set keeps its gain: it starts at the set's size and drops, after
    each pick, by the set's elements that the winner newly covered.  A
    chosen set's gain is -1, below every open gain.
    """
    n = inc.shape[1]
    sets_of = inc.transpose()  # element -> the sets holding it
    gains = np.diff(inc.offsets)
    covered = np.zeros(n, dtype=bool)
    picks: list[int] = []
    for _ in range(k):
        best = int(np.argmax(gains))  # the first maximum: ties go to the lower index
        picks.append(best + 1)
        elems = inc.ids[inc.offsets[best] : inc.offsets[best + 1]]
        fresh = elems[~covered[elems]]
        covered[fresh] = True
        gains -= sets_of.take_rows(fresh).sum(axis=0)
        gains[best] = -1
    return tuple(picks), int(np.count_nonzero(covered))


def greedy_fallback(inc: Incidence, k: int, cluster: Cluster) -> tuple[tuple[int, ...], int]:
    """Distributed greedy: greedy_picks' k picks, each charged as one
    argmax-gain reduction over a converge-cast tree.

    Each iteration reduces (gain, index) pairs up the tree (ties prefer the
    lower index), central announces the winner, and the winner ships its
    element mask so everyone can update the covered set.  Exactly
    k * (ceil(log2 m) + 2) rounds, whatever the data; picks are in
    selection order and match the sequential greedy with the same tie rule
    pick for pick.
    """
    m, n = inc.shape
    pair_bits = ceil_log2(n + 1) + ceil_log2(m + 1)
    for _ in range(k):
        # one tree level per round; each receiver takes one (gain, index) pair
        for _level in range(ceil_log2(m)):
            cluster.charge("greedy.gain_reduce", 1, pair_bits)
        cluster.broadcast(ceil_log2(m + 1), label="greedy.winner_id")
        # the winner, not central, sends its mask to everyone: a broadcast's shape
        cluster.broadcast(n, label="greedy.winner_mask")
    return greedy_picks(inc, k)


def _run_stages(inc: Incidence, k: int, eps: Fraction, cfg: PipelineConfig, cluster: Cluster):
    """normalize, gate, subsample, LP, round and trim the m x n incidence
    `inc` at budget k on `cluster`; returns (selection, l_star, subsampled_n, path)."""
    m, n = inc.shape
    # one converge-cast tells central which elements are covered at all;
    # it also settles the trivial paths
    covered_counts = cluster.convergecast_sum(inc, entry_bits=1, label="normalize.cover_cast")
    covered_n = int(np.count_nonzero(covered_counts))
    if covered_n == 0:
        return (), 0, None, "empty"
    if k >= m:
        return tuple(range(1, m + 1)), covered_n, None, "all_sets"
    cluster.broadcast(n, label="normalize.keep_broadcast")
    inc1 = inc.keep_columns(covered_counts)  # the covered elements, relabelled

    if 1 / eps >= Fraction(covered_n, GREEDY_GATE):
        sel, cov1 = greedy_fallback(inc1, k, cluster)
        return sel, cov1, None, "greedy"

    stage_eps = eps / EPS_STAGES
    inc_lp, rate = inc1, 1.0
    if cfg.subsample:
        inc_lp, _kept, rate = subsample_universe(inc1, k, stage_eps, cfg.seed)
        if rate < 1:
            cluster.broadcast(covered_n, label="subsample.keep_broadcast")
    n_lp = inc_lp.shape[1]
    subsampled_n = n_lp if rate < 1 else None

    cast_f = cluster.convergecast_sum(inc_lp, entry_bits=1, label="freq.cast")
    if tuple(int(v) for v in cast_f) != frequency(inc_lp):
        raise OracleSoundnessError("converge-cast frequencies disagree with frequency()")
    cluster.broadcast(n_lp * ceil_log2(m + 1), label="freq.broadcast")

    # the certificate: k sets covering C elements of inc_lp make every guess
    # <= C feasible (see solve_pi1); the greedy is the simulator's own
    # knowledge, not a step of the simulated run, so it charges nothing
    picks, certified = greedy_picks(inc_lp, k)
    if len(picks) > k:
        raise OracleSoundnessError(f"greedy certificate holds {len(picks)} sets, above k={k}")
    if union_size(inc_lp, picks) != certified:
        raise OracleSoundnessError("greedy certificate's coverage disagrees with union_size()")
    ctx = LpContext(inc_lp, k, stage_eps)
    pi1 = solve_pi1(ctx, cluster, certified)
    sol = scale_to_pi0(ctx, pi1.pair)

    kprime = min(m, max(int(k + 2 * stage_eps * m), -(-sum(sol.y) // sol.den)))
    sel = best_of_repetitions(inc_lp, sol.y, sol.den, kprime, stage_eps, cfg.seed, cluster)[0]
    if len(sel) > k:
        marg = prefix_coverage(inc1, sel, cluster)
        sel, _bound = trim_to_k(inc1, marg, k, cluster)
    return sel, pi1.l_star, subsampled_n, "lp"


def _report(sys, eps, cfg, cluster, selection, l_star, subsampled_n, path) -> RunReport:
    """The RunReport of a whole run on `cluster`, for _run_stages' outcome
    with the selection in the original set indices: coverage is recomputed
    on the original instance `sys`, the selection is checked against k and
    the rounds against the audit bound at the original shape and run's eps."""
    selection = tuple(selection)
    cov = int(np.count_nonzero(sys.incidence.take_rows([j - 1 for j in selection]).sum(axis=0)))
    if len(selection) > sys.k:
        raise AuditError(f"selection of {len(selection)} sets exceeds the budget k={sys.k}")
    bound = round_audit_bound(sys.n, sys.m, eps, cfg.subsample)
    if cluster.rounds > bound:
        raise AuditError(f"{cluster.rounds} rounds exceed the audit bound {bound}")
    cluster.check_log_consistent()
    config = {
        "epsilon": str(eps),
        "seed": cfg.seed,
        "subsample": cfg.subsample,
        "eta": None if cfg.eta is None else str(Fraction(cfg.eta)),
        "mem_c": cluster.mem_c,
        "mem_e": cluster.mem_e,
        "path": path,
    }
    return RunReport(
        selection=selection,
        coverage=cov,
        rounds=cluster.rounds,
        peak_bits=cluster.peak_inbox_bits,
        l_star=l_star,
        subsampled_n=subsampled_n,
        seed=cfg.seed,
        config=config,
        log=tuple(cluster.log),
    )


def _run_cluster(sys: SetSystem, cfg: PipelineConfig) -> Cluster:
    """The run's one Cluster.  Before any stage runs it refuses n >= 2**63,
    which loads but the int64 stages cannot index, and an n whose n-entry
    int64 vector (the first casts build one) this machine cannot allocate."""
    if sys.n >= 2**63:
        raise InstanceError(f"n={sys.n} is too large to run: the stages need n < 2**63")
    try:
        np.empty(sys.n, dtype=np.int64)  # uninitialised: no page is touched
    except MemoryError:
        raise InstanceError(
            f"n={sys.n} is too large to run: an int64 vector of n entries cannot be allocated"
        ) from None
    return Cluster(sys.m, sys.n, cfg.mem_c, cfg.mem_e)


def solve_max_coverage(sys: SetSystem, cfg: PipelineConfig) -> RunReport:
    """The full run; see the module docstring for the stage order."""
    if cfg.eps is None:
        raise ValueError("solve_max_coverage needs eps; use run_pipeline for eta mode")
    eps = Fraction(cfg.eps)
    cluster = _run_cluster(sys, cfg)
    return _report(sys, eps, cfg, cluster, *_run_stages(sys.incidence, sys.k, eps, cfg, cluster))


def bounded_frequency_solve(sys: SetSystem, cfg: PipelineConfig) -> RunReport:
    """Frequency-parameterized variant: keep only the ceil(k*f/eta) largest
    sets (f = max element frequency, ties keep the lower index), then run
    the standard stages at eps = eta**2 / f on the reduced instance.

    The reduction is safe because replacing any solution set with a larger
    kept one loses at most the overlap the frequency bound allows.  The
    dropped sets' machines leave the run's one Cluster before the stages
    start.  The stages' own rounds must meet the audit bound at the reduced
    shape, and the whole run the bound at the original one.  Set indices
    are mapped back before reporting.  A BudgetError raised once eps is
    derived carries it as err.epsilon, for the partial log's meta line.
    """
    if cfg.eta is None:
        raise ValueError("bounded_frequency_solve needs eta; use run_pipeline for eps mode")
    eta = Fraction(cfg.eta)
    cluster = _run_cluster(sys, cfg)
    f_vec = cluster.convergecast_sum(sys.incidence, entry_bits=1, label="bfreq.freq_cast")
    f_max = max(int(np.max(f_vec, initial=0)), 1)
    inner_eps = eta * eta / f_max
    keep_count = math.ceil(sys.k * f_max / eta)
    kept_sets, reduced = range(1, sys.m + 1), sys.incidence
    try:
        if keep_count < sys.m:
            cluster.gather(ceil_log2(sys.n + 1), label="bfreq.size_gather")
            # stable: among sets of equal size the lower index is kept
            kept_rows = np.sort(np.argsort(-np.diff(reduced.offsets), kind="stable")[:keep_count])
            kept_sets = (kept_rows + 1).tolist()
            cluster.broadcast(sys.m, label="bfreq.keep_broadcast")
            cluster.keep_machines(keep_count)
            reduced = reduced.take_rows(kept_rows)
        pre_rounds = cluster.rounds
        selection, *outcome = _run_stages(reduced, sys.k, inner_eps, cfg, cluster)
    except BudgetError as err:
        err.epsilon = inner_eps
        raise
    rounds = cluster.rounds - pre_rounds
    bound = round_audit_bound(reduced.shape[1], reduced.shape[0], inner_eps, cfg.subsample)
    if rounds > bound:
        raise AuditError(f"{rounds} rounds exceed the audit bound {bound}")
    selection = sorted(kept_sets[j - 1] for j in selection)
    return _report(sys, inner_eps, cfg, cluster, selection, *outcome)


def run_pipeline(sys: SetSystem, cfg: PipelineConfig) -> RunReport:
    """Dispatch on the config: eta set -> frequency-reduced mode."""
    if cfg.eta is not None:
        return bounded_frequency_solve(sys, cfg)
    return solve_max_coverage(sys, cfg)
