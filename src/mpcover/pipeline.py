"""End-to-end distributed max-coverage run.

The stages, in order: learn which elements are covered and drop the rest;
take the greedy path outright when the instance is small relative to 1/eps
(n' <= 10/eps); otherwise optionally subsample the universe, solve the
covering LP by multiplicative weights, rescale, round the fractional cover
to at most k + 2*eps*m sets, and trim back to k by dropping the sets with
the smallest marginals.  Set indices are never renumbered, so a selection
is valid on the original instance as-is; element renumbering stays
internal.

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

from .cluster import Cluster, RoundLogEntry, ceil_log2
from .instance import (
    SetSystem,
    coverage,
    frequency,
    incidence,
    normalize_covered,
    set_masks,
)
from .lp import LpContext, OracleSoundnessError, scale_to_pi0, solve_pi1
from .prefix import prefix_coverage, trim_to_k
from .rounding import RoundingConfig, best_of_repetitions

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


def subsample_universe(sys: SetSystem, eps: Fraction, seed: int):
    """Keep each element independently with the rate the coverage lower
    bound allows; returns (reduced system, kept ids, rate).

    The rate is min(1, c_s * (m*ln2 + ln n) / (eps**2 * Opt_lb)) with
    Opt_lb = max(largest set, ceil(n*k/m)): the largest set is achievable
    with any budget, and a uniformly random k-subset of sets covers each
    covered element with probability >= k/m, so Opt >= ceil(n*k/m) on a
    normalized instance.  m*ln2 stands in for ln C(m, k).
    """
    n, m, k = sys.n, sys.m, sys.k
    opt_lb = max(max((len(s) for s in sys.sets), default=0), -(-n * k // m))
    if opt_lb == 0:
        return sys, tuple(range(1, n + 1)), 1.0
    rate = SUBSAMPLE_FACTOR * (m * math.log(2) + math.log(n)) / (float(eps) ** 2 * opt_lb)
    if rate >= 1:
        return sys, tuple(range(1, n + 1)), 1.0
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    keep = rng.random(n) < rate
    if not keep.any():
        # pathologically unlucky draw; solving the full instance is always sound
        return sys, tuple(range(1, n + 1)), 1.0
    restricted = SetSystem(
        n=n, m=m, k=k, sets=tuple(tuple(e for e in s if keep[e - 1]) for s in sys.sets)
    )
    reduced, kept = normalize_covered(restricted)
    return reduced, kept, rate


def _pad_budget(y, kprime: int):
    """Raise y entries (ascending index, clamped at 1) until sum(y) = kprime."""
    y = [Fraction(v) for v in y]
    deficit = kprime - sum(y)
    if deficit < 0:
        raise ValueError("kprime below the fractional budget")
    for j in range(len(y)):
        if deficit == 0:
            break
        room = 1 - y[j]
        add = room if room < deficit else deficit
        y[j] += add
        deficit -= add
    if deficit != 0:
        raise ValueError("kprime exceeds the number of sets")
    return y


def greedy_fallback(sys: SetSystem, cluster: Cluster) -> tuple[tuple[int, ...], int]:
    """Distributed greedy: k rounds of argmax-gain over a reduction tree.

    Each iteration reduces (gain, index) pairs up the converge-cast tree
    (ties prefer the lower index), central announces the winner, and the
    winner ships its element mask so everyone can update the covered set.
    Exactly k * (ceil(log2 m) + 2) rounds; picks are in selection order and
    match the sequential greedy with the same tie rule pick for pick.
    """
    n, m, k = sys.n, sys.m, sys.k
    masks = set_masks(sys)
    pair_bits = ceil_log2(n + 1) + ceil_log2(m + 1)
    covered = 0
    picks: list[int] = []
    for _ in range(k):
        best = [
            ((masks[j] & ~covered).bit_count() if (j + 1) not in picks else -1, -(j + 1))
            for j in range(m)
        ]
        # one tree level per round; each receiver takes one (gain, index) pair
        stride = 1
        while stride < m:
            cluster.step_round(
                ((s, s - stride, pair_bits) for s in range(1 + stride, m + 1, 2 * stride)),
                label="greedy.gain_reduce",
            )
            stride *= 2
        gain, neg = max(best)
        winner = -neg
        cluster.broadcast(ceil_log2(m + 1), label="greedy.winner_id")
        # the winner, not central, sends its mask to everyone: a broadcast's shape
        cluster.broadcast(n, label="greedy.winner_mask")
        picks.append(winner)
        covered |= masks[winner - 1]
    return tuple(picks), covered.bit_count()


def _run_stages(sys: SetSystem, eps: Fraction, cfg: PipelineConfig, cluster: Cluster):
    """normalize, gate, subsample, LP, round and trim on `cluster`; returns
    (selection, l_star, subsampled_n, path)."""
    # one converge-cast tells central which elements are covered at all;
    # it also settles the trivial paths
    covered_counts = cluster.convergecast_sum(
        incidence(sys), entry_bits=1, label="normalize.cover_cast"
    )
    covered_n = int(np.count_nonzero(covered_counts))
    if covered_n == 0:
        return (), 0, None, "empty"
    if sys.k >= sys.m:
        return tuple(range(1, sys.m + 1)), covered_n, None, "all_sets"
    cluster.broadcast(sys.n, label="normalize.keep_broadcast")
    sys1, _kept1 = normalize_covered(sys)

    if 1 / eps >= Fraction(sys1.n, GREEDY_GATE):
        sel, cov1 = greedy_fallback(sys1, cluster)
        return sel, cov1, None, "greedy"

    stage_eps = eps / EPS_STAGES
    if cfg.subsample:
        sys_lp, _kept2, rate = subsample_universe(sys1, stage_eps, cfg.seed)
        if rate < 1:
            cluster.broadcast(sys1.n, label="subsample.keep_broadcast")
    else:
        sys_lp, rate = sys1, 1.0
    subsampled_n = sys_lp.n if rate < 1 else None

    cast_f = cluster.convergecast_sum(incidence(sys_lp), entry_bits=1, label="freq.cast")
    if tuple(int(v) for v in cast_f) != frequency(sys_lp):
        raise OracleSoundnessError("converge-cast frequencies disagree with frequency()")
    cluster.broadcast(sys_lp.n * ceil_log2(sys_lp.m + 1), label="freq.broadcast")

    ctx = LpContext(sys_lp, stage_eps)
    pi1 = solve_pi1(ctx, cluster)
    if pi1.pair is None:
        # even L=1 rejected: nothing usable from the LP, greedy still applies
        sel, cov1 = greedy_fallback(sys1, cluster)
        return sel, cov1, None, "greedy"
    sol = scale_to_pi0(ctx, pi1.pair)

    budget = sum(sol.y, Fraction(0))
    kprime = min(sys_lp.m, max(int(sys_lp.k + 2 * stage_eps * sys_lp.m), math.ceil(budget)))
    y_pad = _pad_budget(sol.y, kprime)
    sel, _cov_sub, _reps = best_of_repetitions(
        sys_lp, y_pad, kprime, RoundingConfig(eps=stage_eps, seed=cfg.seed), cluster
    )
    if len(sel) > sys1.k:
        marg = prefix_coverage(sys1, sel, cluster)
        sel, _bound = trim_to_k(sys1, marg, sys1.k, cluster)
    return sel, pi1.l_star, subsampled_n, "lp"


def _report(sys, eps, cfg, cluster, selection, l_star, subsampled_n, path) -> RunReport:
    """The RunReport of a whole run on `cluster`, for _run_stages' outcome
    with the selection in the original set indices: coverage is recomputed
    on the original instance `sys`, the selection is checked against k and
    the rounds against the audit bound at the original shape and run's eps."""
    selection = tuple(selection)
    cov = coverage(sys, selection)
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


def solve_max_coverage(sys: SetSystem, cfg: PipelineConfig) -> RunReport:
    """The full run; see the module docstring for the stage order."""
    if cfg.eps is None:
        raise ValueError("solve_max_coverage needs eps; use run_pipeline for eta mode")
    eps = Fraction(cfg.eps)
    cluster = Cluster(sys.m, sys.n, cfg.mem_c, cfg.mem_e)
    return _report(sys, eps, cfg, cluster, *_run_stages(sys, eps, cfg, cluster))


def bounded_frequency_solve(sys: SetSystem, cfg: PipelineConfig) -> RunReport:
    """Frequency-parameterized variant: keep only the ceil(k*f/eta) largest
    sets (f = max element frequency, ties keep the lower index), then run
    the standard stages at eps = eta**2 / f on the reduced instance.

    The reduction is safe because replacing any solution set with a larger
    kept one loses at most the overlap the frequency bound allows.  The
    dropped sets' machines leave the run's one Cluster before the stages
    start.  The stages' own rounds must meet the audit bound at the reduced
    shape, and the whole run the bound at the original one.  Set indices
    are mapped back before reporting.
    """
    if cfg.eta is None:
        raise ValueError("bounded_frequency_solve needs eta; use run_pipeline for eps mode")
    eta = Fraction(cfg.eta)
    cluster = Cluster(sys.m, sys.n, cfg.mem_c, cfg.mem_e)
    f_vec = cluster.convergecast_sum(incidence(sys), entry_bits=1, label="bfreq.freq_cast")
    f_max = max(int(np.max(f_vec, initial=0)), 1)
    keep_count = math.ceil(sys.k * f_max / eta)
    kept_sets, reduced = range(1, sys.m + 1), sys
    if keep_count < sys.m:
        cluster.gather(ceil_log2(sys.n + 1), label="bfreq.size_gather")
        order = sorted(range(1, sys.m + 1), key=lambda j: (-len(sys.sets[j - 1]), j))
        kept_sets = sorted(order[:keep_count])
        cluster.broadcast(sys.m, label="bfreq.keep_broadcast")
        cluster.keep_machines(keep_count)
        reduced = SetSystem(sys.n, keep_count, sys.k, tuple(sys.sets[j - 1] for j in kept_sets))
    inner_eps = eta * eta / f_max
    pre_rounds = cluster.rounds
    selection, *outcome = _run_stages(reduced, inner_eps, cfg, cluster)
    rounds = cluster.rounds - pre_rounds
    bound = round_audit_bound(reduced.n, reduced.m, inner_eps, cfg.subsample)
    if rounds > bound:
        raise AuditError(f"{rounds} rounds exceed the audit bound {bound}")
    selection = sorted(kept_sets[j - 1] for j in selection)
    return _report(sys, inner_eps, cfg, cluster, selection, *outcome)


def run_pipeline(sys: SetSystem, cfg: PipelineConfig) -> RunReport:
    """Dispatch on the config: eta set -> frequency-reduced mode."""
    if cfg.eta is not None:
        return bounded_frequency_solve(sys, cfg)
    return solve_max_coverage(sys, cfg)
