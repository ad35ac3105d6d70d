"""Acceptance gate: the pipeline's ten headline guarantees, one test each.

Every test prints a one-line summary of the measured quantity next to its
pinned threshold (visible with -s, or on failure), and the session-scoped
fixtures below share the expensive runs between criteria.
"""

import contextlib
import hashlib
import io
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import mpcover.pipeline as pipeline_mod
from mpcover import (
    Cluster,
    PipelineConfig,
    SetSystem,
    coverage,
    generate_random,
    log_to_jsonl,
    solve_max_coverage,
)
from mpcover.baselines import exact_opt, greedy_sequential
from mpcover.cli import main as cli_main
from mpcover.cluster import ceil_log2
from mpcover.instance import frequency
from mpcover.lp import WeightAccumulator, guess_grid, oracle_step, scale_to_pi0, solve_pi1
from mpcover.prefix import prefix_coverage, trim_to_k
from test_baselines import oracle_minimum
from test_instance import normalize_covered
from test_lp import dense_rows, lp_context, recording_iterations, seed_lane, truncated_pq
from test_rounding import randomized_round

RATIO_EPS = 0.1
SEEDS_PER_INSTANCE = 200
LP_STAGE_EPS = Fraction(1, 8)
# sha256 of every roster instance's exact LP output and round log (see
# test_lp_exact_output_pinned_on_roster)
ROSTER_LP_SHA256 = "826af5321736640c78194224832d4660cc68c062ab4415dc93eb44c45e3915c9"


def build_roster() -> list[SetSystem]:
    """20 deterministic instances, n <= 60, m <= 20, k = max(2, m // 4)."""
    out = []
    for i in range(20):
        n = 20 + 2 * i
        m = 6 + (i % 15)
        k = max(2, m // 4)
        if i % 2 == 0:
            sys_ = generate_random(n, m, k, density=0.15 + 0.03 * (i % 5), seed=100 + i)
        else:
            sys_ = generate_random(n, m, k, set_size=(2, max(3, n // 6)), seed=100 + i)
        out.append(sys_)
    return out


@pytest.fixture(scope="session")
def roster():
    systems = build_roster()
    for sys_ in systems:
        assert sys_.n <= 60 and sys_.m <= 20
        # the LP criteria need a non-degenerate covered universe
        assert normalize_covered(sys_)[0].n >= 5
    return systems


@pytest.fixture(scope="session")
def pipeline_runs(roster):
    """All roster runs at eps = 0.1: the shared base for several criteria."""
    t0 = time.monotonic()
    runs = []
    for idx, sys_ in enumerate(roster):
        opt = exact_opt(sys_).value
        for seed in range(SEEDS_PER_INSTANCE):
            rep = solve_max_coverage(sys_, PipelineConfig(eps=Fraction(1, 10), seed=seed))
            runs.append({"idx": idx, "seed": seed, "opt": opt, "report": rep})
    return {"runs": runs, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="session")
def lp_solutions(roster):
    """solve_pi1 on every normalized roster instance at eps = 1/8, with the
    per-iteration records kept for the soundness criteria."""
    out = []
    for sys_ in roster:
        sys1, _ = normalize_covered(sys_)
        ctx = lp_context(sys1, LP_STAGE_EPS)
        records = []
        cl = Cluster(sys1.m, sys1.n)
        with recording_iterations(records):
            res = solve_pi1(ctx, cl)
        assert res.pair is not None
        sol = scale_to_pi0(ctx, res.pair)
        out.append(
            {
                "sys1": sys1,
                "f": frequency(sys1.incidence),
                "ctx": ctx,
                "res": res,
                "sol": sol,
                "records": records,
                "log": cl.log,
            }
        )
    return out


@pytest.fixture(scope="session")
def oracle_trials():
    """1000 randomized oracle calls on toy shapes, with full state kept."""
    rng = np.random.default_rng(np.random.PCG64(20240817))
    t0 = time.monotonic()
    trials = []
    while len(trials) < 1000:
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, min(6, n) + 1))
        k = int(rng.integers(1, m + 1))
        member = [[] for _ in range(n)]
        for j in range(m):
            for e in range(1, n + 1):
                if rng.random() < 0.5:
                    member[e - 1].append(j)
        for e in range(1, n + 1):
            if not member[e - 1]:
                member[e - 1].append(int(rng.integers(0, m)))
        sets = [[] for _ in range(m)]
        for e in range(1, n + 1):
            for j in member[e - 1]:
                sets[j].append(e)
        sys_ = SetSystem(n, m, k, tuple(tuple(sorted(set(s))) for s in sets))
        ctx = None
        for eps in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
            try:
                ctx = lp_context(sys_, eps)
                break
            except ValueError:
                continue
        if ctx is None:
            continue
        acc = WeightAccumulator(ctx)
        # floor(-14 * eps / f) <= 3 doublings keeps the weight sum under 4n^2
        seed_lane(ctx, acc, rng.integers(-14, 31, size=n))
        length = int(rng.integers(1, n + 1))
        st = oracle_step(ctx, acc, length)
        trials.append({"ctx": ctx, "st": st, "w": list(acc.w), "length": length})
    return {"trials": trials, "elapsed": time.monotonic() - t0}


# -- the ten criteria ------------------------------------------------------


def test_criterion_01_approximation_ratio(pipeline_runs):
    """Coverage >= (1 - 1/e - 0.1) * opt on >= 95% of 4000 runs, under 10 min."""
    target = 1 - 1 / math.e - RATIO_EPS
    runs = pipeline_runs["runs"]
    ok = sum(1 for r in runs if r["report"].coverage >= target * r["opt"])
    frac = ok / len(runs)
    print(
        f"criterion 1: {ok}/{len(runs)} runs reach {target:.4f}*opt "
        f"({100 * frac:.2f}%), {pipeline_runs['elapsed']:.1f}s"
    )
    assert len(runs) == 20 * SEEDS_PER_INSTANCE
    assert frac >= 0.95
    assert pipeline_runs["elapsed"] <= 600


def test_lp_route_ratio_sample():
    """Criterion 01's ratio on the LP route, which criterion 01's runs never
    take: 8 seeded instances at density 0.15 and eps = 1/4, each past the
    greedy gate (n' > 40), reach (1 - 1/e - 1/4) * opt.  So do 9 instances
    in the paper's regime of k = m / 100 (ROADMAP direction 5): 8 with
    n = 200, m = 100, k = 1, and one with n = 300, m = 200, k = 2, where
    the trim cuts the drawn sets' coverage down the most.  The guess search
    is checked too: l_star is n' or the grid's next guess, which was
    rejected, lies above the LP optimum and so above opt."""
    target = 1 - 1 / math.e - 0.25
    # instance seeds from 24 on: each of these eight takes the LP route
    dense = [
        (generate_random(50 + 6 * s, 12 + s % 5, 2 + s % 3, density=0.15, seed=24 + s), s)
        for s in range(8)
    ]
    paper = [(generate_random(200, 100, 1, density=0.05, seed=s), s) for s in range(1, 9)]
    paper.append((generate_random(300, 200, 2, density=0.05, seed=1), 1))

    def ratios(cases):
        out = []
        for sys_, s in cases:
            rep = solve_max_coverage(sys_, PipelineConfig(eps=Fraction(1, 4), seed=s))
            opt = exact_opt(sys_).value
            where = (sys_.n, sys_.m, sys_.k, s)
            assert rep.config["path"] == "lp", where
            assert rep.coverage >= target * opt, where
            # no subsample: the LP's grid is over the n' covered elements
            assert rep.subsampled_n is None, where
            n1 = normalize_covered(sys_)[0].n
            grid = guess_grid(n1, Fraction(1, 4) / pipeline_mod.EPS_STAGES)
            assert rep.l_star == n1 or grid[grid.index(rep.l_star) + 1] > opt, where
            out.append((rep.coverage / opt, greedy_sequential(sys_).value / opt))
        return out

    got, got_paper = ratios(dense), ratios(paper)
    print(
        f"LP route: worst coverage/opt {min(r for r, _ in got):.3f} over {len(got)} runs "
        f"(greedy {min(g for _, g in got):.3f}), {min(r for r, _ in got_paper):.3f} over "
        f"{len(got_paper)} runs at k = m/100, threshold {target:.4f}"
    )


def test_criterion_02_lp_solver_contract(lp_solutions):
    """At the largest feasible guess: sum x = L*, sum z = m - k, and every
    constraint within 1 + 1.4 * eps, all in exact rational arithmetic."""
    slack_cap = 1 + Fraction(7, 5) * LP_STAGE_EPS
    worst = Fraction(0)
    for entry in lp_solutions:
        sys1, res = entry["sys1"], entry["res"]
        assert entry["ctx"].eps == LP_STAGE_EPS
        assert res.l_star == max(res.feasible_guesses)
        t = res.pair.rounds_t
        x = [Fraction(v, t) for v in res.pair.sum_x]
        z = [Fraction(v, t) for v in res.pair.sum_z]
        assert sum(x) == res.l_star
        assert sum(z) == sys1.m - sys1.k
        zsum = [Fraction(0)] * sys1.n
        for j, s in enumerate(sys1.sets):
            for e in s:
                zsum[e - 1] += z[j]
        f = entry["f"]
        for i in range(sys1.n):
            lhs = (x[i] + zsum[i]) / f[i]
            worst = max(worst, lhs)
            assert lhs <= slack_cap
    print(f"criterion 2: 20 instances, worst constraint {worst} <= {slack_cap}")


def test_criterion_03_oracle_equivalence(oracle_trials):
    """The sort-based oracle value equals the exhaustive minimum, exactly."""
    for tr in oracle_trials["trials"]:
        ctx, st = tr["ctx"], tr["st"]
        ref = oracle_minimum(truncated_pq(ctx, tr["w"]), tr["length"], ctx.m - ctx.k)
        assert st.lhs_hat_scaled == ref
    print(
        f"criterion 3: {len(oracle_trials['trials'])} trials equal the "
        f"brute force, {oracle_trials['elapsed']:.1f}s"
    )
    assert len(oracle_trials["trials"]) == 1000
    assert oracle_trials["elapsed"] <= 60


def test_criterion_04_truncation_soundness(oracle_trials, lp_solutions):
    """lhs - 1/n^5 <= lhs_hat <= lhs for the oracle states of criterion 3,
    recomputed here with Fractions; criterion 1 and 2 invocations run the
    same check inline on every iteration and abort the run on violation."""
    for tr in oracle_trials["trials"]:
        ctx, st, w = tr["ctx"], tr["st"], tr["w"]
        x_ind = np.zeros(ctx.n, dtype=np.int64)
        x_ind[st.x_idx] = 1
        cnt = dense_rows(ctx)[st.z_idx].sum(axis=0)
        scale = 1 << ctx.b
        lhs = sum(
            Fraction(w[i] * int(x_ind[i] + cnt[i]), ctx.f[i] * scale)
            for i in range(ctx.n)
        )
        lhs_hat = Fraction(st.lhs_hat_scaled, scale)
        assert lhs - Fraction(1, ctx.n**5) <= lhs_hat <= lhs
        assert st.feasible == (st.lhs_hat_scaled <= st.sum_w_scaled)
    # the solver's own per-iteration records: an accepted step never
    # overstates the truncated objective against the weight budget
    checked = 0
    for entry in lp_solutions:
        for rec in entry["records"]:
            if rec["feasible"]:
                assert rec["lhs_hat_scaled"] <= rec["sum_w_scaled"]
                checked += 1
    print(f"criterion 4: 1000 oracle states exact, {checked} solver iterations consistent")
    assert checked > 0


def test_criterion_05_prefix_correctness():
    """prefix_coverage equals the sequential marginal scan on 500 random
    ordered collections, within 3 * ceil(log2 r) + 2 rounds."""
    rng = np.random.default_rng(np.random.PCG64(5))
    worst_rounds = 0
    for _ in range(500):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(max(m, 10), 201))
        r = int(rng.integers(1, m + 1))
        density = float(rng.uniform(0.02, 0.3))
        keep = rng.random((m, n)) < density
        sets = tuple(
            tuple(int(e) + 1 for e in np.flatnonzero(keep[j])) for j in range(m)
        )
        sys_ = SetSystem(n, m, min(m, max(1, r // 2)), sets)
        sel = tuple(int(j) + 1 for j in np.sort(rng.choice(m, size=r, replace=False)))
        cl = Cluster(m, n)
        mv = prefix_coverage(sys_.incidence, sel, cl)
        seen = 0
        expect = []
        for j in sel:
            mask = 0
            for e in sys_.sets[j - 1]:
                mask |= 1 << (e - 1)
            expect.append((mask | seen).bit_count() - seen.bit_count())
            seen |= mask
        assert mv.selection == sel
        assert mv.phis == tuple(expect)
        assert cl.rounds <= 3 * ceil_log2(r) + 2
        worst_rounds = max(worst_rounds, cl.rounds)
        cl.check_log_consistent()
    print(f"criterion 5: 500 collections match; worst round count {worst_rounds}")


def test_criterion_06_trim_bound(pipeline_runs, roster):
    """Selections never exceed k, and trimming an over-budget selection
    loses at most the removed marginal mass, exactly."""
    for r in pipeline_runs["runs"]:
        sys_ = roster[r["idx"]]
        assert len(r["report"].selection) == min(sys_.k, sys_.m)
    rng = np.random.default_rng(np.random.PCG64(6))
    for _ in range(200):
        sys_ = generate_random(
            int(rng.integers(12, 60)),
            int(rng.integers(6, 13)),
            2,
            density=float(rng.uniform(0.1, 0.4)),
            seed=int(rng.integers(0, 2**32)),
        )
        r_len = int(rng.integers(3, sys_.m + 1))
        k = int(rng.integers(1, r_len))
        sel = tuple(int(j) + 1 for j in np.sort(rng.choice(sys_.m, size=r_len, replace=False)))
        mv = prefix_coverage(sys_.incidence, sel, Cluster(sys_.m, sys_.n))
        trimmed, bound = trim_to_k(sys_.incidence, mv, k, Cluster(sys_.m, sys_.n))
        assert len(trimmed) == min(k, r_len)
        removed = set(sel) - set(trimmed)
        removed_phi = sum(
            phi for j, phi in zip(mv.selection, mv.phis) if j in removed
        )
        assert coverage(sys_, trimmed) >= coverage(sys_, sel) - removed_phi
        assert bound == mv.total - removed_phi
    print("criterion 6: 4000 selection sizes exact; 200 trims within the removed mass")


def test_criterion_07_rounding_expectation(lp_solutions):
    """Mean rounded coverage over 10^4 draws stays within three standard
    errors of the (1 - 1/e) * objective floor, on five LP solutions."""
    t0 = time.monotonic()
    lines = []
    for idx in (0, 4, 8, 12, 16):
        entry = lp_solutions[idx]
        sys1, sol = entry["sys1"], entry["sol"]
        m, k = sys1.m, sys1.k
        kprime = min(m, max(int(k + 2 * LP_STAGE_EPS * m), math.ceil(sol.budget_used)))
        covs = np.empty(10_000, dtype=np.int64)
        for rep in range(10_000):
            covs[rep] = coverage(sys1, randomized_round(sol.y, kprime, seed=rep))
        mean = float(covs.mean())
        se = float(covs.std(ddof=1)) / math.sqrt(len(covs))
        floor = (1 - 1 / math.e) * float(sol.objective)
        lines.append(f"inst {idx}: mean {mean:.3f} vs floor {floor:.3f} - 3*{se:.4f}")
        assert mean >= floor - 3 * se
    elapsed = time.monotonic() - t0
    print(f"criterion 7: {'; '.join(lines)}; {elapsed:.1f}s")
    assert elapsed <= 120


def test_criterion_08_round_and_memory_audit(pipeline_runs, lp_solutions, roster, tmp_path):
    """Every roster run passes the CLI audit against the pinned round-bound
    constants, stays inside the default memory budget, and the solver's
    accumulators stay within 2*n*t at every recorded iteration."""
    assert pipeline_mod.ROUND_AUDIT_SUB == 4096
    assert pipeline_mod.ROUND_AUDIT_FULL == 65536
    log_path = tmp_path / "audit.jsonl"
    for r in pipeline_runs["runs"]:
        rep = r["report"]
        sys_ = roster[r["idx"]]
        meta = {
            "n": sys_.n,
            "m": sys_.m,
            "k": sys_.k,
            "epsilon": rep.config["epsilon"],
            "eta": None,
            "subsample": rep.config["subsample"],
            "seed": r["seed"],
            "mem_c": rep.config["mem_c"],
            "mem_e": rep.config["mem_e"],
        }
        log_path.write_text(log_to_jsonl(rep.log, meta=meta))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["audit", "--input", str(log_path)]) == 0
        assert rep.peak_bits <= Cluster(sys_.m, sys_.n).budget_bits
    accum_checked = 0
    for entry in lp_solutions:
        n1 = entry["sys1"].n
        for rec in entry["records"]:
            if rec["feasible"]:
                assert rec["acc_absmax"] <= 2 * n1 * rec["acc_t"]
                accum_checked += 1
    print(
        f"criterion 8: {len(pipeline_runs['runs'])} audits pass, "
        f"{accum_checked} accumulator states within 2*n*t"
    )


def test_criterion_09_bounded_frequency_mode():
    """On disjoint instances, eta = 0.2 recovers at least
    (1 - 1/e - 0.2) of the top-k mass in >= 95% of 200 seeds each."""
    target = 1 - 1 / math.e - 0.2
    rng = np.random.default_rng(np.random.PCG64(9))
    fractions = []
    for v in range(5):
        m = 12 + 2 * v
        sizes = [int(s) for s in rng.integers(1, 13, size=m)]
        sets = []
        e = 1
        for sz in sizes:
            sets.append(tuple(range(e, e + sz)))
            e += sz
        sys_ = SetSystem(e - 1, m, max(2, m // 4), tuple(sets))
        assert max(frequency(sys_.incidence)) == 1
        topk = sum(sorted(sizes, reverse=True)[: sys_.k])
        ok = 0
        for seed in range(SEEDS_PER_INSTANCE):
            rep = pipeline_mod.run_pipeline(sys_, PipelineConfig(eta=Fraction(1, 5), seed=seed))
            if rep.coverage >= target * topk:
                ok += 1
        fractions.append(ok / SEEDS_PER_INSTANCE)
        assert ok / SEEDS_PER_INSTANCE >= 0.95
    print(
        "criterion 9: per-instance success "
        + ", ".join(f"{100 * fr:.1f}%" for fr in fractions)
    )


def test_criterion_10_determinism(pipeline_runs, roster):
    """Identical (instance, seed) pairs reproduce the report and the round
    log byte for byte."""
    checked = 0
    for idx in (0, 9, 15):
        sys_ = roster[idx]
        for seed in (0, 123):
            cfg = PipelineConfig(eps=Fraction(1, 10), seed=seed)
            a = solve_max_coverage(sys_, cfg)
            b = solve_max_coverage(sys_, cfg)
            dump = lambda rep: json.dumps(rep.to_json(), sort_keys=True)
            assert dump(a) == dump(b)
            meta = {"n": sys_.n, "m": sys_.m, "seed": seed}
            assert log_to_jsonl(a.log, meta=meta) == log_to_jsonl(b.log, meta=meta)
            if seed < SEEDS_PER_INSTANCE:
                stored = next(
                    r["report"]
                    for r in pipeline_runs["runs"]
                    if r["idx"] == idx and r["seed"] == seed
                )
                assert dump(a) == dump(stored)
            checked += 2
    print(f"criterion 10: {checked} reruns byte-identical")


# -- frozen outputs --------------------------------------------------------


def test_lp_exact_output_pinned_on_roster(lp_solutions):
    """solve_pi1's exact output on the roster is frozen: per instance n',
    l_star, the iterate sums, both guess lists and the round log.  Half the
    roster has n' <= 31, the other half n' >= 32, so any change to the
    fixed-point weight arithmetic on either side shows here."""
    digest = hashlib.sha256()
    for entry in lp_solutions:
        res = entry["res"]
        key = (
            entry["sys1"].n,
            res.l_star,
            res.pair.sum_x,
            res.pair.sum_z,
            res.feasible_guesses,
            res.infeasible_guesses,
        )
        digest.update(repr(key).encode())
        digest.update(log_to_jsonl(entry["log"]).encode())
    print(f"roster LP output sha256 {digest.hexdigest()}")
    assert sum(entry["sys1"].n <= 31 for entry in lp_solutions) == 10
    assert digest.hexdigest() == ROSTER_LP_SHA256
