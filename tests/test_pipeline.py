"""End-to-end pipeline: paths, subsampling, budgets, the audit bound."""

import hashlib
import math
from fractions import Fraction

import pytest

from mpcover import (
    AuditError,
    Cluster,
    PipelineConfig,
    SetSystem,
    coverage,
    generate_random,
    log_to_jsonl,
    run_pipeline,
    solve_max_coverage,
)
from mpcover.baselines import exact_opt, greedy_sequential
from mpcover.cluster import ceil_log2
import mpcover.pipeline as pipeline_mod
from mpcover.pipeline import _pad_budget, greedy_fallback, subsample_universe


def tile_system(num_tiles: int, k: int) -> SetSystem:
    """Disjoint tiles: one set of 4 elements, the rest of 3."""
    sets = []
    e = 1
    for i in range(num_tiles):
        size = 4 if i == 0 else 3
        sets.append(tuple(range(e, e + size)))
        e += size
    return SetSystem(e - 1, num_tiles, k, tuple(sets))


# -- config and bounds -----------------------------------------------------


def test_config_validation():
    PipelineConfig(eps=Fraction(1, 4))
    PipelineConfig(eta=Fraction(1, 5))
    with pytest.raises(ValueError):
        PipelineConfig()
    with pytest.raises(ValueError):
        PipelineConfig(eps=Fraction(1, 8), eta=Fraction(1, 8))
    with pytest.raises(ValueError):
        PipelineConfig(eps=Fraction(1, 3))
    with pytest.raises(ValueError):
        PipelineConfig(eta=Fraction(1, 3))
    with pytest.raises(ValueError):
        PipelineConfig(eps=Fraction(0))
    with pytest.raises(ValueError):
        PipelineConfig(eps=Fraction(1, 4), seed=2**64)


def test_round_audit_bound_values():
    eps = Fraction(1, 10)
    assert pipeline_mod.round_audit_bound(100, 20, eps, True) == 4096 * 1000 * 5 * (4 + 5)
    assert pipeline_mod.round_audit_bound(100, 20, eps, False) == 65536 * 1000 * 7 * 5
    # degenerate shapes keep a positive budget
    assert pipeline_mod.round_audit_bound(1, 1, Fraction(1, 4), True) > 0


# -- subsampling -----------------------------------------------------------


def test_subsample_identity_when_rate_saturates():
    sys_ = SetSystem(4, 3, 2, ((1, 2), (2, 3), (3, 4)))
    reduced, kept, rate = subsample_universe(sys_, Fraction(1, 4), seed=0)
    assert reduced is sys_
    assert kept == (1, 2, 3, 4)
    assert rate == 1.0


def test_subsample_dense_binomial_instance():
    sys_ = generate_random(10_000, 100, 50, density=0.95, seed=1)
    eps = Fraction(1, 5)
    reduced, kept, rate = subsample_universe(sys_, eps, seed=7)
    opt_lb = max(max(len(s) for s in sys_.sets), math.ceil(sys_.n * sys_.k / sys_.m))
    expect = 4 * (sys_.m * math.log(2) + math.log(sys_.n)) / (float(eps) ** 2 * opt_lb)
    assert rate == pytest.approx(expect)
    assert 0 < rate < 1
    assert reduced.n == len(kept) < sys_.n
    # a fair margin around the expected keep count n * rate
    assert abs(reduced.n - sys_.n * rate) < 4 * math.sqrt(sys_.n * rate)
    assert kept == tuple(sorted(set(kept)))
    # sets restrict elementwise: renumbered membership matches the kept ids
    back = dict(enumerate(kept, start=1))
    kept_ids = set(kept)
    for s_new, s_old in zip(reduced.sets, sys_.sets):
        assert tuple(back[e] for e in s_new) == tuple(e for e in s_old if e in kept_ids)
    again = subsample_universe(sys_, eps, seed=7)
    assert again[0] == reduced and again[1] == kept


def test_subsample_preserves_set_count_beyond_n():
    # heavy subsampling can leave fewer elements than sets; indices survive
    sys_ = generate_random(10_000, 100, 50, density=0.95, seed=1)
    reduced, _, _ = subsample_universe(sys_, Fraction(1, 5), seed=3)
    assert reduced.m == sys_.m


# -- budget padding --------------------------------------------------------


def test_pad_budget():
    y = _pad_budget([Fraction(1, 2), Fraction(1, 2), Fraction(0)], 2)
    assert y == [Fraction(1), Fraction(1), Fraction(0)]
    assert _pad_budget([Fraction(1)], 1) == [Fraction(1)]
    with pytest.raises(ValueError):
        _pad_budget([Fraction(3, 2)], 1)
    with pytest.raises(ValueError):
        _pad_budget([Fraction(1, 2)], 2)


# -- distributed greedy ----------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_greedy_fallback_matches_sequential(seed):
    sys_ = generate_random(18, 7, 3, density=0.3, seed=seed)
    cl = Cluster(sys_.m, sys_.n)
    picks, cov = greedy_fallback(sys_, cl)
    ref = greedy_sequential(sys_)
    assert picks == ref.selection
    assert cov == ref.value
    assert cl.rounds == sys_.k * (ceil_log2(sys_.m) + 2)
    cl.check_log_consistent()


# -- pipeline paths --------------------------------------------------------


def test_path_empty():
    sys_ = SetSystem(2, 2, 1, ((), ()))
    rep = run_pipeline(sys_, PipelineConfig(eps=Fraction(1, 4)))
    assert rep.config["path"] == "empty"
    assert rep.selection == ()
    assert rep.coverage == 0
    assert rep.l_star == 0
    assert rep.rounds == 1  # the single cover cast


def test_path_all_sets():
    sys_ = SetSystem(3, 2, 2, ((1,), (3,)))
    rep = run_pipeline(sys_, PipelineConfig(eps=Fraction(1, 4)))
    assert rep.config["path"] == "all_sets"
    assert rep.selection == (1, 2)
    assert rep.coverage == 2
    assert rep.l_star == 2  # covered elements, not n


def test_path_greedy_small_instance():
    sys_ = generate_random(30, 8, 3, density=0.25, seed=4)
    rep = run_pipeline(sys_, PipelineConfig(eps=Fraction(1, 10), seed=5))
    assert rep.config["path"] == "greedy"
    assert rep.coverage == greedy_sequential(sys_).value
    assert rep.l_star == rep.coverage
    assert rep.subsampled_n is None
    assert len(rep.selection) == sys_.k


def test_greedy_gate_threshold():
    # n' = 40 at eps=1/4 sits exactly on the gate; 41 crosses it
    assert 1 / Fraction(1, 4) >= Fraction(40, 10)
    assert not 1 / Fraction(1, 4) >= Fraction(41, 10)


def test_path_lp_end_to_end_tiles():
    """Full LP route on 17 disjoint tiles (n=52): multiplicative weights,
    rounding to k' = 3 > k sets, prefix marginals and a real trim.  The
    run takes a noticeable fraction of a minute; everything below is a
    frozen output of this deterministic configuration."""
    sys_ = tile_system(17, 2)
    assert sys_.n == 52
    rep = run_pipeline(sys_, PipelineConfig(eps=Fraction(1, 4), seed=7))
    assert rep.config["path"] == "lp"
    assert rep.selection == (1, 2)
    assert rep.coverage == 7 == exact_opt(sys_).value
    assert rep.l_star == 7
    assert rep.subsampled_n is None
    assert rep.rounds == 158558
    assert rep.peak_bits == 9984
    labels = {e.primitive.split("[")[0] for e in rep.log}
    assert "prefix.pair_up" in labels and "trim.selection_broadcast" in labels
    assert rep.rounds <= pipeline_mod.round_audit_bound(sys_.n, sys_.m, Fraction(1, 4), True)
    assert sum(e.rounds for e in rep.log) == rep.rounds
    # the whole round log is frozen, entry by entry
    assert len(rep.log) == 66
    assert hashlib.sha256(log_to_jsonl(rep.log).encode()).hexdigest() == (
        "e05b08022a831c2348960eb9b3ce8eb49403c1f9033d51f6c49ecba11098e200"
    )


def test_path_lp_subsampled_end_to_end(monkeypatch):
    """The subsampled LP route: at the pinned SUBSAMPLE_FACTOR the rate
    saturates on every instance small enough for a test, so a tiny factor
    makes the tiles subsample; the run then goes through the LP, rounding,
    prefix marginals and the trim on the kept universe."""
    monkeypatch.setattr(pipeline_mod, "SUBSAMPLE_FACTOR", Fraction(1, 8192))
    sys_ = tile_system(17, 2)
    eps = Fraction(1, 4)
    rep = run_pipeline(sys_, PipelineConfig(eps=eps, seed=7))
    assert rep.config["path"] == "lp"
    assert rep.subsampled_n is not None and rep.subsampled_n < sys_.n
    assert "subsample.keep_broadcast" in {e.primitive for e in rep.log}
    assert rep.coverage == coverage(sys_, rep.selection)
    assert len(rep.selection) <= sys_.k
    assert rep.coverage >= (1 - 1 / math.e - eps) * exact_opt(sys_).value


def test_lp_rejection_falls_back_to_greedy(monkeypatch):
    from mpcover.lp import Pi1Result

    sys_ = tile_system(17, 2)
    monkeypatch.setattr(
        pipeline_mod,
        "solve_pi1",
        lambda *a, **kw: Pi1Result(0, None, (), (1,)),
    )
    rep = run_pipeline(sys_, PipelineConfig(eps=Fraction(1, 4), seed=7))
    assert rep.config["path"] == "greedy"
    assert rep.coverage == greedy_sequential(sys_).value


def test_audit_error_on_tiny_bound(monkeypatch):
    monkeypatch.setattr(pipeline_mod, "ROUND_AUDIT_SUB", 0)
    sys_ = generate_random(30, 8, 3, density=0.25, seed=4)
    with pytest.raises(AuditError, match=r"^\d+ rounds exceed the audit bound 0$"):
        run_pipeline(sys_, PipelineConfig(eps=Fraction(1, 10)))


def test_report_json_shape():
    sys_ = generate_random(25, 6, 2, density=0.3, seed=2)
    rep = run_pipeline(sys_, PipelineConfig(eps=Fraction(1, 8), seed=3, mem_c=32, mem_e=2))
    out = rep.to_json()
    assert set(out) == {
        "selection",
        "coverage",
        "rounds",
        "peak_bits",
        "L_star",
        "subsampled_n",
        "seed",
        "config",
    }
    assert out["config"] == {
        "epsilon": "1/8",
        "seed": 3,
        "subsample": True,
        "eta": None,
        "mem_c": 32,
        "mem_e": 2,
        "path": "greedy",
    }
    assert out["seed"] == 3


def test_solve_max_coverage_requires_eps():
    sys_ = SetSystem(2, 2, 1, ((1,), (2,)))
    with pytest.raises(ValueError, match="eps"):
        solve_max_coverage(sys_, PipelineConfig(eta=Fraction(1, 5)))


# -- bounded-frequency mode ------------------------------------------------


def test_bounded_frequency_reduces_to_largest_sets():
    # 8 disjoint sets, sizes 3,3,2,2,2,1,1,1; k=1, eta=1/4, f_max=1
    # keeps ceil(k*f/eta) = 4 sets: the two 3s and (tie at 2) sets 3 and 4
    sizes = (3, 3, 2, 2, 2, 1, 1, 1)
    sets = []
    e = 1
    for sz in sizes:
        sets.append(tuple(range(e, e + sz)))
        e += sz
    sys_ = SetSystem(e - 1, 8, 1, tuple(sets))
    cfg = PipelineConfig(eta=Fraction(1, 4), seed=0)
    rep = run_pipeline(sys_, cfg)
    assert rep.config["eta"] == "1/4"
    assert rep.config["epsilon"] == "1/16"  # eta**2 / f_max
    assert rep.coverage == 3
    assert rep.selection in ((1,), (2,))
    labels = [e_.primitive for e_ in rep.log]
    assert labels[:3] == ["bfreq.freq_cast", "bfreq.size_gather", "bfreq.keep_broadcast"]
    assert sum(e_.rounds for e_ in rep.log) == rep.rounds


def test_bounded_frequency_selection_maps_back():
    # the largest sets sit at high indices; inner index 1 must map back up
    sets = ((1,), (2,), (3,), (4, 5, 6), (7, 8, 9, 10))
    sys_ = SetSystem(10, 5, 1, sets)
    rep = run_pipeline(sys_, PipelineConfig(eta=Fraction(1, 4), seed=1))
    assert rep.selection == (5,)
    assert rep.coverage == 4


def test_bounded_frequency_no_reduction_when_budget_covers_all():
    sys_ = SetSystem(4, 2, 1, ((1, 2), (3, 4)))
    rep = run_pipeline(sys_, PipelineConfig(eta=Fraction(1, 4), seed=0))
    labels = [e_.primitive for e_ in rep.log]
    assert "bfreq.size_gather" not in labels
    assert rep.coverage == 2


def test_bounded_frequency_audits_pre_and_inner_rounds(monkeypatch):
    # no reduction, so the pre-stage is the one-round frequency cast
    sys_ = SetSystem(4, 2, 1, ((1, 2), (3, 4)))
    cfg = PipelineConfig(eta=Fraction(1, 4), seed=0)
    total = run_pipeline(sys_, cfg).rounds
    # a bound the inner run meets on its own but pre + inner does not
    monkeypatch.setattr(pipeline_mod, "round_audit_bound", lambda n, m, eps, sub: total - 1)
    with pytest.raises(AuditError, match=f"{total} rounds"):
        run_pipeline(sys_, cfg)


def test_bounded_frequency_audits_the_stages_at_the_reduced_shape(monkeypatch):
    # 8 disjoint sets at k=1, eta=1/4: the stages run on the 4 kept sets
    sets = ((1, 2, 3), (4, 5, 6), (7, 8), (9, 10), (11, 12), (13,), (14,), (15,))
    sys_ = SetSystem(15, 8, 1, sets)
    cfg = PipelineConfig(eta=Fraction(1, 4), seed=0)
    rep = run_pipeline(sys_, cfg)
    inner = rep.rounds - sum(e.rounds for e in rep.log if e.primitive.startswith("bfreq."))
    real_bound = pipeline_mod.round_audit_bound
    # only the stages, audited at m = 4, exceed the bound; the whole run meets its own
    monkeypatch.setattr(
        pipeline_mod,
        "round_audit_bound",
        lambda n, m, eps, sub: inner - 1 if m == 4 else real_bound(n, m, eps, sub),
    )
    with pytest.raises(AuditError, match=f"^{inner} rounds exceed the audit bound {inner - 1}$"):
        run_pipeline(sys_, cfg)


def test_bounded_frequency_eta_validation():
    sys_ = SetSystem(2, 2, 1, ((1,), (2,)))
    from mpcover import bounded_frequency_solve

    with pytest.raises(ValueError, match="eta"):
        bounded_frequency_solve(sys_, PipelineConfig(eps=Fraction(1, 4)))


# -- determinism -----------------------------------------------------------


def test_pipeline_rerun_identical():
    sys_ = generate_random(40, 10, 3, density=0.2, seed=11)
    cfg = PipelineConfig(eps=Fraction(1, 10), seed=21)
    a = run_pipeline(sys_, cfg)
    b = run_pipeline(sys_, cfg)
    assert a.to_json() == b.to_json()
    assert a.log == b.log
