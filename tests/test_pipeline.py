"""End-to-end pipeline: paths, subsampling, budgets, the audit bound."""

import hashlib
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

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
from mpcover.baselines import exact_opt, greedy_sequential, set_masks
from mpcover.cluster import ceil_log2
from mpcover.instance import frequency
import mpcover.pipeline as pipeline_mod
from mpcover.pipeline import greedy_fallback, greedy_picks, subsample_universe
from test_cluster import ReplayCluster
from test_instance import normalize_covered, restrict_then_normalize, systems


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
    inc = SetSystem(4, 3, 2, ((1, 2), (2, 3), (3, 4))).incidence
    reduced, kept, rate = subsample_universe(inc, 2, Fraction(1, 4), seed=0)
    assert reduced is inc
    assert kept == (1, 2, 3, 4)
    assert rate == 1.0


def test_subsample_dense_binomial_instance():
    sys_ = generate_random(10_000, 100, 50, density=0.95, seed=1)
    assert all(frequency(sys_.incidence))  # normalized, as the LP route's input is
    eps = Fraction(1, 5)
    reduced, kept, rate = subsample_universe(sys_.incidence, sys_.k, eps, seed=7)
    opt_lb = max(max(len(s) for s in sys_.sets), math.ceil(sys_.n * sys_.k / sys_.m))
    expect = 4 * (sys_.m * math.log(2) + math.log(sys_.n)) / (float(eps) ** 2 * opt_lb)
    assert rate == pytest.approx(expect)
    assert 0 < rate < 1
    assert reduced.shape[1] == len(kept) < sys_.n
    # a fair margin around the expected keep count n * rate
    assert abs(len(kept) - sys_.n * rate) < 4 * math.sqrt(sys_.n * rate)
    assert kept == tuple(sorted(set(kept)))
    # the column drop equals restricting every set to the kept ids, then normalizing
    ref, ref_kept = restrict_then_normalize(sys_, kept)
    assert ref_kept == kept
    assert reduced == ref.incidence
    again = subsample_universe(sys_.incidence, sys_.k, eps, seed=7)
    assert again[0] == reduced and again[1] == kept


def test_subsample_preserves_set_count_beyond_n():
    # heavy subsampling can leave fewer elements than sets; indices survive
    sys_ = generate_random(10_000, 100, 50, density=0.95, seed=1)
    reduced, _, _ = subsample_universe(sys_.incidence, sys_.k, Fraction(1, 5), seed=3)
    assert reduced.shape[0] == sys_.m


# -- distributed greedy ----------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_greedy_fallback_matches_sequential(seed):
    sys_ = generate_random(18, 7, 3, density=0.3, seed=seed)
    cl = Cluster(sys_.m, sys_.n)
    picks, cov = greedy_fallback(sys_.incidence, sys_.k, cl)
    ref = greedy_sequential(sys_)
    assert picks == ref.selection
    assert cov == ref.value
    assert cl.rounds == sys_.k * (ceil_log2(sys_.m) + 2)
    cl.check_log_consistent()


def greedy_bigint_scan(sys_: SetSystem, cluster: ReplayCluster) -> tuple[tuple[int, ...], int]:
    """The reference greedy_fallback: every pick recomputes all m gains from
    the big-int set masks, and every tree level delivers its (gain, index)
    pairs message by message; a chosen set's gain is -1."""
    n, m, k = sys_.n, sys_.m, sys_.k
    masks = set_masks(sys_)
    pair_bits = ceil_log2(n + 1) + ceil_log2(m + 1)
    covered = 0
    picks: list[int] = []
    for _ in range(k):
        best = [
            ((masks[j] & ~covered).bit_count() if (j + 1) not in picks else -1, -(j + 1))
            for j in range(m)
        ]
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
        cluster.broadcast(n, label="greedy.winner_mask")
        picks.append(winner)
        covered |= masks[winner - 1]
    return tuple(picks), covered.bit_count()


def assert_greedy_matches_the_bigint_scan(sys_: SetSystem) -> None:
    """greedy_fallback and its data plane greedy_picks both give the scan's
    picks and coverage, and greedy_fallback charges the scan's round log."""
    cl = Cluster(sys_.m, sys_.n)
    ref_cl = ReplayCluster(sys_.m, cl.budget_bits)
    ref = greedy_bigint_scan(sys_, ref_cl)
    assert greedy_fallback(sys_.incidence, sys_.k, cl) == ref
    assert greedy_picks(sys_.incidence, sys_.k) == ref
    assert cl.log == ref_cl.log


@pytest.mark.parametrize(
    "sys_",
    [
        # after set 1, sets 2 and 4 tie at gain 0 below set 3, then tie again
        SetSystem(4, 4, 4, ((1, 2), (1, 2), (3,), ())),
        # identical sets: every gain ties, then every open gain is 0
        SetSystem(3, 3, 3, ((1, 2, 3),) * 3),
        # no set holds an element: all gains are 0 from the start
        SetSystem(3, 3, 2, ((), (), ())),
        # ties at a positive gain go to the lower index
        SetSystem(6, 4, 3, ((1, 2), (3, 4), (5, 6), (2, 3))),
        # 33 singletons over 12 elements: ties at 1, then 0, up a six-level tree
        SetSystem(12, 33, 14, tuple((1 + j % 12,) for j in range(33))),
    ],
    ids=["zero-ties", "identical", "all-zero", "positive-ties", "deep-tree"],
)
def test_greedy_fallback_matches_the_bigint_scan_on_ties(sys_):
    assert_greedy_matches_the_bigint_scan(sys_)


@settings(max_examples=200, deadline=None)
@given(systems(max_n=12, max_m=8))
def test_greedy_fallback_matches_the_bigint_scan(sys_):
    """Pick for pick, with the same coverage and round log; small universes
    make tied and zero gains common."""
    assert_greedy_matches_the_bigint_scan(sys_)


@settings(max_examples=200, deadline=None)
@given(systems(max_n=12, max_m=8), st.integers(1, 3), st.integers(0, 3))
def test_greedy_on_the_relabelled_view_matches_the_normalized_system(sys_, spread, extra):
    """The greedy gate's view, the incidence with its empty columns dropped,
    gives the picks, coverage and round log of the rebuilt reduced system.
    Element e moves to spread*e, and extra uncovered elements follow n."""
    sparse = SetSystem(
        spread * sys_.n + extra,
        sys_.m,
        sys_.k,
        tuple(tuple(spread * e for e in s) for s in sys_.sets),
    )
    assume(any(sparse.sets))  # a run takes the empty path before its gate
    inc = sparse.incidence
    view = inc.keep_columns(inc.sum(axis=0))
    reduced = normalize_covered(sparse)[0].incidence
    assert view == reduced
    cl, ref_cl = Cluster(sparse.m, sparse.n), Cluster(sparse.m, sparse.n)
    assert greedy_fallback(view, sparse.k, cl) == greedy_fallback(reduced, sparse.k, ref_cl)
    assert cl.log == ref_cl.log


@settings(max_examples=100, deadline=None)
@given(systems(max_n=12, max_m=8), st.data())
def test_greedy_fallback_charges_only_the_shape(sys_, data):
    """Split off from its picks, greedy_fallback charges the same round log
    on any instance of the shape (n, m, k): k * (ceil(log2 m) + 2) rounds."""
    row = st.sets(st.integers(1, sys_.n)).map(lambda s: tuple(sorted(s)))
    rows = data.draw(st.lists(row, min_size=sys_.m, max_size=sys_.m), label="other")
    other = SetSystem(sys_.n, sys_.m, sys_.k, tuple(rows))
    cl, other_cl = Cluster(sys_.m, sys_.n), Cluster(sys_.m, sys_.n)
    greedy_fallback(sys_.incidence, sys_.k, cl)
    greedy_fallback(other.incidence, other.k, other_cl)
    assert cl.log == other_cl.log
    assert cl.rounds == sys_.k * (ceil_log2(sys_.m) + 2)


def greedy_route():
    # 30 random elements, then 6 that no set covers: n' <= 30 <= 10/eps
    base = generate_random(30, 8, 3, density=0.25, seed=4)
    return SetSystem(36, base.m, base.k, base.sets), PipelineConfig(eps=Fraction(1, 10), seed=5)


def lp_route():
    # 41 singletons: n' = 41 > 10/eps at eps = 1/4
    singles = SetSystem(41, 41, 1, tuple((e,) for e in range(1, 42)))
    return singles, PipelineConfig(eps=Fraction(1, 4))


def nine_tiles(k: int) -> SetSystem:
    """25 disjoint tiles of 9 elements (n = 225, m = 25, f_max = 1) at budget k."""
    return SetSystem(225, 25, k, tuple(tuple(range(9 * i + 1, 9 * i + 10)) for i in range(25)))


def eta_route():
    # at k = 1 and eta = 1/4 the set reduction keeps 4 tiles: n' = 36 <= 10/eps
    return nine_tiles(1), PipelineConfig(eta=Fraction(1, 4), seed=3)


def eta_lp_route():
    # at k = 5 it keeps 20 tiles: n' = 180 > 10/eps = 160 at the derived eps = 1/16
    return nine_tiles(5), PipelineConfig(eta=Fraction(1, 4))


ROUTES = {  # route: (instance and config, the path the report names)
    "greedy": (greedy_route, "greedy"),
    "lp": (lp_route, "lp"),
    "lp-subsampled": (lp_route, "lp"),
    "eta-row-cut": (eta_route, "greedy"),
    "eta-lp": (eta_lp_route, "lp"),
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_no_set_system_below_the_parse(route, monkeypatch):
    """Past the parse, a run passes an Incidence and k: with SetSystem's
    constructor refusing, every route still runs to its report."""
    build, path = ROUTES[route]
    sys_, cfg = build()
    if route == "lp-subsampled":
        # rate 4 * 2**-16 * (41 ln 2 + ln 41) * 32**2 / 1, about 1/2
        monkeypatch.setattr(pipeline_mod, "SUBSAMPLE_FACTOR", Fraction(1, 65536))

    def refuse(self, *args, **kwargs):
        raise RuntimeError("SetSystem built below the parse")

    monkeypatch.setattr(SetSystem, "__init__", refuse)
    with pytest.raises(RuntimeError, match="below the parse"):
        SetSystem(1, 1, 1, ((1,),))
    rep = run_pipeline(sys_, cfg)
    assert rep.config["path"] == path
    assert (rep.subsampled_n is not None) == (route == "lp-subsampled")
    if route.startswith("eta"):
        assert "bfreq.keep_broadcast" in {e.primitive for e in rep.log}
    monkeypatch.undo()
    assert rep.coverage == coverage(sys_, rep.selection)


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
    one lane that runs past its first oracle call, l_star = 7's, repeats
    with period 2 and skips to its end, so the run takes well under a
    second; everything below is a frozen output of this deterministic
    configuration."""
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


@pytest.mark.parametrize(
    "n, rounds, peak_bits, entries, cov, digest",
    [
        (96, 620701, 19530, 68, 60,
         "32c8c0ac2c51b270bf5e0c794ef931462af4d56ec79f451c6a3e7f7ae50c31cb"),
        (200, 887394, 53480, 70, 124,
         "804fabbf5c2c746f35e97c83b8798f77479536ffa8173a319d922bb0d9d0f0f9"),
    ],
    ids=["n96", "n200"],
)
def test_lp_scaling_rung_is_frozen(n, rounds, peak_bits, entries, cov, digest):
    """The LP scaling rungs, generate_random(n, 16, 4, density=0.15,
    seed=1) at eps = 1/4 and seed 7: most guesses fall at or below the
    greedy certificate and are charged without running, and the report and
    the whole round log are those of running every lane."""
    rep = run_pipeline(
        generate_random(n, 16, 4, density=0.15, seed=1), PipelineConfig(eps=Fraction(1, 4), seed=7)
    )
    assert rep.config["path"] == "lp"
    assert (rep.rounds, rep.peak_bits, len(rep.log), rep.coverage) == (
        rounds, peak_bits, entries, cov
    )
    assert hashlib.sha256(log_to_jsonl(rep.log).encode()).hexdigest() == digest


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


@st.composite
def tied_disjoint_systems(draw):
    """9 to 24 disjoint sets of 0 to 3 elements over 1..e-1, so sizes tie
    often; element e is never covered, and sets 1 and 2 may share element
    e+1, which makes f_max 2.  At k=1 and eta=1/4 at most 8 sets are kept."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=9, max_size=24))
    sets, e = [], 1
    for size in sizes:
        sets.append(tuple(range(e, e + size)))
        e += size
    if draw(st.booleans()):
        sets[0] += (e + 1,)
        sets[1] += (e + 1,)
    return SetSystem(e + 1, len(sets), 1, tuple(sets))


@settings(max_examples=100, deadline=None)
@given(tied_disjoint_systems())
def test_bounded_frequency_keeps_the_largest_sets_lower_index_first(sys_):
    """The kept sets are the first ceil(k*f/eta) under the key (-size, index)."""
    eta = Fraction(1, 4)
    keep_count = math.ceil(sys_.k * max(max(frequency(sys_.incidence)), 1) / eta)
    assert keep_count < sys_.m
    order = sorted(range(1, sys_.m + 1), key=lambda j: (-len(sys_.sets[j - 1]), j))
    # the kept sets as a SetSystem of their own: the reference for the row cut
    want = SetSystem(
        sys_.n, keep_count, sys_.k, tuple(sys_.sets[j - 1] for j in sorted(order[:keep_count]))
    )
    stages = []
    run_stages = pipeline_mod._run_stages
    with mock.patch.object(
        pipeline_mod, "_run_stages", lambda inc, *a: stages.append(inc) or run_stages(inc, *a)
    ):
        run_pipeline(sys_, PipelineConfig(eta=eta, seed=0))
    assert len(stages) == 1 and stages[0] == want.incidence


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
