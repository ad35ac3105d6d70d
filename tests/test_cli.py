"""Command line behaviour: flags, exit codes, JSON and CSV output."""

import hashlib
import json
from fractions import Fraction

import pytest

import mpcover.pipeline as pipeline_mod
from mpcover import OracleSoundnessError, SetSystem, dump_instance, generate_random, load_instance
from mpcover.baselines import exact_opt, greedy_sequential
from mpcover.cli import main
from test_pipeline import eta_lp_route, tile_system

SMALL = "4 3 2\n1 2\n2 3\n3 4\n"


@pytest.fixture
def small_path(tmp_path):
    p = tmp_path / "inst.txt"
    p.write_text(SMALL)
    return p


def run_main(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


# -- generate --------------------------------------------------------------


def test_generate_stdout_roundtrip(capsys):
    rc, out, err = run_main(
        ["generate", "--n", "12", "--m", "4", "--k", "2", "--density", "0.4", "--seed", "3"],
        capsys,
    )
    assert rc == 0 and err == ""
    sys_ = load_instance(out)
    assert (sys_.n, sys_.m, sys_.k) == (12, 4, 2)
    assert out == dump_instance(generate_random(12, 4, 2, density=0.4, seed=3))


def test_generate_to_file_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    argv = ["generate", "--n", "9", "--m", "3", "--k", "1", "--set-size", "2:4", "--seed", "5"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text() != ""


def test_generate_rejects_conflicting_modes(capsys):
    rc, _, err = run_main(
        ["generate", "--n", "9", "--m", "3", "--k", "1", "--density", "0.4", "--set-size", "2"],
        capsys,
    )
    assert rc == 2
    assert "error:" in err


def test_generate_rejects_bad_shape(capsys):
    rc, _, err = run_main(
        ["generate", "--n", "3", "--m", "5", "--k", "1", "--density", "0.4"], capsys
    )
    assert rc == 2 and "error:" in err


def test_generate_rejects_a_negative_seed(capsys):
    argv = ["generate", "--n", "9", "--m", "3", "--k", "1", "--density", "0.4", "--seed", "-1"]
    rc, out, err = run_main(argv, capsys)
    assert (rc, out) == (2, "")
    assert err == "error: --seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize(
    "shape, reason",
    [
        (["--n", "1000000000000000", "--density", "0.5"], "no memory for its draws"),
        (["--n", "10000000000000000000", "--set-size", "1"], "numpy's draws need n < 2**63"),
    ],
    ids=["past-memory", "past-int64"],
)
def test_generate_refuses_an_n_it_cannot_draw(capsys, shape, reason):
    """n = 10**15 at density 0.5 draws a 7.11 PiB float vector per set,
    which numpy refuses at once, so nothing is allocated; n = 10**19 is past
    int64.  Each exits 2 naming n, with nothing on stdout."""
    rc, out, err = run_main(["generate", *shape, "--m", "1", "--k", "1"], capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: n={shape[1]} is too large to generate: {reason}\n"


def test_rational_flag_rejects_scientific(small_path):
    with pytest.raises(SystemExit):
        main(["run", "--input", str(small_path), "--epsilon", "1e-2"])


# -- run -------------------------------------------------------------------


def test_run_reports_json_line(small_path, capsys):
    rc, out, err = run_main(
        ["run", "--input", str(small_path), "--epsilon", "0.25", "--seed", "6"], capsys
    )
    assert rc == 0 and err == ""
    rep = json.loads(out)
    assert rep["coverage"] == 4
    assert rep["config"]["path"] in ("greedy", "all_sets", "lp")
    assert rep["config"]["epsilon"] == "1/4"
    assert rep["seed"] == 6


def test_run_rerun_byte_identical(small_path, capsys):
    argv = ["run", "--input", str(small_path), "--epsilon", "0.25", "--seed", "9"]
    _, out1, _ = run_main(argv, capsys)
    _, out2, _ = run_main(argv, capsys)
    assert out1 == out2


def test_run_k_override(small_path, capsys):
    rc, out, _ = run_main(
        ["run", "--input", str(small_path), "--epsilon", "0.25", "--k", "1"], capsys
    )
    assert rc == 0
    assert len(json.loads(out)["selection"]) == 1


def test_run_k_validates_the_instance_once(small_path, capsys, monkeypatch):
    checked = []
    init = SetSystem.__init__

    def counted(self, *args, **kwargs):
        checked.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SetSystem, "__init__", counted)
    argv = ["run", "--input", str(small_path), "--epsilon", "0.25", "--k", "1"]
    assert run_main(argv, capsys)[0] == 0
    assert [sys_.k for sys_ in checked] == [1]


@pytest.mark.parametrize("k", ["0", "4"])
def test_run_rejects_a_bad_k(small_path, capsys, k):
    argv = ["run", "--input", str(small_path), "--epsilon", "0.25", "--k", k]
    rc, out, err = run_main(argv, capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: need 1 <= k <= m, got k={k} m=3\n"


def test_run_requires_epsilon_or_eta(small_path, capsys):
    rc, _, err = run_main(["run", "--input", str(small_path)], capsys)
    assert rc == 2
    assert "--epsilon" in err


def test_run_rejects_both_epsilon_and_eta(small_path, capsys):
    rc, _, err = run_main(
        ["run", "--input", str(small_path), "--epsilon", "0.25", "--eta", "0.25"], capsys
    )
    assert rc == 2
    assert "mutually exclusive" in err


def test_run_missing_file_is_exit_2(tmp_path, capsys):
    rc, _, err = run_main(
        ["run", "--input", str(tmp_path / "nope.txt"), "--epsilon", "0.25"], capsys
    )
    assert rc == 2 and "error:" in err


def test_run_writes_roundlog(small_path, capsys):
    rc, out, _ = run_main(
        ["run", "--input", str(small_path), "--epsilon", "0.25", "--seed", "2", "--json"],
        capsys,
    )
    assert rc == 0
    rep = json.loads(out)
    log_path = small_path.with_suffix(".txt.roundlog.jsonl")
    lines = log_path.read_text().splitlines()
    meta = json.loads(lines[0])["meta"]
    assert meta["epsilon"] == "1/4" and meta["eta"] is None
    assert meta["n"] == 4 and meta["m"] == 3 and meta["seed"] == 2
    rows = [json.loads(ln) for ln in lines[1:]]
    assert sum(r["rounds"] for r in rows) == rep["rounds"]
    assert max(r["peak_bits"] for r in rows) == rep["peak_bits"]


def test_run_roundlog_honours_output_flag(small_path, tmp_path, capsys):
    target = tmp_path / "log.jsonl"
    rc, _, _ = run_main(
        [
            "run",
            "--input",
            str(small_path),
            "--epsilon",
            "0.25",
            "--json",
            "--output",
            str(target),
        ],
        capsys,
    )
    assert rc == 0
    assert target.exists()


def test_run_eta_mode_meta_records_derived_epsilon(tmp_path, capsys):
    # disjoint sets: f_max = 1, so the inner accuracy is eta^2 = 1/16
    sets = ((1,), (2,), (3,), (4, 5, 6), (7, 8, 9, 10))
    inst = tmp_path / "disj.txt"
    inst.write_text("10 5 1\n" + "\n".join(" ".join(map(str, s)) for s in sets) + "\n")
    rc, out, _ = run_main(
        ["run", "--input", str(inst), "--eta", "0.25", "--json"], capsys
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["config"]["eta"] == "1/4"
    meta = json.loads(inst.with_suffix(".txt.roundlog.jsonl").read_text().splitlines()[0])["meta"]
    assert meta["epsilon"] == "1/16"
    assert meta["eta"] == "1/4"


def test_run_eta_mode_audits_the_whole_run(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "two.txt"
    inst.write_text("4 2 1\n1 2\n3 4\n")
    argv = ["run", "--input", str(inst), "--eta", "0.25"]
    rc, out, _ = run_main(argv, capsys)
    assert rc == 0
    total = json.loads(out)["rounds"]
    # only the pre-stage's rounds push the run over this bound
    monkeypatch.setattr(pipeline_mod, "round_audit_bound", lambda n, m, eps, sub: total - 1)
    rc, out, err = run_main(argv, capsys)
    assert rc == 4
    assert out == ""
    assert f"{total} rounds exceed" in err


def test_run_budget_violation_exit_3(tmp_path, capsys):
    inst = tmp_path / "wide.txt"
    inst.write_text(dump_instance(generate_random(60, 15, 4, density=0.3, seed=9)))
    rc, out, err = run_main(
        [
            "run",
            "--input",
            str(inst),
            "--epsilon",
            "0.125",
            "--mem-c",
            "1",
            "--mem-e",
            "0",
            "--json",
        ],
        capsys,
    )
    assert rc == 3
    assert out == ""
    assert "budget violation" in err
    # the partial RoundLog still lands, meta first
    lines = inst.with_suffix(".txt.roundlog.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["meta"]["epsilon"] == "1/8"


def test_run_budget_violation_in_a_lane_names_the_run_round(tmp_path, capsys):
    # the first oracle cost gather (16 * 81 bits) overflows the 520-bit
    # budget inside a solve_pi1 lane, after 12 rounds of normalize and
    # frequency (two 5-round converge-casts and two broadcasts)
    inst = tmp_path / "tiles.txt"
    inst.write_text(dump_instance(tile_system(17, 2)))  # n = 52: the LP route at eps = 1/4
    rc, out, err = run_main(
        [
            "run",
            "--input",
            str(inst),
            "--json",
            "--epsilon",
            "0.25",
            "--mem-c",
            "10",
            "--mem-e",
            "0",
        ],
        capsys,
    )
    assert rc == 3 and out == ""
    assert "oracle.cost_gather" in err and "round 13," in err
    lines = inst.with_suffix(".txt.roundlog.jsonl").read_text().splitlines()
    rows = [json.loads(ln) for ln in lines[1:]]
    assert [r["primitive"] for r in rows] == [
        "normalize.cover_cast",
        "normalize.keep_broadcast",
        "freq.cast",
        "freq.broadcast",
    ]
    assert sum(r["rounds"] for r in rows) == 12


def test_run_budget_violation_in_eta_mode_names_the_run_round(tmp_path, capsys):
    # 25 disjoint tiles of 9 (n = 225, m = 25, k = 5): the set reduction keeps
    # 20 sets in 7 rounds, the stages' normalize and frequency take 12 more, and
    # the first accumulator broadcast of the LP overflows the 2250-bit budget
    inst = tmp_path / "tiles.txt"
    inst.write_text(dump_instance(eta_lp_route()[0]))
    argv = ["run", "--input", str(inst), "--eta", "0.25", "--mem-c", "10", "--mem-e", "0"]
    rc, out, err = run_main([*argv, "--json"], capsys)
    assert rc == 3 and out == ""
    assert "'mwu.acc_broadcast'" in err and "round 27," in err
    lines = inst.with_suffix(".txt.roundlog.jsonl").read_text().splitlines()
    assert [json.loads(ln)["primitive"] for ln in lines[1:]] == [
        "bfreq.freq_cast",
        "bfreq.size_gather",
        "bfreq.keep_broadcast",
        "normalize.cover_cast",
        "normalize.keep_broadcast",
        "freq.cast",
        "freq.broadcast",
    ]
    # the meta line records the derived eps = eta^2 / f_max, so the partial log audits
    assert json.loads(lines[0])["meta"]["epsilon"] == "1/16"
    rc, out, err = run_main(["audit", "--input", str(inst) + ".roundlog.jsonl"], capsys)
    assert rc == 0, err


@pytest.mark.parametrize("seed", ["0", "1"])
def test_run_eta_mode_takes_the_lp_route_end_to_end(tmp_path, capsys, seed):
    """Bounded-frequency mode's LP route, reached with no seam: on 25 tiles
    of 9 at k = 5 and eta = 1/4 the run keeps 20 sets, derives eps = 1/16
    and solves the LP at n' = 180 > 10/eps.  It covers OPT (5 tiles), and
    its round log audits."""
    inst = tmp_path / "tiles.txt"
    inst.write_text(dump_instance(eta_lp_route()[0]))
    argv = ["run", "--input", str(inst), "--eta", "0.25", "--seed", seed, "--json"]
    rc, out, err = run_main(argv, capsys)
    assert (rc, err) == (0, "")
    rep = json.loads(out)
    assert (rep["config"]["path"], rep["config"]["epsilon"], rep["L_star"]) == ("lp", "1/16", 45)
    assert (rep["coverage"], rep["selection"]) == (45, [1, 2, 4, 18, 19])
    assert (rep["rounds"], rep["peak_bits"]) == (9634913, 138240)
    log_path = inst.with_suffix(".txt.roundlog.jsonl")
    entries = [json.loads(ln) for ln in log_path.read_text().splitlines()[1:]]
    assert len(entries) == 87
    assert sum(e["primitive"].startswith("pi1.batch[") for e in entries) == 22
    rc, out, err = run_main(["audit", "--input", str(log_path)], capsys)
    assert (rc, err) == (0, "")
    audit = json.loads(out)
    assert (audit["rounds"], audit["bound"]) == (9634913, 754974720)


def test_run_budget_violation_in_a_rounding_batch_names_the_run_round(tmp_path, capsys):
    # the tiles again (n = 52, m = 17), with a 9360-bit budget the LP fits in:
    # the first batch of 32 rounding candidates is one converge-cast of width
    # 32 * 52 at 1 + ceil(log2 17) = 6 bits an entry, 9984 bits in one inbox
    inst = tmp_path / "tiles.txt"
    inst.write_text(dump_instance(tile_system(17, 2)))
    argv = ["run", "--input", str(inst), "--json", "--epsilon", "0.25"]
    rc, out, err = run_main([*argv, "--mem-c", "5", "--mem-e", "2"], capsys)
    assert rc == 3 and out == ""
    assert err == (
        "budget violation: 'round.batch[0]' puts 9984 bits in one inbox in round 158410, "
        "budget is 9360\n"
    )
    lines = inst.with_suffix(".txt.roundlog.jsonl").read_text().splitlines()
    rows = [json.loads(ln) for ln in lines[1:]]
    assert len(rows) == 13 and rows[-1]["primitive"] == "round.candidate_broadcast"
    assert sum(r["rounds"] for r in rows) == 158409


def test_run_subsample_off_end_to_end(tmp_path, capsys):
    # the tiles' sampling rate saturates at 1, so a full-universe run takes the
    # same LP route and charges the same log; only the config says
    # subsample false, and the audit holds it to the full-universe bound
    inst = tmp_path / "tiles.txt"
    inst.write_text(dump_instance(tile_system(17, 2)))
    argv = ["run", "--input", str(inst), "--json", "--epsilon", "0.25"]
    reports, logs = {}, {}
    for flag in ("on", "off"):
        log_path = tmp_path / f"{flag}.jsonl"
        rc, out, err = run_main([*argv, "--subsample", flag, "--output", str(log_path)], capsys)
        assert (rc, err) == (0, "")
        reports[flag] = json.loads(out)
        logs[flag] = log_path.read_text().splitlines()
    assert reports["off"]["config"].pop("subsample") is False
    assert reports["on"]["config"].pop("subsample") is True
    assert reports["off"] == reports["on"]
    assert reports["off"]["config"]["path"] == "lp" and reports["off"]["rounds"] == 158558
    meta = json.loads(logs["off"][0])["meta"]
    assert meta["subsample"] is False
    entries = "\n".join(logs["off"][1:]) + "\n"
    assert hashlib.sha256(entries.encode()).hexdigest() == (
        "e05b08022a831c2348960eb9b3ce8eb49403c1f9033d51f6c49ecba11098e200"
    )
    rc, out, err = run_main(["audit", "--input", str(tmp_path / "off.jsonl")], capsys)
    assert (rc, err) == (0, "")
    # the full-universe bound: 65536 * (1/eps)**3 * ceil(log2 n) * ceil(log2 m)
    assert json.loads(out)["bound"] == 65536 * 64 * 6 * 5 == 125829120


@pytest.mark.parametrize("flag, value", [("--mem-c", "-3"), ("--mem-e", "-1")])
def test_run_rejects_negative_memory_constants(small_path, capsys, flag, value):
    rc, out, err = run_main(
        ["run", "--input", str(small_path), "--epsilon", "0.25", flag, value], capsys
    )
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and f"{value}" in err and err.count("\n") == 1


def test_run_soundness_failure_exit_5(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise OracleSoundnessError("truncation lost more than 1/n^5")

    monkeypatch.setattr(pipeline_mod, "solve_pi1", broken)
    inst = tmp_path / "tiles.txt"
    inst.write_text(dump_instance(tile_system(17, 2)))  # n = 52: the LP route at eps = 1/4
    rc, out, err = run_main(["run", "--input", str(inst), "--epsilon", "0.25"], capsys)
    assert rc == 5 and out == ""
    assert err.startswith("error:") and "1/n^5" in err
    assert err.count("\n") == 1


# -- compare ---------------------------------------------------------------


def test_compare_csv(small_path, capsys):
    rc, out, err = run_main(
        ["compare", "--input", str(small_path), "--epsilon", "0.25", "--seed", "4"], capsys
    )
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "algo,coverage,ratio,rounds,peak_bits,seed"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["pipeline", "greedy", "opt"]
    opt = exact_opt(load_instance(SMALL)).value
    assert int(rows[2][1]) == opt == 4
    assert rows[0][2] == f"{int(rows[0][1]) / opt:.6f}"
    assert int(rows[1][1]) == greedy_sequential(load_instance(SMALL)).value
    assert all(r[5] == "4" for r in rows)


def test_compare_json_no_opt(small_path, capsys):
    rc, out, _ = run_main(
        ["compare", "--input", str(small_path), "--epsilon", "0.25", "--no-opt", "--json"],
        capsys,
    )
    assert rc == 0
    rows = json.loads(out)
    assert [r["algo"] for r in rows] == ["pipeline", "greedy"]
    assert all(r["ratio"] is None for r in rows)


def test_compare_refuses_huge_exact_search(tmp_path, capsys):
    inst = tmp_path / "big.txt"
    inst.write_text(dump_instance(generate_random(40, 40, 20, density=0.5, seed=0)))
    rc, _, err = run_main(["compare", "--input", str(inst), "--epsilon", "0.25"], capsys)
    assert rc == 2
    assert "--no-opt" in err


@pytest.mark.parametrize(
    "argv",
    [["run", "--epsilon", "0.25"], ["run", "--eta", "0.25"], ["compare", "--epsilon", "0.25"]],
)
def test_run_and_compare_refuse_n_past_int64(tmp_path, capsys, argv):
    """n >= 2**63 is legal to load, but the stages index elements with
    int64: both entry points refuse it by name, and the CLI exits 2."""
    text = "99999999999999999999 2 1\n12345678901234567890 3 3\n\n"
    assert load_instance(text).sets == ((3, 12345678901234567890), ())
    path = tmp_path / "huge.txt"
    path.write_text(text)
    rc, out, err = run_main([*argv, "--input", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err == (
        "error: n=99999999999999999999 is too large to run: the stages need n < 2**63\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["run", "--epsilon", "0.25"], ["run", "--eta", "0.25"], ["compare", "--epsilon", "0.25"]],
)
def test_run_and_compare_refuse_an_n_past_memory(tmp_path, capsys, argv):
    """n = 10**15 is below 2**63, but an int64 vector of n entries is
    7.11 PiB: the run refuses it by name before any stage runs, and the CLI
    exits 2.  numpy refuses such an allocation at once, so nothing is
    allocated here."""
    path = tmp_path / "wide.txt"
    path.write_text("1000000000000000 1 1\n1\n")
    rc, out, err = run_main([*argv, "--input", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err == (
        "error: n=1000000000000000 is too large to run: "
        "an int64 vector of n entries cannot be allocated\n"
    )


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_run_and_compare_reject_a_seed_outside_64_bits(small_path, capsys, command, seed):
    argv = [command, "--input", str(small_path), "--epsilon", "0.25", "--seed", seed]
    rc, out, err = run_main(argv, capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: --seed must be in [0, 2**64), got {seed}\n"


# -- audit -----------------------------------------------------------------


def test_audit_round_trip(small_path, capsys):
    assert (
        main(["run", "--input", str(small_path), "--epsilon", "0.25", "--seed", "1", "--json"])
        == 0
    )
    rep = json.loads(capsys.readouterr().out)
    log_path = small_path.with_suffix(".txt.roundlog.jsonl")
    rc, out, err = run_main(["audit", "--input", str(log_path)], capsys)
    assert rc == 0 and err == ""
    audit = json.loads(out)
    assert audit["rounds"] == rep["rounds"]
    assert audit["peak_bits"] == rep["peak_bits"]
    assert audit["rounds"] <= audit["bound"]


def test_audit_requires_meta(tmp_path, capsys):
    p = tmp_path / "log.jsonl"
    p.write_text('{"primitive":"x","rounds":1,"peak_bits":2}\n')
    rc, _, err = run_main(["audit", "--input", str(p)], capsys)
    assert rc == 2
    assert "meta" in err


def test_audit_requires_epsilon_in_meta(tmp_path, capsys):
    p = tmp_path / "log.jsonl"
    meta = {"meta": {"n": 4, "m": 2, "k": 1, "epsilon": None, "subsample": True}}
    p.write_text(json.dumps(meta) + "\n" + '{"primitive":"x","rounds":1,"peak_bits":2}\n')
    rc, _, err = run_main(["audit", "--input", str(p)], capsys)
    assert rc == 2
    assert "epsilon" in err


def test_audit_flags_bound_violation(tmp_path, capsys):
    p = tmp_path / "log.jsonl"
    meta = {"meta": {"n": 8, "m": 3, "k": 1, "epsilon": "1/4", "subsample": True}}
    row = {"primitive": "x", "rounds": 10**15, "peak_bits": 2}
    p.write_text(json.dumps(meta) + "\n" + json.dumps(row) + "\n")
    rc, out, err = run_main(["audit", "--input", str(p)], capsys)
    assert rc == 4
    assert json.loads(out)["rounds"] == 10**15
    assert "exceed" in err


@pytest.mark.parametrize(
    "mem, budget",
    [({"mem_c": 8, "mem_e": 2}, 8 * 52 * 6**2), ({"mem_c": None, "mem_e": None}, 64 * 52 * 6**2)],
    ids=["meta-constants", "null-takes-the-defaults"],
)
def test_audit_flags_memory_violation(tmp_path, capsys, mem, budget):
    # n = 52, so ceil(log2(n + 2)) = 6 and the budget is mem_c * 52 * 6**mem_e
    p = tmp_path / "log.jsonl"
    meta = {"meta": {"n": 52, "m": 17, "k": 2, "epsilon": "1/4", "subsample": True, **mem}}
    at_budget = {"primitive": "a", "rounds": 1, "peak_bits": budget}
    p.write_text(f"{json.dumps(meta)}\n{json.dumps(at_budget)}\n")
    rc, out, err = run_main(["audit", "--input", str(p)], capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out)["budget_bits"] == budget
    over = {"primitive": "b", "rounds": 1, "peak_bits": 10**12}
    p.write_text(f"{json.dumps(meta)}\n{json.dumps(at_budget)}\n\n{json.dumps(over)}\n")
    rc, out, err = run_main(["audit", "--input", str(p)], capsys)
    assert rc == 3
    assert json.loads(out)["peak_bits"] == 10**12
    assert err == f"audit: line 4: {10**12} peak bits exceed the budget {budget}\n"


@pytest.mark.parametrize(
    "argv",
    [["--epsilon", "0.25"], ["--eta", "0.25"]],
    ids=["lp", "eta-row-cut"],
)
def test_audit_passes_the_logs_of_real_runs(tmp_path, capsys, argv):
    # 41 singletons: the LP route at eps = 1/4; at eta = 1/4 (f_max = 1, k = 1)
    # the set reduction keeps 4 sets, and the meta line keeps the original n
    inst = tmp_path / "singles.txt"
    inst.write_text("41 41 1\n" + "\n".join(map(str, range(1, 42))) + "\n")
    rc, out, _ = run_main(["run", "--input", str(inst), *argv, "--json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    log_path = inst.with_suffix(".txt.roundlog.jsonl")
    assert json.loads(log_path.read_text().splitlines()[0])["meta"]["n"] == 41
    rc, out, err = run_main(["audit", "--input", str(log_path)], capsys)
    assert (rc, err) == (0, "")
    audit = json.loads(out)
    assert audit["peak_bits"] == rep["peak_bits"] <= audit["budget_bits"]


GOOD_META = json.dumps({"meta": {"n": 8, "m": 3, "k": 1, "epsilon": "1/4", "subsample": True}})
GOOD_ROW = json.dumps({"primitive": "x", "rounds": 3, "peak_bits": 2})


@pytest.mark.parametrize(
    "text, line, reason",
    [
        (f'{GOOD_META}\n{{"primitive": "x", "rounds": 3}}\n', 2, "'peak_bits'"),
        (f'{{"meta": {{"m": 3, "epsilon": "1/4"}}}}\n{GOOD_ROW}\n', 1, "'n'"),
        (f"{GOOD_META}\n\n[1, 2]\n", 3, "expected a JSON object"),
        (f"{GOOD_META}\n{GOOD_ROW}\n\n\n{{\"rounds\": 1,\n", 5, "column"),
        (f'{GOOD_META}\n{{"primitive": "x", "rounds": "3", "peak_bits": 2}}\n', 2, "'rounds'"),
        ('{"meta": {"n": 8, "m": 3, "epsilon": "0"}}\n', 1, "epsilon"),
        (f'{{"meta": {{"n": 8, "m": 3, "epsilon": "1/0"}}}}\n{GOOD_ROW}\n', 1, "epsilon '1/0'"),
        (f'{{"meta": {{"n": 8, "m": 3, "epsilon": true}}}}\n{GOOD_ROW}\n', 1, "epsilon True"),
        (f'{GOOD_ROW}\n{{"meta": {{"n": 8, "m": 3, "epsilon": "1e400"}}}}\n', 2, "(0, 1/4]"),
        ('{"meta": [8, 3]}\n', 1, "expected a JSON object"),
        (
            f'{{"meta": {{"n": 8, "m": 3, "epsilon": "1/4", "mem_c": -1}}}}\n{GOOD_ROW}\n',
            1,
            "mem_c",
        ),
        (
            f'\n{{"meta": {{"n": 52, "m": 17, "epsilon": "1/4", "subsample": "false"}}}}\n'
            f"{GOOD_ROW}\n",
            2,
            "'subsample' must be true or false",
        ),
    ],
    ids=["no-peak-bits", "meta-without-n", "not-an-object", "bad-json", "string-rounds",
         "zero-epsilon", "zero-denominator-epsilon", "bool-epsilon", "huge-epsilon",
         "meta-not-an-object", "negative-mem-c", "string-subsample"],
)
def test_audit_malformed_log_names_its_line(tmp_path, capsys, text, line, reason):
    p = tmp_path / "log.jsonl"
    p.write_text(text)
    rc, out, err = run_main(["audit", "--input", str(p)], capsys)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: line {line}: ")
    assert reason in err and err.count("\n") == 1


# -- argparse surface ------------------------------------------------------


def test_unknown_flag_exits(small_path):
    with pytest.raises(SystemExit):
        main(["run", "--input", str(small_path), "--epsilon", "0.25", "--bogus"])


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])
