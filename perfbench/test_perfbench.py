"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench

They take about a minute: the small LP shapes still run thousands of
multiplicative-weights iterations.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_shape_runs_end_to_end(workload):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--small"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == len(workloads.build(workload, 3, small=True))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_layer():
    res = result_of(bench("--workload", "wide", "--seconds", "1", "--trace", "1", "--small"))
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(values) == list(tracing.PER_LAYER)
    assert res["correct"] and res["attempted"] == 4  # one plain and one traced round
    assert all(values[k] == 0 for k in values if k.startswith(("lp.", "fixmath.")))
    assert values["pipeline.greedy_fallback.self_s"] > 0
    assert values["cluster.convergecast_sum.cells"] > 0


def test_traced_lp_counts_guesses():
    res = result_of(bench("--workload", "lp-tiles", "--seconds", "1", "--trace", "1", "--small"))
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert values["lp.oracle_step.calls"] > values["lp.guesses"] > values["lp.guesses_rejected"] > 0
    assert values["lp.rejected_iters"] >= values["lp.guesses_rejected"]
    assert values["fixmath.exp2_frac.calls"] > 0 and values["rounding.repetitions"] > 0


def test_seed_changes_the_text_not_the_answers():
    for workload in workloads.WORKLOADS:
        a, b = workloads.build(workload, 1), workloads.build(workload, 2)
        for op_a, op_b in zip(a, b):
            assert op_a.text != op_b.text
            assert op_a.expect == op_b.expect
            if workload != "wide":
                assert op_a.inst == op_b.inst


def test_lp_tiles_shape():
    (op,) = workloads.build("lp-tiles", 1)
    assert (op.inst.n, op.inst.m, op.inst.k, op.eps) == (52, 17, 2, Fraction(1, 4))
    assert op.expect.opt == 4 + 3 * (op.inst.k - 1)


# -- checks reject tampered reports -------------------------------------------


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    """A real report of the small wide greedy solve, with its round log."""
    op = workloads.build("wide", 5, small=True)[0]
    out = tmp_path_factory.mktemp("op")
    runner = run.Runner([op], out, deadline=run.time.perf_counter() + 170)
    record = runner.op(op, trace=False)
    assert not record["failed"], record
    return op, record["report"], out / f"{op.label}.roundlog.jsonl"


def test_genuine_report_passes(genuine):
    op, report, log = genuine
    assert checks.check(op, report, log) == []


def test_selection_over_k_is_rejected(genuine):
    op, report, log = genuine
    extra = next(j for j in range(1, op.inst.m + 1) if j not in report["selection"])
    tampered = {**report, "selection": report["selection"] + [extra]}
    assert any("exceeds k" in p for p in checks.check(op, tampered, log))


def test_wrong_coverage_is_rejected(genuine):
    op, report, log = genuine
    tampered = {**report, "coverage": report["coverage"] - 1}
    assert any("reported coverage" in p for p in checks.check(op, tampered, log))


def test_round_count_off_by_one_is_rejected(genuine):
    op, report, log = genuine
    tampered = {**report, "rounds": report["rounds"] + 1}
    problems = checks.check(op, tampered, log)
    assert any("greedy gate takes" in p for p in problems)
    # without the greedy formula (the LP workloads) the round log still catches it
    lp_like = dataclasses.replace(op, expect=dataclasses.replace(op.expect, rounds=None))
    assert any("round log" in p for p in checks.check(lp_like, tampered, log))


def test_failed_audit_is_rejected(genuine):
    op, report, log = genuine
    assert any("audit" in p for p in checks.check(op, {**report, "audit_exit": 4}, log))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "wide", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
