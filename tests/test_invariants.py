"""Runtime invariants raise named exceptions that survive `python -O`."""

import ast
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import pytest

import mpcover
import mpcover.baselines as baselines_mod
import mpcover.pipeline as pipeline_mod
import mpcover.prefix as prefix_mod
import mpcover.rounding as rounding_mod
from mpcover import (
    AuditError,
    Cluster,
    OracleSoundnessError,
    PipelineConfig,
    SetSystem,
    dump_instance,
    run_pipeline,
)
from mpcover.baselines import greedy_sequential
from mpcover.cli import main
from mpcover.instance import coverage, frequency, union_size
from mpcover.lp import FractionalPair, LpContext, Pi1Result
from mpcover.pipeline import greedy_picks
from mpcover.prefix import prefix_coverage
from mpcover.rounding import best_of_repetitions
from test_pipeline import tile_system

SRC = Path(mpcover.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ARGUED = "argued in code"
INJECTED = "test_invariants.py::test_injected_fault_trips_its_check"
CHECKS = ("OracleSoundnessError", "AuditError")

# Every `raise OracleSoundnessError` and `raise AuditError` in the package,
# keyed by file, enclosing function and message ({} stands for a formatted
# value), with the test that makes it fire, or ARGUED when it cannot fire and
# a "# unreachable:" comment says why.  INJECTED[case] names a FAULTS case.
SOUNDNESS_RAISES = {
    ("lp.py", "_mwu", "truncated objective exceeds the exact one"):
        "test_lp.py::test_exact_check_rejects_tampered_values",
    ("lp.py", "_mwu", "truncation lost more than 1/n^5"):
        "test_lp.py::test_exact_check_rejects_truncation_loss",
    ("lp.py", "_mwu", "accepted point violates the weighted budget"):
        "test_lp.py::test_exact_check_rejects_tampered_values",
    ("lp.py", "_mwu", "weight above the 4n^2 potential cap"):
        "test_lp.py::test_weight_cap_fires_on_an_entry_changed_mid_run",
    ("lp.py", "_mwu", "per-iteration error outside [-2n, 2n]: {}..{}"):
        "test_lp.py::test_weight_accumulator_bounds",
    ("lp.py", "_mwu", "accumulator magnitude exceeded 2*n*t"):
        "test_lp.py::test_weight_accumulator_bounds",
    ("lp.py", "oracle_step", "weight sum above the 4n^2 potential cap"):
        "test_lp.py::test_weight_sum_cap_fires_mid_run",
    ("lp.py", "oracle_step", "set cost outgrew its message width"):
        "test_lp.py::test_set_cost_width_check_fires",
    ("lp.py", "_mwu", "accumulator outgrew its broadcast width"): ARGUED,
    ("lp.py", "solve_pi1", "guess 1 was rejected"):
        "test_lp.py::test_solve_pi1_nothing_feasible_shape",
    ("lp.py", "solve_pi1", "certified guess {} was rejected"):
        "test_lp.py::test_solve_pi1_checks_the_deferred_certified_lane",
    ("lp.py", "_check_pair", "averaged iterate left the region"):
        "test_lp.py::test_check_pair_rejects_a_tampered_pair",
    ("lp.py", "_check_pair", "constraint {} exceeds the 1 + 1.4*eps slack"):
        "test_lp.py::test_check_pair_rejects_a_tampered_pair",
    ("lp.py", "scale_to_pi0", "constraint excess beyond the solver contract"):
        "test_lp.py::test_scale_to_pi0_rejects_a_tampered_pair",
    ("lp.py", "scale_to_pi0", "rescaled x exceeds its fractional cover"): ARGUED,
    ("lp.py", "scale_to_pi0", "rescaled budget exceeds k + 2*eps*m"):
        "test_lp.py::test_scale_to_pi0_rejects_a_tampered_pair",
    ("lp.py", "scale_to_pi0", "rescaling lost more than the 4*eps factor"): ARGUED,
    ("baselines.py", "greedy_sequential", "greedy's running union disagrees with coverage()"):
        f"{INJECTED}[greedy_union]",
    ("pipeline.py", "_report", "selection of {} sets exceeds the budget k={}"):
        f"{INJECTED}[selection_over_k]",
    ("pipeline.py", "_report", "{} rounds exceed the audit bound {}"):
        "test_pipeline.py::test_audit_error_on_tiny_bound",
    ("pipeline.py", "_run_stages", "converge-cast frequencies disagree with frequency()"):
        f"{INJECTED}[freq_cast]",
    ("pipeline.py", "_run_stages", "greedy certificate holds {} sets, above k={}"):
        f"{INJECTED}[certificate_picks]",
    ("pipeline.py", "_run_stages", "greedy certificate's coverage disagrees with union_size()"):
        f"{INJECTED}[certificate_cover]",
    ("pipeline.py", "bounded_frequency_solve", "{} rounds exceed the audit bound {}"):
        "test_pipeline.py::test_bounded_frequency_audits_the_stages_at_the_reduced_shape",
    ("prefix.py", "prefix_coverage", "marginals do not sum to the selection's coverage"):
        f"{INJECTED}[marginals]",
    ("prefix.py", "trim_to_k", "trim bound {} exceeds actual coverage {}"):
        "test_invariants.py::test_trim_bound_check_survives_optimize_flag",
    ("rounding.py", "best_of_repetitions", "converge-cast coverage disagrees with union_size()"):
        f"{INJECTED}[rounding_cast]",
    ("rounding.py", "best_of_repetitions", "the repetition schedule drew no candidate"): ARGUED,
}


def test_no_bare_asserts_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_stages_do_not_import_the_parse_boundary():
    """Below the parse the stages take an Incidence and k: the LP, prefix
    and rounding modules import neither SetSystem nor the big-int masks."""
    for name in ("lp.py", "prefix.py", "rounding.py"):
        tree = ast.parse((SRC / name).read_text())
        imported = {
            name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            for name in (alias.name, alias.asname)
        }
        assert imported & {"SetSystem", "set_masks"} == set(), name


def test_the_tuple_view_stays_off_the_run_path():
    """SetSystem.sets builds Python tuples on each access: in the package
    only the baselines and the instance module may read it.  Rows are cut
    one way, Incidence.take_rows, so no module names a `rows` method."""
    readers, rows_named = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "sets":
                readers.add(path.name)
            called = isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "rows"
            if called or isinstance(node, ast.FunctionDef) and node.name == "rows":
                rows_named.append(f"{path.name}:{node.lineno}")
    assert readers <= {"baselines.py", "instance.py"}
    assert rows_named == []


def _message(node: ast.expr) -> str:
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)


def _soundness_raises(tree: ast.Module):
    """(enclosing function, message, line, error class) of each raise of a
    class in CHECKS."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            exc = getattr(child, "exc", None) if isinstance(child, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", "") in CHECKS:
                yield scope, _message(exc.args[0]), child.lineno, exc.func.id
            yield from walk(child, inner)

    yield from walk(tree, "")


def _test_functions(filename: str) -> dict[str, ast.FunctionDef]:
    tree = ast.parse((TESTS / filename).read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _template(message: str) -> re.Pattern:
    return re.compile(".+".join(map(re.escape, message.split("{}"))))


def test_every_soundness_raise_is_exercised_or_argued():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for scope, message, lineno, cls in _soundness_raises(ast.parse(path.read_text())):
            found[(path.name, scope, message)] = (lines, lineno, cls)
    assert sorted(found) == sorted(SOUNDNESS_RAISES)
    for key, (lines, lineno, cls) in found.items():
        where = SOUNDNESS_RAISES[key]
        if where == ARGUED:
            assert "# unreachable:" in "\n".join(lines[lineno - 5 : lineno - 1]), key
            continue
        if where.startswith(f"{INJECTED}["):
            fault = FAULTS[where[len(INJECTED) + 1 : -1]]
            assert fault.error.__name__ == cls, where
            assert _template(key[2]).fullmatch(fault.message), where
            continue
        filename, name = where.split("::")
        test = _test_functions(filename).get(name)
        assert test is not None, where
        assert cls in ast.unparse(test), where


# -- the data-plane checks, each tripped by one injected fault -----------------

CHAIN = SetSystem(4, 3, 2, ((1, 2), (2, 3), (3, 4)))
TILES = tile_system(17, 2)  # n = 52: the LP route at eps = 1/4


def _lp_skipped(ctx: LpContext, cluster, certified=0):
    """solve_pi1's stand-in: keep the first m - k sets whole, choose no element.

    It passes scale_to_pi0's checks, so the run goes on to rounding at once."""
    pair = FractionalPair((0,) * ctx.n, (1,) * (ctx.m - ctx.k) + (0,) * ctx.k, 1)
    return Pi1Result(1, pair, (1,), ())


def _overstated_picks(inc, k):
    """greedy_picks, with its coverage overstated by one."""
    picks, cover = greedy_picks(inc, k)
    return picks, cover + 1


def _one_pick_too_many(inc, k):
    """k + 1 sets with their true coverage, where greedy_picks gives k."""
    picks = tuple(range(1, k + 2))
    return picks, union_size(inc, picks)


@dataclass(frozen=True)
class Fault:
    """A minimal fault, injected by replacing module attributes, and the
    check it must trip: its error and exact message.  With an instance, the
    same fault under `mpcover run` must exit with exit_code."""

    error: type
    message: str
    patches: tuple[tuple[object, str, Callable], ...]
    call: Callable[[], object]
    instance: SetSystem | None = None
    exit_code: int | None = None


FAULTS = {
    "freq_cast": Fault(
        OracleSoundnessError,
        "converge-cast frequencies disagree with frequency()",
        ((pipeline_mod, "frequency", lambda inc: tuple(v + 1 for v in frequency(inc))),),
        lambda: run_pipeline(TILES, PipelineConfig(eps=Fraction(1, 4))),
        TILES,
        5,
    ),
    "certificate_cover": Fault(
        OracleSoundnessError,
        "greedy certificate's coverage disagrees with union_size()",
        ((pipeline_mod, "greedy_picks", _overstated_picks),),
        lambda: run_pipeline(TILES, PipelineConfig(eps=Fraction(1, 4))),
        TILES,
        5,
    ),
    "certificate_picks": Fault(
        OracleSoundnessError,
        "greedy certificate holds 3 sets, above k=2",
        ((pipeline_mod, "greedy_picks", _one_pick_too_many),),
        lambda: run_pipeline(TILES, PipelineConfig(eps=Fraction(1, 4))),
        TILES,
        5,
    ),
    "rounding_cast": Fault(
        OracleSoundnessError,
        "converge-cast coverage disagrees with union_size()",
        (
            (pipeline_mod, "solve_pi1", _lp_skipped),
            (rounding_mod, "union_size", lambda inc, sel: union_size(inc, sel) + 1),
        ),
        lambda: best_of_repetitions(
            CHAIN.incidence, (1, 1, 0), 2, Fraction(1, 4), 0, Cluster(3, 4)
        ),
        TILES,
        5,
    ),
    "greedy_union": Fault(
        OracleSoundnessError,
        "greedy's running union disagrees with coverage()",
        ((baselines_mod, "coverage", lambda s, sel: coverage(s, sel) - 1),),
        lambda: greedy_sequential(CHAIN),
    ),
    "selection_over_k": Fault(
        AuditError,
        "selection of 3 sets exceeds the budget k=2",
        ((pipeline_mod, "greedy_fallback", lambda inc, k, cluster: ((1, 2, 3), 4)),),
        lambda: run_pipeline(CHAIN, PipelineConfig(eps=Fraction(1, 4))),
        CHAIN,
        4,
    ),
    "marginals": Fault(
        OracleSoundnessError,
        "marginals do not sum to the selection's coverage",
        ((prefix_mod, "union_size", lambda inc, sel: union_size(inc, sel) + 1),),
        lambda: prefix_coverage(CHAIN.incidence, (1, 3), Cluster(3, 4)),
    ),
}


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_injected_fault_trips_its_check(case, monkeypatch, tmp_path, capsys):
    fault = FAULTS[case]
    for owner, name, value in fault.patches:
        monkeypatch.setattr(owner, name, value)
    with pytest.raises(fault.error) as err:
        fault.call()
    assert str(err.value) == fault.message
    if fault.instance is None:
        return
    path = tmp_path / "inst.txt"
    path.write_text(dump_instance(fault.instance))
    rc = main(["run", "--input", str(path), "--epsilon", "0.25"])
    out, stderr = capsys.readouterr()
    prefix = "audit failure" if fault.error is AuditError else "error: soundness check failed"
    assert (rc, out, stderr) == (fault.exit_code, "", f"{prefix}: {fault.message}\n")


def test_trim_bound_check_survives_optimize_flag():
    # inflated marginals promise more coverage than the trimmed selection has
    code = (
        "from mpcover import Cluster, OracleSoundnessError, SetSystem\n"
        "from mpcover.prefix import MarginalVector, trim_to_k\n"
        "assert False, 'assertions must be stripped'\n"
        "sys_ = SetSystem(4, 3, 1, ((1, 2), (2, 3), (3, 4)))\n"
        "try:\n"
        "    trim_to_k(sys_.incidence, MarginalVector((1, 2, 3), (2, 9, 2)), 1, Cluster(3, 4))\n"
        "except OracleSoundnessError as err:\n"
        "    print(type(err).__name__, err)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), *sys.path]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    # bound 13 - 2 - 2 for set 2 alone, which covers 2 elements
    assert out.stdout == "OracleSoundnessError trim bound 9 exceeds actual coverage 2\n"
