"""Runtime invariants raise named exceptions that survive `python -O`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mpcover

SRC = Path(mpcover.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ARGUED = "argued in code"

# Every `raise OracleSoundnessError` in lp.py, keyed by enclosing function and
# message ({} stands for a formatted value), with the test that makes it fire
# or ARGUED when it cannot fire and a "# unreachable:" comment says why.
LP_SOUNDNESS_RAISES = {
    ("LpContext.weights", "weight sum above the 4n^2 potential cap"):
        "test_lp.py::test_weights_cap_is_enforced",
    ("LpContext.rederive", "weight above the 4n^2 potential cap"):
        "test_lp.py::test_weight_cap_fires_on_an_entry_changed_mid_run",
    ("LpContext.exact_check", "truncated objective exceeds the exact one"):
        "test_lp.py::test_exact_check_rejects_tampered_values",
    ("LpContext.exact_check", "truncation lost more than 1/n^5"):
        "test_lp.py::test_exact_check_rejects_truncation_loss",
    ("LpContext.exact_check", "accepted point violates the weighted budget"):
        "test_lp.py::test_exact_check_rejects_tampered_values",
    ("WeightAccumulator.update", "per-iteration error outside [-2n, 2n]: {}..{}"):
        "test_lp.py::test_weight_accumulator_bounds",
    ("WeightAccumulator.update", "accumulator magnitude exceeded 2*n*t"):
        "test_lp.py::test_weight_accumulator_bounds",
    ("oracle_step", "weight sum above the 4n^2 potential cap"):
        "test_lp.py::test_weight_sum_cap_fires_mid_run",
    ("oracle_step", "set cost outgrew its message width"):
        "test_lp.py::test_set_cost_width_check_fires",
    ("_mwu", "accumulator outgrew its broadcast width"): ARGUED,
    ("_check_pair", "averaged iterate left the region"):
        "test_lp.py::test_check_pair_rejects_a_tampered_pair",
    ("_check_pair", "constraint {} exceeds the 1 + 1.4*eps slack"):
        "test_lp.py::test_check_pair_rejects_a_tampered_pair",
    ("scale_to_pi0", "constraint excess beyond the solver contract"):
        "test_lp.py::test_scale_to_pi0_rejects_a_tampered_pair",
    ("scale_to_pi0", "rescaled x exceeds its fractional cover"): ARGUED,
    ("scale_to_pi0", "rescaled budget exceeds k + 2*eps*m"):
        "test_lp.py::test_scale_to_pi0_rejects_a_tampered_pair",
    ("scale_to_pi0", "rescaling lost more than the 4*eps factor"): ARGUED,
}


def test_no_bare_asserts_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _message(node: ast.expr) -> str:
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)


def _soundness_raises(tree: ast.Module):
    """(enclosing function, message, line) of each raise OracleSoundnessError."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            exc = getattr(child, "exc", None) if isinstance(child, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", "") == "OracleSoundnessError":
                yield scope, _message(exc.args[0]), child.lineno
            yield from walk(child, inner)

    yield from walk(tree, "")


def _test_functions(filename: str) -> dict[str, ast.FunctionDef]:
    tree = ast.parse((TESTS / filename).read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_lp_soundness_raise_is_exercised_or_argued():
    src = (SRC / "lp.py").read_text()
    lines = src.splitlines()
    found = {}
    for scope, message, lineno in _soundness_raises(ast.parse(src)):
        found[(scope, message)] = lineno
    assert sorted(found) == sorted(LP_SOUNDNESS_RAISES)
    for key, lineno in found.items():
        where = LP_SOUNDNESS_RAISES[key]
        if where == ARGUED:
            assert "# unreachable:" in "\n".join(lines[lineno - 5 : lineno - 1]), key
            continue
        filename, name = where.split("::")
        test = _test_functions(filename).get(name)
        assert test is not None, where
        assert "OracleSoundnessError" in ast.unparse(test), where


def test_trim_bound_check_survives_optimize_flag():
    # inflated marginals promise more coverage than the trimmed selection has
    code = (
        "from mpcover import Cluster, OracleSoundnessError, SetSystem\n"
        "from mpcover.prefix import MarginalVector, trim_to_k\n"
        "assert False, 'assertions must be stripped'\n"
        "sys_ = SetSystem(4, 3, 1, ((1, 2), (2, 3), (3, 4)))\n"
        "try:\n"
        "    trim_to_k(sys_, MarginalVector((1, 2, 3), (2, 9, 2)), 1, Cluster(3, 4))\n"
        "except OracleSoundnessError as err:\n"
        "    print(type(err).__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), *sys.path]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "OracleSoundnessError\n"
