"""Runtime invariants raise named exceptions that survive `python -O`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mpcover

SRC = Path(mpcover.__file__).resolve().parent


def test_no_bare_asserts_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


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
