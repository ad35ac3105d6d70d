"""Checks on one operation's report, made apart from the program.

Every check recomputes its reference from the benchmark's own copy of the
instance (workloads.Instance) or from the round log the operation wrote,
never from the program's own answer.  check() returns the list of
problems; an empty list means the report passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import Op, audit_ceiling, memory_budget

RATIO = 1 - 1 / math.e


def log_totals(path: Path) -> tuple[int, int]:
    """(sum of rounds, largest peak) over the entries of a JSONL round log."""
    rounds = peak = 0
    for line in path.read_text().splitlines():
        row = json.loads(line)
        if "meta" not in row:
            rounds += row["rounds"]
            peak = max(peak, row["peak_bits"])
    return rounds, peak


def check(op: Op, report: dict, log_path: Path) -> list[str]:
    inst, exp = op.inst, op.expect
    sel = report["selection"]
    problems = []
    if not all(isinstance(j, int) and 1 <= j <= inst.m for j in sel) or len(set(sel)) != len(sel):
        return [f"invalid selection {sel}"]
    if len(sel) > inst.k:
        problems.append(f"selection of {len(sel)} sets exceeds k={inst.k}")
    cov = inst.union_size(sel)
    if report["coverage"] != cov:
        problems.append(f"reported coverage {report['coverage']}, selection covers {cov}")
    if exp.opt is not None and cov < (RATIO - float(op.eps)) * exp.opt:
        problems.append(f"coverage {cov} below (1-1/e-{op.eps}) * OPT {exp.opt}")
    if exp.picks is not None and tuple(sel) != exp.picks:
        problems.append(f"selection {tuple(sel)} differs from the sequential greedy {exp.picks}")
    rounds, peak = report["rounds"], report["peak_bits"]
    if exp.rounds is not None and rounds != exp.rounds:
        problems.append(f"{rounds} rounds, the greedy gate takes {exp.rounds}")
    log_rounds, log_peak = log_totals(log_path)
    if (rounds, peak) != (log_rounds, log_peak):
        problems.append(f"report ({rounds} rounds, {peak} bits) disagrees with its round log "
                        f"({log_rounds}, {log_peak})")
    ceiling = audit_ceiling(inst.m, exp.audit_eps)
    if rounds > ceiling:
        problems.append(f"{rounds} rounds exceed the audit ceiling {ceiling}")
    budget = memory_budget(inst.n)
    if peak > budget:
        problems.append(f"peak inbox {peak} bits exceeds the budget {budget}")
    if report["audit_exit"] != 0:
        problems.append(f"mpcover audit exited {report['audit_exit']}")
    return problems
