"""Command line front end.

Four subcommands: generate writes a random instance, run executes the
pipeline and prints the RunReport as one line of JSON, compare tabulates
pipeline vs greedy vs exact optimum, audit replays a RoundLog against the
theoretical round bound.

Exit codes: 0 success, 2 validation problem (bad flags, malformed input),
3 harness budget violation, 4 audit bound violation, 5 failed soundness
check (an internal invariant broke).  Output is byte
identical for identical (input, flags, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys as _sys
from fractions import Fraction
from pathlib import Path

from .baselines import EXACT_OPT_LIMIT, exact_opt
from .cluster import BudgetError, Cluster, log_to_jsonl
from .instance import InstanceError, SetSystem, dump_instance, generate_random, load_instance
from .lp import OracleSoundnessError
from .pipeline import (
    AuditError,
    PipelineConfig,
    greedy_fallback,
    round_audit_bound,
    run_pipeline,
)

_DECIMAL = re.compile(r"^\d+(\.\d+)?$")


def _rational(text: str) -> Fraction:
    """Decimal string to exact fraction; no scientific notation."""
    if not _DECIMAL.match(text):
        raise argparse.ArgumentTypeError(f"not a plain decimal: {text!r}")
    return Fraction(text)


def _bool_flag(text: str) -> bool:
    low = text.lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected on/off, got {text!r}")


def _set_size(text: str):
    if ":" in text:
        lo, _, hi = text.partition(":")
        return int(lo), int(hi)
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mpcover")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--density", type=_rational, default=None)
    gen.add_argument("--set-size", type=_set_size, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", type=Path, default=None)

    def common(p, eps_required=False):
        p.add_argument("--input", type=Path, required=True)
        p.add_argument("--output", type=Path, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epsilon", type=_rational, default=None, required=eps_required)
        p.add_argument("--k", type=int, default=None, help="override the instance k")
        p.add_argument("--subsample", type=_bool_flag, default=True)
        p.add_argument("--eta", type=_rational, default=None)
        p.add_argument("--mem-c", type=int, default=None)
        p.add_argument("--mem-e", type=int, default=None)
        p.add_argument("--json", action="store_true")

    run = sub.add_parser("run", help="solve one instance")
    common(run)
    cmp_ = sub.add_parser("compare", help="pipeline vs greedy vs optimum")
    common(cmp_)
    cmp_.add_argument("--no-opt", action="store_true")
    aud = sub.add_parser("audit", help="check a RoundLog against the round bound")
    aud.add_argument("--input", type=Path, required=True)
    return top


def _load(args) -> SetSystem:
    sys_ = load_instance(args.input.read_text())
    if args.k is not None:
        sys_ = SetSystem(n=sys_.n, m=sys_.m, k=args.k, sets=sys_.sets)
    return sys_


def _config(args) -> PipelineConfig:
    if args.eta is not None and args.epsilon is not None:
        raise InstanceError("--eta and --epsilon are mutually exclusive")
    if args.eta is None and args.epsilon is None:
        raise InstanceError("--epsilon (or --eta) is required")
    return PipelineConfig(
        eps=args.epsilon,
        eta=args.eta,
        seed=args.seed,
        subsample=args.subsample,
        mem_c=args.mem_c,
        mem_e=args.mem_e,
    )


def _roundlog_meta(sys_: SetSystem, args, config: dict | None = None) -> dict:
    """First JSONL line of a RoundLog; config (when the run finished) pins
    the derived epsilon and resolved memory constants so audits replay with
    the values the run actually used."""
    config = config or {}
    eps = config.get("epsilon")
    if eps is None and args.epsilon is not None:
        eps = str(args.epsilon)
    return {
        "n": sys_.n,
        "m": sys_.m,
        "k": sys_.k,
        "epsilon": eps,
        "eta": str(args.eta) if args.eta is not None else None,
        "subsample": args.subsample,
        "seed": args.seed,
        "mem_c": config.get("mem_c", args.mem_c),
        "mem_e": config.get("mem_e", args.mem_e),
    }


def _emit(obj) -> None:
    _sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def cmd_generate(args) -> int:
    density = float(args.density) if args.density is not None else None
    sys_ = generate_random(
        args.n, args.m, args.k, density=density, set_size=args.set_size, seed=args.seed
    )
    text = dump_instance(sys_)
    if args.output is None:
        _sys.stdout.write(text)
    else:
        args.output.write_text(text)
    return 0


def cmd_run(args) -> int:
    sys_ = _load(args)
    cfg = _config(args)
    try:
        report = run_pipeline(sys_, cfg)
    except BudgetError as err:
        cluster = getattr(err, "cluster", None)
        if args.json and cluster is not None:
            _write_roundlog(args, sys_, cluster.log, None)
        print(f"budget violation: {err}", file=_sys.stderr)
        return 3
    _emit(report.to_json())
    if args.json:
        _write_roundlog(args, sys_, report.log, report.config)
    return 0


def _write_roundlog(args, sys_: SetSystem, entries, config: dict | None) -> None:
    path = args.output or args.input.with_suffix(args.input.suffix + ".roundlog.jsonl")
    path.write_text(log_to_jsonl(entries, meta=_roundlog_meta(sys_, args, config)))


def cmd_compare(args) -> int:
    sys_ = _load(args)
    cfg = _config(args)
    try:
        report = run_pipeline(sys_, cfg)
        gcluster = Cluster(sys_.m, sys_.n, args.mem_c, args.mem_e)
        gsel, gcov = greedy_fallback(sys_, gcluster)
    except BudgetError as err:
        print(f"budget violation: {err}", file=_sys.stderr)
        return 3
    rows = [
        ("pipeline", report.coverage, report.rounds, report.peak_bits),
        ("greedy", gcov, gcluster.rounds, gcluster.peak_inbox_bits),
    ]
    opt_val = None
    if not args.no_opt:
        if math.comb(sys_.m, sys_.k) > EXACT_OPT_LIMIT:
            print("instance too large for exact optimum; pass --no-opt", file=_sys.stderr)
            return 2
        opt_val = exact_opt(sys_).value
        rows.append(("opt", opt_val, 0, 0))

    def ratio(cov: int) -> str:
        if opt_val in (None, 0):
            return ""
        return f"{cov / opt_val:.6f}"

    if args.json:
        _emit(
            [
                {
                    "algo": algo,
                    "coverage": cov,
                    "ratio": ratio(cov) or None,
                    "rounds": rounds,
                    "peak_bits": peak,
                    "seed": args.seed,
                }
                for algo, cov, rounds, peak in rows
            ]
        )
    else:
        out = ["algo,coverage,ratio,rounds,peak_bits,seed"]
        for algo, cov, rounds, peak in rows:
            out.append(f"{algo},{cov},{ratio(cov)},{rounds},{peak},{args.seed}")
        _sys.stdout.write("\n".join(out) + "\n")
    return 0


def _log_int(obj: dict, key: str, lineno: int, lo: int = 0) -> int:
    """obj[key] as an int >= lo, or a ValueError naming the file line."""
    val = obj.get(key)
    if type(val) is not int or val < lo:
        raise ValueError(f"line {lineno}: {key!r} must be an integer >= {lo}")
    return val


def cmd_audit(args) -> int:
    meta, total, peak = None, 0, 0
    for lineno, ln in enumerate(args.input.read_text().split("\n"), 1):
        if not ln.strip():
            continue
        try:
            row = json.loads(ln)
        except json.JSONDecodeError as err:
            raise ValueError(f"line {lineno}: {err.msg} (column {err.colno})") from None
        if not isinstance(row, dict) or not isinstance(row.get("meta", {}), dict):
            raise ValueError(f"line {lineno}: expected a JSON object")
        if "meta" in row:
            meta, meta_line = row["meta"], lineno
            n, m = (_log_int(meta, key, lineno, lo=1) for key in ("n", "m"))
            if not isinstance(meta.get("subsample", True), bool):
                raise ValueError(f"line {lineno}: 'subsample' must be true or false")
            continue
        total += _log_int(row, "rounds", lineno)
        peak = max(peak, _log_int(row, "peak_bits", lineno))
    if meta is None:
        print("RoundLog has no meta line", file=_sys.stderr)
        return 2
    if not meta.get("epsilon"):
        print("RoundLog meta has no epsilon", file=_sys.stderr)
        return 2
    eps = None
    if type(meta["epsilon"]) in (str, int, float):  # not a bool, which Fraction reads as 0 or 1
        try:
            eps = Fraction(meta["epsilon"])
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    if eps is None or not 0 < eps <= Fraction(1, 4):
        raise ValueError(
            f"line {meta_line}: epsilon {meta['epsilon']!r} is not a rational in (0, 1/4]"
        )
    bound = round_audit_bound(n, m, eps, meta.get("subsample", True))
    _emit({"rounds": total, "bound": bound, "peak_bits": peak})
    if total > bound:
        print(f"audit: {total} rounds exceed the bound {bound}", file=_sys.stderr)
        return 4
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "audit":
            return cmd_audit(args)
    except (InstanceError, ValueError, OSError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return 2
    except AuditError as err:
        print(f"audit failure: {err}", file=_sys.stderr)
        return 4
    except OracleSoundnessError as err:
        print(f"error: soundness check failed: {err}", file=_sys.stderr)
        return 5
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
