"""One cold process of the benchmark, started by run.py.

    worker.py setup SRC FILE...
        import mpcover from SRC and parse each instance file with
        load_instance; print {"setup_s": ...}.
    worker.py solve SRC --input FILE (--eps X | --eta X) --log FILE [--trace]
        parse the instance, time one run_pipeline call, write its round log
        as `mpcover run --json` does, run `mpcover audit` on that log, and
        print the report with the solve time and the peak resident set.

The set-up time is CPU time (user and system) of the whole set-up.  The
solve time is user CPU time: with the same number of page faults, the
kernel time of the large allocations on `wide` swings threefold from one
process to the next, for reasons outside the program.  Wall and system
times are reported too.

Each call is a fresh interpreter, so the fixmath tables and the set_masks
cache start empty, as they do for a user of the command line.
"""

import sys
import time
from pathlib import Path


def _import(src: str):
    sys.path.insert(0, src)
    import mpcover

    if not mpcover.__file__.startswith(src):
        raise SystemExit(f"imported mpcover from {mpcover.__file__}, not from {src}")
    return mpcover


def setup(src: str, files: list[str]) -> dict:
    t0, c0 = time.perf_counter(), time.process_time()
    mpcover = _import(src)
    for name in files:
        mpcover.load_instance(Path(name).read_text())
    return {"setup_s": time.process_time() - c0, "setup_wall_s": time.perf_counter() - t0}


def solve(src: str, argv: list[str]) -> dict:
    import argparse
    import contextlib
    import io
    import resource
    from fractions import Fraction

    parser = argparse.ArgumentParser(prog="worker.py solve")
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--eps", type=Fraction)
    parser.add_argument("--eta", type=Fraction)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--log", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    mpcover = _import(src)
    import mpcover.cli
    import mpcover.instance
    import mpcover.pipeline

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.on = True
    system = mpcover.instance.load_instance(args.input.read_text())
    cfg = mpcover.PipelineConfig(eps=args.eps, eta=args.eta, seed=args.seed)
    t0, r0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    report = mpcover.pipeline.run_pipeline(system, cfg)
    t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.on = False

    meta = {
        "n": system.n,
        "m": system.m,
        "k": system.k,
        "epsilon": report.config["epsilon"],
        "eta": report.config["eta"],
        "subsample": report.config["subsample"],
        "seed": args.seed,
        "mem_c": report.config["mem_c"],
        "mem_e": report.config["mem_e"],
    }
    args.log.write_text(mpcover.log_to_jsonl(report.log, meta=meta))
    with contextlib.redirect_stdout(io.StringIO()):
        audit_exit = mpcover.cli.main(["audit", "--input", str(args.log)])
    return {
        "selection": list(report.selection),
        "coverage": report.coverage,
        "rounds": report.rounds,
        "peak_bits": report.peak_bits,
        "path": report.config["path"],
        "epsilon": report.config["epsilon"],
        "audit_exit": audit_exit,
        "solve_s": r1.ru_utime - r0.ru_utime,
        "solve_sys_s": r1.ru_stime - r0.ru_stime,
        "solve_wall_s": t1 - t0,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.stats if tracer is not None else None,
    }


def main(argv: list[str]) -> int:
    import json

    mode, src, rest = argv[0], argv[1], argv[2:]
    out = setup(src, rest) if mode == "setup" else solve(src, rest)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
