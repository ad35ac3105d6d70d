"""Benchmark of the mpcover simulator: time, memory and simulated cost.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see workloads.py and README.md) from the root of a
source checkout, against the package under src/.  Every operation runs in
a fresh process (worker.py), as `mpcover run` does, and every report is
checked apart from the program (checks.py) outside the timed span.

With --trace 0 the run times SETUP_PROBES cold set-ups, half before and
half after whole rounds of the workload's operations, run while another
round still fits in --seconds (at least one), and prints the end-to-end
metrics.  With --trace 1 it runs the same untraced rounds and then as many
rounds traced (tracing.py), and prints the per-layer metrics.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  Run results,
instance files and round logs go under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 8
# the solving processes run one thread each: nproc is small and BLAS threads
# would add noise
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# every run must end within this many seconds of its start
DEADLINE_S = 170.0


class Runner:
    """Starts the worker processes of one run and keeps their results."""

    def __init__(self, ops, out: Path, deadline: float):
        self.ops = ops
        self.out = out
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k not in ("MPC_MEM_C", "MPC_MEM_E")}
        self.env.update(dict.fromkeys(THREAD_VARS, "1"), PYTHONPATH=str(SRC))
        self.files = {}
        for op in ops:
            path = out / f"{op.label}.txt"
            path.write_text(op.text)
            self.files[op.label] = path
        self.records: list[dict] = []
        self.setup_probes: list[dict] = []

    def _worker(self, mode: str, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, str(SRC), *args],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(1.0, self.deadline - time.perf_counter()),
            cwd=ROOT,
        )

    def probe_setup(self, count: int) -> None:
        """Time `count` cold set-ups: import mpcover, parse every instance."""
        files = [str(self.files[op.label]) for op in self.ops]
        for _ in range(count):
            done = self._worker("setup", files)
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
            self.setup_probes.append(json.loads(done.stdout.splitlines()[-1]))

    def op(self, op, trace: bool) -> dict:
        """One operation and its checks; the record says if it failed."""
        log = self.out / f"{op.label}.roundlog.jsonl"
        args = ["--input", str(self.files[op.label]), *op.flags(),
                "--seed", str(workloads.PIPELINE_SEED), "--log", str(log)]
        if trace:
            args.append("--trace")
        record = {"op": op.label, "trace": trace, "failed": True, "problems": []}
        self.records.append(record)
        try:
            done = self._worker("solve", args)
        except subprocess.TimeoutExpired:
            record["error"] = "timed out at the run deadline"
            return record
        if done.returncode != 0:
            record["error"] = done.stderr.strip()[-2000:] or f"exit {done.returncode}"
            return record
        report = json.loads(done.stdout.splitlines()[-1])
        record["report"] = report
        record["problems"] = checks.check(op, report, log)
        record["failed"] = bool(record["problems"])
        return record

    def rounds(self, trace: bool, budget: float = 0.0, count: int | None = None) -> list[list[dict]]:
        """Whole rounds of the ops: `count` of them, or else as long as one
        more round, as long as the last, still fits in `budget` seconds."""
        done: list[list[dict]] = []
        start = time.perf_counter()
        while time.perf_counter() < self.deadline:
            t = time.perf_counter()
            done.append([self.op(op, trace) for op in self.ops])
            now = time.perf_counter()
            if count is not None and len(done) >= count:
                break
            if count is None and (now - start) + (now - t) > budget:
                break
        return done


def round_metrics(records: list[dict]) -> dict[str, float] | None:
    """End-to-end figures of one round, over its operations that passed."""
    reports = [r["report"] for r in records if not r["failed"]]
    if not reports:
        return None
    return {
        "solve_s": sum(r["solve_s"] for r in reports),
        "peak_rss_mb": max(r["rss_mb"] for r in reports),
        "sim_rounds": sum(r["rounds"] for r in reports),
        "sim_peak_bits": max(r["peak_bits"] for r in reports),
        "coverage": sum(r["coverage"] for r in reports),
    }


def round_trace(records: list[dict]) -> dict[str, float] | None:
    """Per-layer counters of one traced round, summed over its operations."""
    stats: dict[str, float] = {}
    for r in records:
        if r["failed"]:
            continue
        for key, value in r["report"]["trace"].items():
            stats[key] = stats.get(key, 0) + value
    return stats or None


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    keys = {key: None for row in rows for key in row}
    return {key: statistics.median(row.get(key, 0) for row in rows) for key in keys}


END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "sim_rounds": "rounds",
    "sim_peak_bits": "bits",
    "coverage": "elements",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small shapes of the same paths, for the benchmark's tests")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "mpcover" / "__init__.py").is_file():
        print(f"perfbench: no mpcover sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}" + ("-small" if args.small else "")
    out = HERE / "out" / tag
    out.mkdir(parents=True, exist_ok=True)
    runner = Runner(workloads.build(args.workload, args.seed, args.small), out,
                    started + DEADLINE_S)

    metrics: dict[str, float] = {}
    # half the set-up probes before the rounds and half after, so that they
    # sample the machine at both ends of the run
    if not args.trace:
        runner.probe_setup(SETUP_PROBES // 2)
    plain = runner.rounds(False, budget=args.seconds)
    if not args.trace:
        runner.probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in runner.setup_probes)
    rows = [m for m in map(round_metrics, plain) if m is not None]
    if not rows:
        print(json.dumps(runner.records, indent=1), file=sys.stderr)
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1
    metrics.update(medians(rows))
    if args.trace:
        traced = runner.rounds(True, count=len(plain))
        traced_rows = [m for m in map(round_metrics, traced) if m is not None]
        layers = [t for t in map(round_trace, traced) if t is not None]
        if not layers:
            print("perfbench: no traced operation succeeded", file=sys.stderr)
            return 1
        layer = medians(layers)
        layer["trace.overhead_s"] = medians(traced_rows)["solve_s"] - metrics["solve_s"]
        shown = {name: layer.get(name, 0) for name in tracing.PER_LAYER}
        units = tracing.PER_LAYER
    else:
        shown, units = metrics, END_TO_END

    records = runner.records
    result = {
        "correct": not any(r["problems"] for r in records),
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": shown[name], "unit": unit} for name, unit in units.items()},
    }
    (out / ("trace.json" if args.trace else "result.json")).write_text(
        json.dumps({"args": vars(args), "end_to_end": metrics, "result": result,
                    "setup_probes": runner.setup_probes,
                    "records": records}, indent=1)
    )
    for r in records:
        if r["failed"]:
            print(f"perfbench: {r['op']} failed: {r.get('error') or r['problems']}",
                  file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
