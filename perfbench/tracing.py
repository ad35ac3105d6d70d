"""Per-layer counters for a traced solve.

install() wraps mpcover's public functions and methods at the names their
callers look them up by (mpcover.pipeline.solve_pi1, mpcover.lp.oracle_step,
the Cluster and LpContext methods, ...), so nothing under src/ changes.
Each wrapper keeps, under its key, the number of calls (`.calls`), the wall
time inside them (`.s`) and that time minus the wrapped calls beneath it
(`.self_s`).  A few wrappers also count work from their arguments or
results (deliveries, cells, guesses, repetitions, sets dropped).
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# The per-layer metrics a traced run reports, with their units.  A layer the
# workload never enters reads 0.
PER_LAYER = {
    "instance.load_instance.s": "s",
    "instance.set_masks.calls": "count",
    "instance.set_masks.s": "s",
    "instance.normalize_covered.s": "s",
    "instance.coverage.calls": "count",
    "instance.coverage.s": "s",
    "instance.frequency.s": "s",
    "cluster.step_round.calls": "count",
    "cluster.step_round.deliveries": "count",
    "cluster.step_round.s": "s",
    "cluster.broadcast.calls": "count",
    "cluster.broadcast.s": "s",
    "cluster.convergecast_sum.calls": "count",
    "cluster.convergecast_sum.cells": "count",
    "cluster.convergecast_sum.s": "s",
    "cluster.absorb_parallel.calls": "count",
    "cluster.lane.calls": "count",
    "lp.context.s": "s",
    "lp.solve_pi1.s": "s",
    "lp.solve_pi1.self_s": "s",
    "lp.guesses": "count",
    "lp.guesses_rejected": "count",
    "lp.rejected_iters": "count",
    "lp.oracle_step.calls": "count",
    "lp.oracle_step.self_s": "s",
    "lp.weights.s": "s",
    "lp.exact_check.s": "s",
    "lp.acc_update.s": "s",
    "lp.scale_to_pi0.s": "s",
    "fixmath.exp2_frac.calls": "count",
    "fixmath.exp2_frac.s": "s",
    "rounding.best_of_repetitions.s": "s",
    "rounding.repetitions": "count",
    "prefix.prefix_coverage.s": "s",
    "prefix.trim_to_k.s": "s",
    "prefix.sets_dropped": "count",
    "pipeline.solve_max_coverage.self_s": "s",
    "pipeline.greedy_fallback.self_s": "s",
    "pipeline.bounded_frequency_solve.self_s": "s",
    "pipeline.subsample_universe.s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Counters of the wrapped calls; records only while `on` is set."""

    def __init__(self) -> None:
        self.on = False
        self.stats: dict[str, float] = {}
        self._stack: list[list[float]] = []  # per open call: time of wrapped children
        self._iters: dict[int, int] = {}  # oracle calls per guess of the open solve_pi1

    def add(self, key: str, value: float) -> None:
        self.stats[key] = self.stats.get(key, 0) + value

    def wrap(self, key: str, fn, before=None, after=None):
        """fn with timing under key; before(args, kwargs) may rewrite the
        arguments, after(args, result) counts from the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            children = [0.0]
            self._stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.add(key + ".calls", 1)
                self.add(key + ".s", dt)
                self.add(key + ".self_s", dt - children[0])
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counting hooks ------------------------------------------------------

    def _deliveries(self, args, kwargs):
        cluster, deliveries, *rest = args
        deliveries = list(deliveries)
        self.add("cluster.step_round.deliveries", len(deliveries))
        return (cluster, deliveries, *rest), kwargs

    def _cells(self, args, kwargs):
        self.add("cluster.convergecast_sum.cells", int(np.prod(np.shape(args[1]))))
        return args, kwargs

    def _pi1_start(self, args, kwargs):
        self._iters = {}
        return args, kwargs

    def _oracle_call(self, args, kwargs):
        length = args[2] if len(args) > 2 else kwargs["length"]
        self._iters[length] = self._iters.get(length, 0) + 1
        return args, kwargs

    def _pi1_done(self, args, result) -> None:
        rejected = result.infeasible_guesses
        self.add("lp.guesses", len(result.feasible_guesses) + len(rejected))
        self.add("lp.guesses_rejected", len(rejected))
        self.add("lp.rejected_iters", sum(self._iters.get(g, 0) for g in rejected))

    def _repetitions(self, args, result) -> None:
        self.add("rounding.repetitions", result[2])

    def _dropped(self, args, result) -> None:
        self.add("prefix.sets_dropped", len(args[1].selection) - len(result[0]))


def install(tracer: Tracer) -> None:
    """Wrap the traced functions; one wrapper per function, set at every name."""
    import mpcover.cluster as cluster
    import mpcover.fixmath as fixmath
    import mpcover.instance as instance
    import mpcover.lp as lp
    import mpcover.pipeline as pipeline
    import mpcover.prefix as prefix
    import mpcover.rounding as rounding

    def patch(key, attr, owners, **hooks):
        present = [o for o in owners if hasattr(o, attr)]
        if not present:
            print(f"trace: {attr} not found, {key} reads 0", file=sys.stderr)
            return
        wrapper = tracer.wrap(key, getattr(present[0], attr), **hooks)
        for owner in present:
            setattr(owner, attr, wrapper)

    patch("instance.load_instance", "load_instance", [instance])
    patch("instance.set_masks", "set_masks", [instance, pipeline, prefix])
    patch("instance.normalize_covered", "normalize_covered", [instance, pipeline])
    patch("instance.coverage", "coverage", [instance, pipeline, rounding, prefix])
    patch("instance.frequency", "frequency", [instance, pipeline])
    Cluster = cluster.Cluster
    patch("cluster.step_round", "step_round", [Cluster], before=tracer._deliveries)
    patch("cluster.broadcast", "broadcast", [Cluster])
    patch("cluster.convergecast_sum", "convergecast_sum", [Cluster], before=tracer._cells)
    patch("cluster.absorb_parallel", "absorb_parallel", [Cluster])
    patch("cluster.lane", "lane", [Cluster])
    patch("lp.context", "__init__", [lp.LpContext])
    patch("lp.solve_pi1", "solve_pi1", [lp, pipeline],
          before=tracer._pi1_start, after=tracer._pi1_done)
    patch("lp.oracle_step", "oracle_step", [lp], before=tracer._oracle_call)
    patch("lp.weights", "weights", [lp.LpContext])
    patch("lp.exact_check", "exact_check", [lp.LpContext])
    patch("lp.acc_update", "update", [lp.WeightAccumulator])
    patch("lp.scale_to_pi0", "scale_to_pi0", [lp, pipeline])
    patch("fixmath.exp2_frac", "exp2_frac", [fixmath, lp])
    patch("rounding.best_of_repetitions", "best_of_repetitions", [rounding, pipeline],
          after=tracer._repetitions)
    patch("prefix.prefix_coverage", "prefix_coverage", [prefix, pipeline])
    patch("prefix.trim_to_k", "trim_to_k", [prefix, pipeline], after=tracer._dropped)
    patch("pipeline.solve_max_coverage", "solve_max_coverage", [pipeline])
    patch("pipeline.greedy_fallback", "greedy_fallback", [pipeline])
    patch("pipeline.bounded_frequency_solve", "bounded_frequency_solve", [pipeline])
    patch("pipeline.subsample_universe", "subsample_universe", [pipeline])
