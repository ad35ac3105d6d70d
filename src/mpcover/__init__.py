"""Distributed max coverage: a round-accounted cluster simulation, an LP
solver by multiplicative weights, randomized rounding with marginal-based
trimming, and reference baselines."""

from .baselines import OptResult, exact_opt, greedy_sequential, oracle_minimum
from .cluster import BudgetError, Cluster, RoundLogEntry, ceil_log2, log_to_jsonl
from .instance import (
    InstanceError,
    SetSystem,
    as_selection,
    coverage,
    dump_instance,
    frequency,
    generate_random,
    load_instance,
    normalize_covered,
    set_masks,
)
from .lp import (
    FractionalPair,
    LpContext,
    LpSolution,
    OracleSoundnessError,
    TruncatedPQ,
    WeightAccumulator,
    guess_grid,
    iteration_count,
    mwu_solve,
    oracle_step,
    round_eps_down,
    scale_to_pi0,
    solve_pi1,
)
from .pipeline import (
    AuditError,
    PipelineConfig,
    RunReport,
    bounded_frequency_solve,
    greedy_fallback,
    round_audit_bound,
    run_pipeline,
    solve_max_coverage,
    subsample_universe,
)
from .prefix import MarginalVector, prefix_coverage, trim_to_k
from .rounding import RoundingConfig, best_of_repetitions, randbelow, randomized_round

__version__ = "0.1.0"

__all__ = [
    "AuditError",
    "BudgetError",
    "Cluster",
    "FractionalPair",
    "InstanceError",
    "LpContext",
    "LpSolution",
    "MarginalVector",
    "OptResult",
    "OracleSoundnessError",
    "PipelineConfig",
    "RoundLogEntry",
    "RoundingConfig",
    "RunReport",
    "SetSystem",
    "TruncatedPQ",
    "WeightAccumulator",
    "as_selection",
    "best_of_repetitions",
    "bounded_frequency_solve",
    "ceil_log2",
    "coverage",
    "dump_instance",
    "exact_opt",
    "frequency",
    "generate_random",
    "greedy_fallback",
    "greedy_sequential",
    "guess_grid",
    "iteration_count",
    "load_instance",
    "log_to_jsonl",
    "mwu_solve",
    "normalize_covered",
    "oracle_minimum",
    "oracle_step",
    "prefix_coverage",
    "randbelow",
    "randomized_round",
    "round_audit_bound",
    "round_eps_down",
    "run_pipeline",
    "scale_to_pi0",
    "set_masks",
    "solve_max_coverage",
    "solve_pi1",
    "subsample_universe",
    "trim_to_k",
]
