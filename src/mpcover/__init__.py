"""Distributed max coverage: a round-accounted cluster simulation, an LP
solver by multiplicative weights, randomized rounding with marginal-based
trimming, and reference baselines.

The names below are the public API; everything else is importable from its
own submodule."""

from .cluster import BudgetError, Cluster, RoundLogEntry, log_to_jsonl
from .instance import (
    InstanceError,
    SetSystem,
    coverage,
    dump_instance,
    generate_random,
    load_instance,
)
from .lp import OracleSoundnessError
from .pipeline import (
    AuditError,
    PipelineConfig,
    RunReport,
    bounded_frequency_solve,
    run_pipeline,
    solve_max_coverage,
)

__version__ = "0.1.0"

__all__ = [
    "AuditError",
    "BudgetError",
    "Cluster",
    "InstanceError",
    "OracleSoundnessError",
    "PipelineConfig",
    "RoundLogEntry",
    "RunReport",
    "SetSystem",
    "bounded_frequency_solve",
    "coverage",
    "dump_instance",
    "generate_random",
    "load_instance",
    "log_to_jsonl",
    "run_pipeline",
    "solve_max_coverage",
]
