"""The package's public API: exactly the names its callers use."""

import mpcover

PUBLIC = [
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


def test_all_is_pinned_and_resolves():
    assert sorted(mpcover.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(mpcover, name) is not None
