"""Parallel + memoized evaluation subsystem.

See PERFORMANCE.md for how the backends, the fitness cache and the
``--jobs`` / ``REPRO_JOBS`` knobs fit together.
"""

from repro.parallel.backends import (
    JOBS_ENV_VAR,
    EvaluationBackend,
    SerialBackend,
    create_backend,
    resolve_jobs,
)
from repro.parallel.cache import (
    FitnessCache,
    evaluation_context_digest,
    genome_digest,
)
from repro.parallel.resilience import (
    FailureStats,
    Quarantined,
    ResilientPoolBackend,
    RetryPolicy,
)

__all__ = [
    "JOBS_ENV_VAR",
    "EvaluationBackend",
    "SerialBackend",
    "ResilientPoolBackend",
    "RetryPolicy",
    "FailureStats",
    "Quarantined",
    "create_backend",
    "resolve_jobs",
    "FitnessCache",
    "genome_digest",
    "evaluation_context_digest",
]
