"""Parallel, content-addressed matrix execution.

The runner is the one code path through which every consumer — the CLI's
``matrix`` and ``sweep`` commands, the T2 benchmark, the differential
co-simulation suite, and the lint cross-validation tests — executes the
workload × flow matrix.  See :mod:`repro.runner.engine` for the execution
model, :mod:`repro.runner.pool` for the process pool it shares with the
server and the fuzz shards, and :mod:`repro.runner.cache` for the
artifact cache.
"""

from .cache import (
    DEFAULT_CACHE_DIR,
    ArtifactCache,
    CacheStats,
    PruneReport,
    cell_key,
    environment_salt,
    normalized_source,
)
from .cells import (
    CACHEABLE_VERDICTS,
    ERROR,
    MISMATCH,
    OK,
    REJECTED,
    TIMEOUT,
    UNEXPECTED_VERDICTS,
    VERDICTS,
    CellResult,
    CellTask,
    canonical_observable,
)
from .engine import (
    DEFAULT_MAX_CYCLES,
    DEFAULT_TIMEOUT_S,
    MatrixEngine,
    cell_payload,
    crash_result,
    execute_batch,
    execute_cell,
    file_tasks,
    suite_tasks,
)
from .pool import WorkerPool

__all__ = [
    "ArtifactCache",
    "CACHEABLE_VERDICTS",
    "CacheStats",
    "CellResult",
    "CellTask",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MAX_CYCLES",
    "DEFAULT_TIMEOUT_S",
    "ERROR",
    "MISMATCH",
    "MatrixEngine",
    "OK",
    "PruneReport",
    "REJECTED",
    "TIMEOUT",
    "UNEXPECTED_VERDICTS",
    "VERDICTS",
    "WorkerPool",
    "canonical_observable",
    "cell_key",
    "cell_payload",
    "crash_result",
    "environment_salt",
    "execute_batch",
    "execute_cell",
    "file_tasks",
    "normalized_source",
    "suite_tasks",
]
