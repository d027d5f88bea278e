"""Parallel, content-addressed matrix execution.

The runner is the one code path through which every consumer — the CLI's
``matrix`` and ``sweep`` commands, the T2 benchmark, the differential
co-simulation suite, and the lint cross-validation tests — executes the
workload × flow matrix.  See :mod:`repro.runner.engine` for the execution
model, :mod:`repro.runner.pool` for the process pool it shares with the
server and the fuzz shards, and :mod:`repro.runner.cache` for the
artifact cache.

Every name loads its submodule on first use (:mod:`repro._exports`), so
``import repro.runner.cells`` brings in neither the pool's
``multiprocessing`` nor the engine.
"""

from .._exports import lazy_exports

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
    "execute_cell",
    "file_tasks",
    "golden_observable",
    "normalized_source",
    "suite_tasks",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "DEFAULT_CACHE_DIR": ".cache",
    "ArtifactCache": ".cache",
    "CacheStats": ".cache",
    "PruneReport": ".cache",
    "cell_key": ".cache",
    "environment_salt": ".cache",
    "normalized_source": ".cache",
    "CACHEABLE_VERDICTS": ".cells",
    "ERROR": ".cells",
    "MISMATCH": ".cells",
    "OK": ".cells",
    "REJECTED": ".cells",
    "TIMEOUT": ".cells",
    "UNEXPECTED_VERDICTS": ".cells",
    "VERDICTS": ".cells",
    "CellResult": ".cells",
    "CellTask": ".cells",
    "canonical_observable": ".cells",
    "DEFAULT_MAX_CYCLES": ".engine",
    "DEFAULT_TIMEOUT_S": ".engine",
    "MatrixEngine": ".engine",
    "cell_payload": ".engine",
    "crash_result": ".engine",
    "execute_cell": ".engine",
    "file_tasks": ".engine",
    "golden_observable": ".engine",
    "suite_tasks": ".engine",
    "WorkerPool": ".pool",
})
