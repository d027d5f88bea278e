"""Shared benchmark utilities.

Every benchmark regenerates one of the paper's exhibits (Table 1 or an
experiment from DESIGN.md/EXPERIMENTS.md) and writes the resulting table
or series to ``benchmarks/latest/<name>.txt`` so the numbers survive the
pytest run.  That directory is git-ignored: ``benchmarks/results/`` holds
the committed reports EXPERIMENTS.md quotes, and a run never rewrites
them (re-recording one is a copy, see EXPERIMENTS.md).  The ``benchmark``
fixture times each experiment's core computation.

Matrix-shaped benchmarks (T2, E13) go through the same
:class:`repro.runner.MatrixEngine` as ``repro sweep``: the ``sweep_runner``
fixture hands out engines, and ``suite_results`` is one shared parallel
sweep of the full workload × flow matrix as structured ``CellResult``s.
"""

import json
import os
import pathlib
import platform
import time

import pytest

from repro.runner import ArtifactCache, MatrixEngine, suite_tasks

#: The committed reports.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: Where a run writes its reports (git-ignored).
LATEST_DIR = pathlib.Path(__file__).parent / "latest"

#: Machine-readable report schema shared by every ``BENCH_*.json``.
#: ``/2`` adds the ``host`` block.
BENCH_SCHEMA = "repro-bench/2"


def host_fingerprint() -> dict:
    """What a number depends on besides the code: the machine it ran on."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


@pytest.fixture(scope="session")
def save_report():
    LATEST_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (LATEST_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save


@pytest.fixture(scope="session")
def save_bench():
    """Write ``BENCH_<name>.json``: one flat ``metrics`` dict under a
    stable schema tag, plus the host it ran on, so CI and dashboards diff
    numbers across runs without scraping the human-readable tables."""
    LATEST_DIR.mkdir(exist_ok=True)

    def _save(name: str, metrics: dict, config: dict = None) -> pathlib.Path:
        payload = {
            "schema": BENCH_SCHEMA,
            "bench": name,
            "created_unix": int(time.time()),
            "host": host_fingerprint(),
            "metrics": metrics,
        }
        if config:
            payload["config"] = config
        path = LATEST_DIR / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    return _save


@pytest.fixture(scope="session")
def sweep_runner(tmp_path_factory):
    """Factory for matrix engines; ``cached=True`` engines share one
    session-local artifact cache directory (never the user's real one)."""
    cache_root = tmp_path_factory.mktemp("matrix-cache")

    def _make(jobs: int = 1, cached: bool = False) -> MatrixEngine:
        cache = ArtifactCache(cache_root) if cached else None
        return MatrixEngine(jobs=jobs, cache=cache)

    return _make


@pytest.fixture(scope="session")
def suite_results(sweep_runner):
    """One parallel sweep of the full workload × flow matrix, shared by
    every benchmark that consumes per-cell results."""
    return sweep_runner(jobs=4).run_cells(suite_tasks())
