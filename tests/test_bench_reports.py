"""Every committed benchmark report says which host it ran on.

A ``BENCH_*.json`` number is only readable next to the machine that
produced it (a shard "speedup" below 1 means something else on one core
than on eight), so each report carries the ``repro-bench/2`` schema and
its ``host`` block.
"""

import json
from pathlib import Path

import pytest

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"
REPORTS = sorted(RESULTS.glob("BENCH_*.json"))


def test_there_are_reports():
    assert REPORTS


@pytest.mark.parametrize("path", REPORTS, ids=[p.stem for p in REPORTS])
def test_report_has_schema_2_and_a_host_block(path):
    report = json.loads(path.read_text())
    assert report["schema"] == "repro-bench/2"
    assert report["bench"] == path.stem[len("BENCH_"):]
    host = report["host"]
    assert isinstance(host["cpu_count"], int) and host["cpu_count"] > 0
    assert host["python"] and host["machine"]
    assert isinstance(report["metrics"], dict)
