"""Golden trace shapes for the whole suite matrix at ``opt_level`` 1.

``tests/golden/spans.json`` pins, for every suite kernel × compilable
flow, the traced span structure (:func:`repro.trace.structure_of`) and
the deterministic counters (:func:`repro.trace.counters_of`) of the cell
a matrix run records: compile, simulate on the kernel's own arguments,
price and emit, as :func:`repro.runner.engine.execute_cell` traces them.
A rejected cell keeps its partial trace, so the fixture also pins where
each flow says no.  Fuzz coverage signals and corpus entries are built
from exactly these fields (``repro.fuzz.coverage.cell_signals``), so a
refactor of the flows that moves a span, renames a phase or changes a
count shows here.

To intentionally change it, regenerate it in the same commit and say
why::

    PYTHONPATH=src python -m tests.test_golden_spans
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import SynthesisOptions
from repro.flows import COMPILABLE
from repro.runner import CellTask
from repro.runner.engine import cell_payload, execute_cell
from repro.trace import counters_of, structure_of
from repro.workloads import WORKLOADS

GOLDEN = Path(__file__).parent / "golden" / "spans.json"


def span_cell(workload, flow: str) -> dict:
    """The trace shape of one (kernel, flow) cell at opt_level 1."""
    task = CellTask(workload=workload.name, source=workload.source,
                    options=SynthesisOptions(flow=flow, opt_level=1),
                    args=tuple(workload.args))
    payload = cell_payload(task, "", timeout_s=0.0, max_cycles=2_000_000,
                           trace=True)
    result = execute_cell(payload)[0]
    return {"verdict": result["verdict"],
            "structure": structure_of(result["trace"]),
            "counters": counters_of(result["trace"])}


def kernel_cells(workload) -> dict:
    return {f"{workload.name}/{flow}": span_cell(workload, flow)
            for flow in COMPILABLE}


def render() -> str:
    """The fixture's JSON, one cell per line so diffs stay readable."""
    lines = [
        f"  {json.dumps(key)}: {json.dumps(cell, sort_keys=True)}"
        for workload in WORKLOADS
        for key, cell in kernel_cells(workload).items()
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


_CELLS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_fixture_covers_every_cell():
    expected = [f"{w.name}/{flow}" for w in WORKLOADS for flow in COMPILABLE]
    assert list(_CELLS) == expected


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_kernel_spans_match_golden(workload):
    expected = {
        key: cell for key, cell in _CELLS.items()
        if key.startswith(f"{workload.name}/")
    }
    assert kernel_cells(workload) == expected


if __name__ == "__main__":
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
