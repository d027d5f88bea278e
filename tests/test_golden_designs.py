"""Golden designs for the whole suite matrix at every opt_level.

``tests/golden/designs.json`` pins, for every suite kernel × compilable
flow × ``opt_level`` 0–3, the compile verdict, the sha256 of the emitted
Verilog (empty for flows that emit none) and the value and cycle count
of simulating the design on the kernel's own arguments.  A mid-end
refactor must reproduce it byte for byte, so the designs, the cycle
counts and the emitted RTL cannot move.

To intentionally change it, regenerate it in the same commit and say
why::

    PYTHONPATH=src python -m tests.test_golden_designs
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import SynthesisOptions, synthesize
from repro.flows import COMPILABLE
from repro.flows.base import FlowError
from repro.workloads import WORKLOADS

GOLDEN = Path(__file__).parent / "golden" / "designs.json"
LEVELS = (0, 1, 2, 3)


def design_cell(workload, flow: str, level: int) -> dict:
    """What one (kernel, flow, level) cell produces."""
    options = SynthesisOptions(
        flow=flow, opt_level=level, sim_backend="compiled"
    )
    try:
        result = synthesize(workload.source, options)
    except FlowError as err:
        return {"verdict": f"{type(err).__name__}: {err}"}
    try:
        verilog = hashlib.sha256(result.verilog().encode()).hexdigest()
    except NotImplementedError:
        verilog = ""
    run = result.run(args=workload.args)
    return {"verdict": "ok", "verilog_sha256": verilog,
            "value": run.value, "cycles": run.cycles}


def kernel_cells(workload) -> dict:
    return {
        f"{workload.name}/{flow}/O{level}": design_cell(workload, flow, level)
        for flow in COMPILABLE for level in LEVELS
    }


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
    expected = [
        f"{w.name}/{flow}/O{level}"
        for w in WORKLOADS for flow in COMPILABLE for level in LEVELS
    ]
    assert list(_CELLS) == expected
    assert len(expected) == len(WORKLOADS) * len(COMPILABLE) * len(LEVELS)
    assert sum(cell["verdict"] == "ok" for cell in _CELLS.values()) == 620


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_kernel_designs_match_golden(workload):
    expected = {
        key: cell for key, cell in _CELLS.items()
        if key.startswith(f"{workload.name}/")
    }
    assert kernel_cells(workload) == expected


if __name__ == "__main__":
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
