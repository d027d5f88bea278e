"""E3 — loop pipelining effectiveness: regular vs irregular loops.

Paper claim: "Pipelining works well on regular loops, e.g., in scientific
computation, but is less effective in general.  Again, dependencies and
control-flow transfers limit parallelism."

Regenerated table: for every workload loop, ResMII / RecMII / achieved II
and the steady-state speedup, under a mid-sized datapath.  Expected shape:
dataflow loops (dot product, FIR inner loops) reach small IIs and real
speedups; recurrence-bound loops (GCD's divider, histogram's
read-modify-write) gain little or nothing.
"""

import pytest

from repro.ir import build_function
from repro.ir.passes import inline_program, optimize_cdfg
from repro.lang import parse
from repro.report import format_table
from repro.scheduling import ResourceSet, find_pipelineable_loops, modulo_schedule
from repro.workloads import WORKLOADS

RESOURCES = ResourceSet(alu=4, multiplier=2, shifter=2, divider=1)
CANDIDATES = [w for w in WORKLOADS if w.category in ("regular", "control", "memory")]


def pipeline_all():
    rows = []
    for workload in CANDIDATES:
        program, info = parse(workload.source)
        inlined, _ = inline_program(program, info)
        cdfg = build_function(inlined.function("main"), info)
        optimize_cdfg(cdfg)
        loops = find_pipelineable_loops(cdfg)
        if not loops:
            continue
        # Report the workload's hottest (largest) loop.
        loop = max(loops, key=lambda l: len(l.ops))
        result = modulo_schedule(loop, RESOURCES)
        rows.append((workload, result))
    return rows


def test_pipelining(benchmark, save_report):
    results = benchmark.pedantic(pipeline_all, rounds=1, iterations=1)
    assert results
    table_rows = []
    by_category = {}
    for workload, result in results:
        speedup = result.speedup()
        by_category.setdefault(workload.category, []).append(speedup)
        table_rows.append([
            workload.name, workload.category, result.op_count,
            result.res_mii, result.rec_mii,
            result.achieved_ii if result.achieved_ii is not None else "-",
            result.sequential_steps, f"{speedup:.2f}x",
        ])
    text = format_table(
        ["workload", "category", "loop ops", "ResMII", "RecMII", "II",
         "seq steps", "speedup"],
        table_rows,
        title="E3: modulo scheduling (4 ALU / 2 MUL / 1 DIV datapath)",
    )
    save_report("e3_pipelining", text)

    regular_best = max(by_category.get("regular", [1.0]))
    control_best = max(by_category.get("control", [1.0]))
    assert regular_best >= 2.0, "regular loops must pipeline"
    assert control_best <= 1.5, "control loops must not"
    assert regular_best > control_best
