"""E11 (ablation) and E19 (opt levels) — what the mid-end buys an HLS compiler.

The paper notes that C's efficiency promises "demand compilers with
aggressive optimization".  DESIGN.md decision: every scheduled flow runs
the fold/CSE/DCE/CFG-simplify pipeline before scheduling.  E11 measures
what that classic pipeline is worth, per workload: operation count,
cycle count, and estimated area with the optimizer on vs off.  It also
counts the mid-end's own work at level 1 over the suite x compilable
flows: constfold/CSE block visits and simplify_cfg/DCE runs, counted by
wrapping the pass callables, and fails if the change-driven driver
visits more than 0.7x the blocks the full-sweep driver did.

E19 measures the next tier: the liveness-driven fixpoint pipeline
(opt_level=2 — copy propagation, chain load/store elimination,
dead-variable elimination) against the classic default (opt_level=1),
swept over the full workload × flow matrix through the same engine as
``repro sweep``.  Both exhibits land in ``benchmarks/results/``.
"""

import dataclasses

import pytest

from repro.analysis.pointer import plan_pointers
from repro.api import SynthesisOptions
from repro.api import synthesize as synthesize_source
from repro.flows import COMPILABLE, FlowError
from repro.ir.passes import fixpoint
from repro.runner import OK, suite_tasks
from repro.binding import estimate_cost
from repro.ir import build_function
from repro.ir.passes import inline_program, optimize_cdfg
from repro.lang import parse
from repro.report import format_table
from repro.rtl.fsmd import FSMDSystem, fsmd_from_schedule
from repro.scheduling import ResourceSet, list_schedule_function
from repro.sim import simulate
from repro.lang.types import ArrayType
from repro.workloads import WORKLOADS

CANDIDATES = [w for w in WORKLOADS if w.category in ("regular", "memory", "control")]


def synthesize(workload, optimized):
    program, info = parse(workload.source)
    inlined, _ = inline_program(program, info)
    fn = inlined.function("main")
    cdfg = build_function(fn, info, plan_pointers(fn))
    if optimized:
        optimize_cdfg(cdfg)
    schedule = list_schedule_function(cdfg, ResourceSet.typical(), clock_ns=5.0)
    fsmd = fsmd_from_schedule(schedule)
    system = FSMDSystem(
        fsmds=[fsmd],
        global_registers=[g.symbol for g in program.globals
                          if not isinstance(g.var_type, ArrayType)],
        global_arrays=[g.symbol for g in program.globals
                       if isinstance(g.var_type, ArrayType)],
        global_inits=dict(info.global_inits),
    )
    run = simulate(system, args=workload.args)
    cost = estimate_cost(schedule)
    return cdfg.op_count(), run, cost


def ablate():
    rows = []
    total_cycle_gain = []
    for workload in CANDIDATES:
        raw_ops, raw_run, raw_cost = synthesize(workload, optimized=False)
        opt_ops, opt_run, opt_cost = synthesize(workload, optimized=True)
        assert raw_run.value == opt_run.value
        gain = raw_run.cycles / max(opt_run.cycles, 1)
        total_cycle_gain.append(gain)
        rows.append([
            workload.name, raw_ops, opt_ops, raw_run.cycles, opt_run.cycles,
            f"{gain:.2f}x",
            f"{raw_cost.total_area_ge:.0f}", f"{opt_cost.total_area_ge:.0f}",
        ])
    return rows, total_cycle_gain


#: Level-1 mid-end work over the suite x compilable flows under the
#: full-sweep driver, which ran every pass on every block every sweep.
FULL_SWEEP_BLOCK_VISITS = 7205
FULL_SWEEP_WHOLE_RUNS = 604


def midend_work(monkeypatch):
    """Constfold/CSE block visits and simplify_cfg/DCE runs the level-1
    mid-end makes over the suite x compilable flows.  Deterministic."""
    work = {"block_visits": 0, "whole_function_runs": 0}

    def counted(fn, key):
        def run(*args):
            work[key] += 1
            return fn(*args)
        return run

    passes, bound = fixpoint.OPT_PIPELINES[1]
    wrapped = []
    for spec in passes:
        if spec.block is not None:
            spec = dataclasses.replace(
                spec, block=counted(spec.block, "block_visits"))
        elif spec.touching is not None:
            spec = dataclasses.replace(
                spec, touching=counted(spec.touching, "whole_function_runs"))
        else:
            spec = dataclasses.replace(
                spec, run=counted(spec.run, "whole_function_runs"))
        wrapped.append(spec)
    monkeypatch.setitem(fixpoint.OPT_PIPELINES, 1, (tuple(wrapped), bound))
    for workload in WORKLOADS:
        for flow in COMPILABLE:
            try:
                synthesize_source(workload.source,
                                  SynthesisOptions(flow=flow, opt_level=1))
            except FlowError:
                pass
    return work


def test_optimizer_ablation(benchmark, save_report, save_bench, monkeypatch):
    rows, gains = benchmark.pedantic(ablate, rounds=1, iterations=1)
    work = midend_work(monkeypatch)
    text = format_table(
        ["workload", "ops (raw)", "ops (opt)", "cycles (raw)",
         "cycles (opt)", "cycle gain", "area raw", "area opt"],
        rows,
        title="E11: optimizer ablation (fold+CSE+DCE+CFG-simplify)",
    )
    text += (
        f"\n\nLevel-1 mid-end work over the suite x compilable flows:"
        f" {work['block_visits']} constfold/CSE block visits"
        f" (full-sweep driver: {FULL_SWEEP_BLOCK_VISITS}),"
        f" {work['whole_function_runs']} simplify_cfg/DCE runs"
        f" (full-sweep driver: {FULL_SWEEP_WHOLE_RUNS})."
    )
    save_report("e11_optimizer", text)
    save_bench(
        "optimizer",
        metrics={
            "workloads": len(rows),
            "max_cycle_gain": round(max(gains), 3),
            "mean_cycle_gain": round(sum(gains) / len(gains), 3),
            "ops_shrunk": sum(1 for r in rows if r[2] <= r[1]),
            "midend_block_visits": work["block_visits"],
            "midend_whole_function_runs": work["whole_function_runs"],
            "midend_block_visit_ratio": round(
                work["block_visits"] / FULL_SWEEP_BLOCK_VISITS, 3),
        },
        config={"passes": "fold+cse+dce+cfg-simplify", "exhibit": "E11",
                "full_sweep_block_visits": FULL_SWEEP_BLOCK_VISITS,
                "full_sweep_whole_function_runs": FULL_SWEEP_WHOLE_RUNS},
    )
    # The change-driven driver skips blocks no pass has touched.
    assert work["block_visits"] <= 0.7 * FULL_SWEEP_BLOCK_VISITS, work
    # Optimization never hurts cycles, and wins somewhere meaningful.
    assert all(g >= 0.999 for g in gains)
    assert max(gains) > 1.3
    # Op counts shrink essentially everywhere.
    shrunk = sum(1 for r in rows if r[2] <= r[1])
    assert shrunk == len(rows)


# ---------------------------------------------------------------- E19


def _level_sweep(engine):
    base = engine.run_cells(suite_tasks(opt_level=1))
    opt = engine.run_cells(suite_tasks(opt_level=2))
    return base, opt


def test_opt_level_matrix_deltas(benchmark, save_report, save_bench,
                                 sweep_runner):
    """E19: the fixpoint mid-end vs the classic loop, over the matrix.

    Acceptance: zero verdict regressions anywhere, cycles never worse on
    any OK cell, and a measurable cycle or area win on at least three
    (flow × workload) cells."""
    engine = sweep_runner(jobs=4)
    base, opt = benchmark.pedantic(
        _level_sweep, args=(engine,), rounds=1, iterations=1
    )
    base_by = {(r.workload, r.flow): r for r in base}

    rows = []
    improved = 0
    regressions = []
    cycle_regressions = []
    for cell in opt:
        ref = base_by[(cell.workload, cell.flow)]
        if cell.verdict != ref.verdict:
            regressions.append(
                (cell.workload, cell.flow, ref.verdict, cell.verdict)
            )
            continue
        if cell.verdict != OK:
            continue
        cycle_delta = ref.cycles - cell.cycles
        area_delta = ref.area_ge - cell.area_ge
        if cycle_delta < 0:
            cycle_regressions.append((cell.workload, cell.flow, -cycle_delta))
        if cycle_delta > 0 or area_delta > 0.5:
            improved += 1
            rows.append([
                cell.workload, cell.flow,
                ref.cycles, cell.cycles,
                f"{ref.area_ge:.0f}", f"{cell.area_ge:.0f}",
                f"-{cycle_delta}" if cycle_delta else "=",
                f"-{area_delta:.0f}" if area_delta > 0.5 else "=",
            ])

    ok_cells = sum(1 for c in opt if c.verdict == OK)
    rows.sort(key=lambda r: (r[1], r[0]))
    text = format_table(
        ["workload", "flow", "cyc L1", "cyc L2", "area L1", "area L2",
         "cyc delta", "area delta"],
        rows,
        title=(
            f"E19: liveness fixpoint (opt_level=2) vs classic loop "
            f"(opt_level=1) — {improved}/{ok_cells} OK cells improved, "
            f"{len(regressions)} verdict regressions"
        ),
    )
    save_report("e19_optimizer_levels", text)
    save_bench(
        "optimizer_levels",
        metrics={
            "ok_cells": ok_cells,
            "improved_cells": improved,
            "verdict_regressions": len(regressions),
            "cycle_regressions": len(cycle_regressions),
        },
        config={"base_opt_level": 1, "opt_level": 2, "exhibit": "E19"},
    )

    assert not regressions, regressions
    assert not cycle_regressions, cycle_regressions
    assert improved >= 3, (
        f"expected >= 3 improved cells, got {improved}"
    )
