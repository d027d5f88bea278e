"""E9 — scheduler ablation: ASAP vs force-directed vs resource-constrained
list scheduling.

DESIGN.md calls scheduling "pluggable" as a deliberate design decision;
this ablation justifies it with the classic results:

* ASAP minimizes latency but needs peak-parallelism hardware;
* force-directed scheduling meets the same latency with flatter
  functional-unit usage (Paulin & Knight's claim);
* list scheduling under explicit resource limits trades latency for area;
* the latency/resource curve saturates — beyond a few units, more hardware
  buys nothing (the block's dependences bound the win).
"""

import pytest

from repro.ir import build_function
from repro.ir.passes import inline_program, optimize_cdfg
from repro.lang import parse
from repro.report import format_table
from repro.scheduling import (
    ResourceSet,
    force_directed_schedule,
    list_schedule_block,
    peak_usage,
    unit_asap,
)
from repro.workloads import dataflow_source

# Wide synthetic dataflow blocks: enough parallelism for the knobs to bite.
SEEDS = (11, 23, 47)


def blocks():
    out = []
    for seed in SEEDS:
        source = dataflow_source(seed, statements=16, depth=4)
        program, info = parse(source)
        inlined, _ = inline_program(program, info)
        cdfg = build_function(inlined.function("main"), info)
        optimize_cdfg(cdfg)
        out.append((seed, max(cdfg.reachable_blocks(), key=lambda b: len(b.ops))))
    return out


def ablate():
    rows = []
    fds_never_worse = True
    for seed, block in blocks():
        asap = unit_asap(block)
        fds = force_directed_schedule(block, length=asap.n_steps)
        asap_peak = peak_usage(asap)
        fds_peak = peak_usage(fds)
        total_asap = sum(asap_peak.values())
        total_fds = sum(fds_peak.values())
        if total_fds > total_asap:
            fds_never_worse = False
        for name, resources in (
            ("1 of each", ResourceSet.minimal()),
            ("typical", ResourceSet.typical()),
            ("unlimited", ResourceSet.unlimited()),
        ):
            listed = list_schedule_block(block, resources, clock_ns=5.0)
            rows.append([
                f"seed{seed}", len(block.ops), f"list/{name}", listed.n_steps,
                "-",
            ])
        rows.append([
            f"seed{seed}", len(block.ops), "asap (unit)", asap.n_steps,
            total_asap,
        ])
        rows.append([
            f"seed{seed}", len(block.ops), "force-directed", fds.n_steps,
            total_fds,
        ])
    return rows, fds_never_worse


def test_scheduler_ablation(benchmark, save_report):
    rows, fds_never_worse = benchmark.pedantic(ablate, rounds=1, iterations=1)
    text = format_table(
        ["block", "ops", "scheduler", "steps", "peak FUs"],
        rows,
        title="E9: scheduler ablation on wide dataflow blocks",
    )
    save_report("e9_schedulers", text)
    assert fds_never_worse, "FDS must not need more FUs than ASAP at equal latency"
    # Resource limits must show the latency/area trade: minimal >= unlimited.
    by_block = {}
    for row in rows:
        by_block.setdefault(row[0], {})[row[2]] = row[3]
    for block, entry in by_block.items():
        assert entry["list/1 of each"] >= entry["list/unlimited"]


def test_resource_sweep_saturates(benchmark, save_report):
    source = dataflow_source(31, statements=18, depth=4)
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    cdfg = build_function(inlined.function("main"), info)
    optimize_cdfg(cdfg)
    block = max(cdfg.reachable_blocks(), key=lambda b: len(b.ops))

    def sweep():
        rows = []
        for units in (1, 2, 3, 4, 6, 8):
            resources = ResourceSet(alu=units, shifter=units,
                                    multiplier=units, divider=1)
            schedule = list_schedule_block(block, resources, clock_ns=5.0)
            rows.append([units, schedule.n_steps])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = format_table(
        ["FUs per class", "steps"],
        rows,
        title="E9b: latency vs functional units (one dataflow block)",
    )
    save_report("e9b_resource_sweep", text)
    steps = [r[1] for r in rows]
    assert steps[0] >= steps[-1]
    # Saturation: the last doubling buys (almost) nothing.
    assert steps[-1] >= steps[-2] - 1
