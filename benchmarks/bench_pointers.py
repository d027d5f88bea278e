"""E10 — the price and payoff of pointer analysis.

Paper claim: C's pointer semantics "demands compilers with aggressive
optimization to perform costly pointer analysis", and C2Verilog's breadth
("it can translate pointers, recursion, ...") is what made it
comprehensive.

Regenerated table: pointer-rich kernels compiled with the Andersen
analysis enabled and disabled —

* analysis ON: points-to sets resolve most pointers to single arrays, so
  dereferences hit small private memories;
* analysis OFF: every address-taken object collapses into the unified
  memory, and every access serializes through its one port.

Columns report the analysis's own cost (constraints, iterations) next to
what it buys (cycles, memories).
"""

import time

import pytest

from repro.analysis.pointer import plan_pointers
from repro.api import synthesize
from repro.ir.passes import inline_program
from repro.lang import parse
from repro.report import format_table
from repro.workloads import get

KERNELS = {
    "ptr_sum": get("ptr_sum").source,
    "ptr_swap": get("ptr_swap").source,
    "two_walkers": """
int evens[16] = {2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32};
int odds[16] = {1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31};
int main() {
    int *p = &evens[0];
    int *q = &odds[0];
    int s = 0;
    for (int i = 0; i < 16; i++) {
        s += *p + *q;   // two independent read streams
        p = p + 1;
        q = q + 1;
    }
    return s;
}
""",
    "aliased": """
int a[8];
int b[8];
int main(int w) {
    int *p = w > 0 ? &a[0] : &b[0];
    for (int i = 0; i < 8; i++) {
        *(p + i) = i * 5;
    }
    return a[7] + b[7];
}
""",
}

ARGS = {"ptr_sum": (), "ptr_swap": (42, 7, 19), "two_walkers": (), "aliased": (1,)}


def run_all():
    rows = []
    for name, source in KERNELS.items():
        args = ARGS[name]
        program, info = parse(source)
        inlined, _ = inline_program(program, info)
        started = time.perf_counter()
        plan = plan_pointers(inlined.function("main"))
        analysis_us = (time.perf_counter() - started) * 1e6

        # A generous ALU datapath so the *memory ports* are the binding
        # constraint — the axis this experiment isolates.
        from repro.scheduling import ResourceSet

        datapath = ResourceSet(alu=6, multiplier=2, shifter=2, divider=1)
        analyzed = synthesize(source, flow="c2verilog",
                              pointer_analysis=True, resources=datapath).design
        naive = synthesize(source, flow="c2verilog",
                           pointer_analysis=False, resources=datapath).design
        analyzed_run = analyzed.run(args=args)
        naive_run = naive.run(args=args)
        assert analyzed_run.value == naive_run.value
        rows.append([
            name, plan.mode,
            plan.stats.pointer_count, plan.stats.constraint_count,
            plan.stats.iterations, f"{analysis_us:.0f}",
            plan.stats.resolved_count,
            analyzed_run.cycles, naive_run.cycles,
            f"{naive_run.cycles / max(analyzed_run.cycles, 1):.2f}x",
        ])
    return rows


def test_pointer_analysis(benchmark, save_report):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    text = format_table(
        ["kernel", "mode", "#ptrs", "#constraints", "iters", "cost(us)",
         "resolved", "cycles (analyzed)", "cycles (naive)", "payoff"],
        rows,
        title="E10: Andersen pointer analysis — cost and cycle payoff",
    )
    save_report("e10_pointers", text)
    payoffs = {r[0]: float(r[9][:-1]) for r in rows}
    # Resolvable pointers buy real cycles back...
    assert payoffs["two_walkers"] > 1.1
    assert payoffs["ptr_sum"] >= 1.0
    # ...while genuinely aliased pointers stay in the unified memory
    # whether or not we analyze (the analysis is honest about its limits).
    modes = {r[0]: r[1] for r in rows}
    assert modes["aliased"] in ("unified", "mixed")
    assert modes["two_walkers"] == "resolved"
