"""E4 — implicit timing rules vs scheduled timing, and the recoding tax.

Paper claim: "While simple to understand, such rules can require recoding
to meet timing.  Handel-C may require assignment statements to be fused and
loops may need to be unrolled in Transmogrifier C."

Regenerated tables:

* the same kernels written as many small assignments vs fused expressions,
  compiled by Handel-C (one cycle per assignment), Transmogrifier C (one
  cycle per iteration, chained logic), and Bach C (compiler-scheduled):
  the implicit-rule flows move a lot between the two codings, the
  scheduled flow barely moves — the recoding burden is the rule's, not the
  program's;
* Transmogrifier cycles as a function of unroll factor: the loop-unrolling
  recoding buys cycles at the price of clock period and area.
"""

import pytest

from repro.api import synthesize
from repro.flows import get_flow
from repro.report import format_table
from repro.workloads import RECODING_PAIRS, get, unrolled_program

FLOWS = ("handelc", "transmogrifier", "bachc")


def run_pairs():
    rows = []
    for pair in RECODING_PAIRS:
        for flow in FLOWS:
            stepped = synthesize(pair.stepped, flow=flow).run(args=pair.args)
            fused = synthesize(pair.fused, flow=flow).run(args=pair.args)
            assert stepped.value == fused.value
            stepped_clock = synthesize(pair.stepped, flow=flow).design.cost().clock_ns
            fused_clock = synthesize(pair.fused, flow=flow).design.cost().clock_ns
            rows.append([
                pair.name, flow,
                stepped.cycles, fused.cycles,
                f"{stepped.cycles / max(fused.cycles, 1):.2f}x",
                f"{stepped_clock:.1f}", f"{fused_clock:.1f}",
            ])
    return rows


def test_recoding_pairs(benchmark, save_report):
    rows = benchmark.pedantic(run_pairs, rounds=1, iterations=1)
    text = format_table(
        ["kernel", "flow", "stepped cyc", "fused cyc", "cycle gain",
         "stepped clk(ns)", "fused clk(ns)"],
        rows,
        title="E4a: assignment fusion — cycles vs clock across timing models",
    )
    save_report("e4a_recoding_pairs", text)
    # Handel-C must reward fusion strongly; Bach C must be insensitive.
    handelc_gains = [
        float(r[4][:-1]) for r in rows if r[1] == "handelc"
    ]
    bachc_gains = [float(r[4][:-1]) for r in rows if r[1] == "bachc"]
    assert min(handelc_gains) >= 1.5
    assert max(bachc_gains) <= 1.35


def test_transmogrifier_unrolling(benchmark, save_report):
    w = get("dot16")

    def sweep():
        rows = []
        base = synthesize(w.source, flow="transmogrifier").run(args=w.args)
        base_cost = synthesize(w.source, flow="transmogrifier").design.cost()
        rows.append([1, base.cycles, f"{base_cost.clock_ns:.1f}",
                     f"{base.cycles * base_cost.clock_ns:.0f}",
                     f"{base_cost.area_ge:.0f}"])
        for factor in (2, 4, 8):
            program, info, count = unrolled_program(w.source, factor)
            assert count == 1
            design = get_flow("transmogrifier").compile(program, info, "main")
            run = design.run(args=w.args)
            assert run.value == base.value
            cost = design.cost()
            rows.append([factor, run.cycles, f"{cost.clock_ns:.1f}",
                         f"{run.cycles * cost.clock_ns:.0f}",
                         f"{cost.area_ge:.0f}"])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = format_table(
        ["unroll", "cycles", "clock(ns)", "latency(ns)", "area(GE)"],
        rows,
        title="E4b: Transmogrifier C — unrolling dot16 to meet timing",
    )
    save_report("e4b_transmogrifier_unroll", text)
    cycles = [int(r[1]) for r in rows]
    clocks = [float(r[2]) for r in rows]
    assert cycles[-1] < cycles[0]      # unrolling cuts cycles...
    assert clocks[-1] >= clocks[0]     # ...but stretches the clock
