"""E5 — explicit parallel constructs vs compiler-inferred concurrency.

Paper claim: "About half the languages require the programmer to express
concurrency with parallel constructs ... Other languages present a
sequential model to the programmer and rely on the compiler to identify
parallelism", and "relying on the compiler to expose parallelism is
awkward because using it effectively requires understanding details of the
compiler's operation."

Regenerated table: a task-parallel kernel in three codings —

* sequential C through the inference flows (C2Verilog, CASH) at several
  datapath widths: the compiler finds the ILP, *if* the resources exist;
* the same program with explicit ``par`` under Handel-C: the designer
  states the concurrency and gets it at one assignment each;
* process-level pipelines under the CSP flows, which no intra-procedural
  inference can discover.
"""

import pytest

from repro.api import synthesize
from repro.report import format_table
from repro.scheduling import ResourceSet
from repro.workloads import get

SEQUENTIAL = """
int main(int a) {
    int t0 = (a + 1) * 3;
    int t1 = (a + 2) * 5;
    int t2 = (a + 3) * 7;
    int t3 = (a + 4) * 11;
    return t0 + t1 + t2 + t3;
}
"""

EXPLICIT_PAR = """
int main(int a) {
    int t0;
    int t1;
    int t2;
    int t3;
    par {
        t0 = (a + 1) * 3;
        t1 = (a + 2) * 5;
        t2 = (a + 3) * 7;
        t3 = (a + 4) * 11;
    }
    return t0 + t1 + t2 + t3;
}
"""


def run_matrix():
    rows = []
    golden = synthesize(SEQUENTIAL, flow="c2verilog").run(args=(5,)).value
    for name, resources in (
        ("1 ALU/1 MUL", ResourceSet(alu=1, multiplier=1)),
        ("2 ALU/2 MUL", ResourceSet(alu=2, multiplier=2)),
        ("4 ALU/4 MUL", ResourceSet(alu=4, multiplier=4)),
    ):
        result = synthesize(SEQUENTIAL, flow="c2verilog",
                            resources=resources).run(args=(5,))
        assert result.value == golden
        rows.append(["c2verilog (inferred)", name, result.cycles])
    cash = synthesize(SEQUENTIAL, flow="cash").run(args=(5,))
    assert cash.value == golden
    rows.append(["cash (inferred, spatial)", "unbounded",
                 f"{cash.time_ns:.0f} ns"])
    seq_hc = synthesize(SEQUENTIAL, flow="handelc").run(args=(5,))
    par_hc = synthesize(EXPLICIT_PAR, flow="handelc").run(args=(5,))
    assert seq_hc.value == par_hc.value == golden
    rows.append(["handelc (sequential)", "-", seq_hc.cycles])
    rows.append(["handelc (explicit par)", "-", par_hc.cycles])
    return rows, seq_hc.cycles, par_hc.cycles


def test_explicit_vs_inferred(benchmark, save_report):
    rows, seq_cycles, par_cycles = benchmark.pedantic(
        run_matrix, rounds=1, iterations=1
    )
    text = format_table(
        ["coding / flow", "datapath", "cycles (or latency)"],
        rows,
        title="E5a: explicit par vs compiler-inferred ILP (4-way task kernel)",
    )
    save_report("e5a_concurrency", text)
    assert par_cycles < seq_cycles  # the annotation bought real cycles
    inferred = [r[2] for r in rows if r[0].startswith("c2verilog")]
    assert inferred[-1] < inferred[0]  # inference needs the resources


def test_process_pipeline_no_inference_can_find(benchmark, save_report):
    w = get("pipeline3")

    def run_pipeline():
        results = {}
        for flow in ("handelc", "bachc", "hardwarec", "systemc"):
            results[flow] = synthesize(w.source, flow=flow).run(args=w.args)
        return results

    results = benchmark.pedantic(run_pipeline, rounds=1, iterations=1)
    rows = [
        [flow, r.value, r.cycles, r.stats.get("stall_cycles", "-")]
        for flow, r in results.items()
    ]
    text = format_table(
        ["flow", "value", "cycles", "stall cycles"],
        rows,
        title="E5b: three-process CSP pipeline (explicit-concurrency flows only)",
    )
    save_report("e5b_process_pipeline", text)
    values = {r.value for r in results.values()}
    assert values == {205}
    # Inference-only flows cannot even express this program.
    from repro.flows import FlowError, UnsupportedFeature

    for flow in ("c2verilog", "cash", "cones", "transmogrifier"):
        with pytest.raises((UnsupportedFeature, FlowError)):
            synthesize(w.source, flow=flow)
