"""Flow-level tests: each surveyed language's documented behavior."""

import pytest

from repro.api import synthesize
from repro.flows import (
    COMPILABLE,
    REGISTRY,
    FlowError,
    OcapiModule,
    UnsupportedFeature,
    get_flow,
    table1_rows,
)
from repro.interp import run_source
from repro.scheduling import ConstraintInfeasible, ResourceSet


# ---------------------------------------------------------------------------
# Registry / Table 1
# ---------------------------------------------------------------------------


def test_registry_covers_all_table1_languages():
    assert set(REGISTRY) == {
        "cones", "hardwarec", "transmogrifier", "systemc", "ocapi",
        "c2verilog", "cyber", "handelc", "specc", "bachc", "cash",
    }


def test_table1_rows_are_chronological_with_notes():
    rows = table1_rows()
    assert rows[0]["language"] == "Cones"
    assert rows[-1]["language"] == "CASH"
    assert rows[0]["note"] == "Early, combinational only"
    notes = {r["language"]: r["note"] for r in rows}
    assert notes["Bach C"] == "Untimed semantics (Sharp)"
    assert notes["Handel-C"] == "C with CSP (Celoxica)"
    assert notes["C2Verilog"] == "Comprehensive; company defunct"


def test_unknown_flow_raises_with_known_list():
    with pytest.raises(KeyError) as excinfo:
        get_flow("vhdl")
    assert "known flows" in str(excinfo.value)


def test_concurrency_axis_matches_paper():
    # "About half the languages require the programmer to express
    # concurrency" — explicit vs compiler split.
    rows = table1_rows()
    explicit = {r["language"] for r in rows if r["concurrency"] == "explicit"}
    compiler = {r["language"] for r in rows if r["concurrency"] == "compiler"}
    assert {"HardwareC", "SystemC", "Handel-C", "SpecC", "Bach C"} <= explicit
    assert {"Cones", "Transmogrifier C", "C2Verilog", "CASH"} <= compiler


# ---------------------------------------------------------------------------
# Handel-C: one cycle per assignment, zero-cycle control
# ---------------------------------------------------------------------------


def handelc_cycles(source, args=()):
    return synthesize(source, flow="handelc").run(args=args).cycles


def test_handelc_charges_one_cycle_per_assignment():
    # prologue(1) + three assignments = 4 cycles.
    assert handelc_cycles(
        "int main(int a) { int x = a; x = x + 1; x = x * 2; return x; }", (3,)
    ) == 4


def test_handelc_expressions_are_free():
    # One huge expression still costs exactly one assignment cycle.
    one = handelc_cycles("int main(int a) { int x = a + 1; return x; }", (1,))
    big = handelc_cycles(
        "int main(int a) { int x = ((a + 1) * (a + 2)) ^ ((a + 3) * (a + 4)); return x; }",
        (1,),
    )
    assert one == big == 2


def test_handelc_control_costs_nothing():
    # if/else steers between single-assignment branches: 1 (prologue) +
    # 1 (x init) + 1 (branch assignment) = 3 cycles either way.
    source = """
    int main(int a) {
        int x = 0;
        if (a > 0) { x = 1; } else { x = 2; }
        return x;
    }
    """
    assert handelc_cycles(source, (5,)) == 3
    assert handelc_cycles(source, (-5,)) == 3


def test_handelc_loop_costs_assignments_only():
    # Each iteration: body assignment + step assignment = 2 cycles.
    # Total: prologue + s-init + i-init + 4 * 2 = 11.
    source = "int main() { int s = 0; for (int i = 0; i < 4; i++) { s += i; } return s; }"
    assert handelc_cycles(source) == 11


def test_handelc_delay_takes_its_cycles():
    base = handelc_cycles("int main() { int x = 1; return x; }")
    delayed = handelc_cycles("int main() { int x = 1; delay(5); return x; }")
    assert delayed == base + 5


def test_handelc_par_runs_branches_in_lockstep():
    sequential = handelc_cycles(
        "int main(int a) { int x = 0; int y = 0; x = a + 1; y = a + 2; return x + y; }",
        (1,),
    )
    parallel = handelc_cycles(
        "int main(int a) { int x = 0; int y = 0; par { x = a + 1; y = a + 2; } return x + y; }",
        (1,),
    )
    assert parallel == sequential - 1  # two assignments share one cycle


def test_handelc_zero_time_loop_rejected():
    with pytest.raises(UnsupportedFeature) as excinfo:
        synthesize("int main(int a) { while (a > 0) { } return 0; }", flow="handelc")
    assert "zero-time" in str(excinfo.value)


def test_handelc_par_with_control_flow_rejected():
    with pytest.raises(UnsupportedFeature):
        synthesize(
            """
            int main(int a) {
                int x = 0; int y = 0;
                par {
                    x = 1;
                    seq { while (y < a) { y = y + 1; } }
                }
                return x + y;
            }
            """,
            flow="handelc",
        )


def test_handelc_eager_expressions_documented_semantics():
    # && evaluates both sides in hardware: no trap because there is no
    # division; the result still matches C's value semantics.
    result = synthesize(
        "int main(int a, int b) { return (a > 0 && b > 0) ? 1 : 0; }",
        flow="handelc",
    ).run(args=(1, 0))
    assert result.value == 0


# ---------------------------------------------------------------------------
# Transmogrifier C: one cycle per loop iteration and function call
# ---------------------------------------------------------------------------


def test_transmogrifier_iteration_costs_one_cycle():
    source = "int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i * 7; } return s; }"
    result = synthesize(source, flow="transmogrifier").run()
    baseline = synthesize(
        "int main() { int s = 0; for (int i = 0; i < 20; i++) { s += i * 7; } return s; }",
        flow="transmogrifier",
    ).run()
    assert baseline.cycles - result.cycles == 10  # exactly 1 cycle/iteration


def test_transmogrifier_function_calls_cost_a_cycle():
    inlined_only = synthesize(
        "int main(int a) { return a + 1 + (a + 1); }", flow="transmogrifier"
    ).run(args=(3,))
    with_calls = synthesize(
        "int f(int x) { return x + 1; } int main(int a) { return f(a) + f(a); }",
        flow="transmogrifier",
    ).run(args=(3,))
    assert with_calls.value == inlined_only.value
    # Each call marks a one-cycle boundary, and the boundary also stops the
    # surrounding expression from chaining through it: one boundary state
    # per call plus the split body states.
    assert inlined_only.cycles == 1
    assert with_calls.cycles == 4


def test_transmogrifier_straight_line_is_single_cycle():
    result = synthesize(
        "int main(int a) { int x = a * 3; int y = x + 7; int z = y ^ a; return z; }",
        flow="transmogrifier",
    ).run(args=(5,))
    assert result.cycles == 1


def test_transmogrifier_clock_stretches_with_chain_depth():
    shallow = synthesize(
        "int main(int a) { return a + 1; }", flow="transmogrifier"
    ).design.cost()
    deep = synthesize(
        "int main(int a) { return ((((a * 3) * 5) * 7) * 11) * 13; }",
        flow="transmogrifier",
    ).design.cost()
    assert deep.clock_ns > shallow.clock_ns * 3


def test_transmogrifier_rejects_extensions():
    for source in (
        "int main() { par { int x = 1; } return 0; }",
        "chan<int> c; int main() { return recv(c); }",
        "int main() { within (1) { int x = 1; } return 0; }",
    ):
        with pytest.raises(UnsupportedFeature):
            synthesize(source, flow="transmogrifier")


# ---------------------------------------------------------------------------
# HardwareC: in-language timing constraints
# ---------------------------------------------------------------------------


def test_hardwarec_honors_feasible_constraint():
    result = synthesize(
        """
        int main(int a, int b) {
            int x = 0;
            within (2) { x = a + b; x = x * 3; }
            return x;
        }
        """,
        flow="hardwarec",
    ).run(args=(4, 5))
    assert result.value == 27


def test_hardwarec_infeasible_constraint_raises():
    source = """
    int main(int a) {
        int x = 0;
        within (1) {
            x = a / 3;
            x = x / 5;
        }
        return x;
    }
    """
    with pytest.raises(ConstraintInfeasible):
        synthesize(source, flow="hardwarec")


def test_c2verilog_ignores_within_by_policy():
    # Same constraint-breaking program compiles fine under C2Verilog?  No:
    # C2Verilog rejects `within` outright (constraints are compile options).
    with pytest.raises(UnsupportedFeature):
        synthesize(
            "int main(int a) { within (1) { int x = a / 3; } return 0; }",
            flow="c2verilog",
        )


# ---------------------------------------------------------------------------
# SpecC refinement, Bach C untimed, Cyber restrictions
# ---------------------------------------------------------------------------


def test_specc_refinement_trades_cycles_for_area():
    source = """
    int main(int a, int b, int c, int d) {
        return a * b + c * d + a * d + b * c;
    }
    """
    spec = synthesize(source, flow="specc", refine="specification").design
    impl = synthesize(source, flow="specc", refine="implementation",
                      resources=ResourceSet(multiplier=1, alu=1)).design
    spec_run = spec.run(args=(1, 2, 3, 4))
    impl_run = impl.run(args=(1, 2, 3, 4))
    assert spec_run.value == impl_run.value == 24
    assert impl_run.cycles >= spec_run.cycles
    assert impl.cost().area_ge < spec.cost().area_ge


def test_specc_unknown_refinement_level():
    with pytest.raises(FlowError):
        synthesize("int main() { return 0; }", flow="specc", refine="rtl2")


def test_bachc_schedules_freely_beats_handelc_on_assignment_heavy_code():
    source = """
    int main(int a) {
        int t1 = a + 1;
        int t2 = a + 2;
        int t3 = a + 3;
        int t4 = a + 4;
        return t1 + t2 + t3 + t4;
    }
    """
    bach = synthesize(source, flow="bachc").run(args=(1,))
    handel = synthesize(source, flow="handelc").run(args=(1,))
    assert bach.value == handel.value
    assert bach.cycles < handel.cycles  # untimed semantics pack the adds


def test_cyber_rejects_pointers_and_recursion():
    with pytest.raises(UnsupportedFeature):
        synthesize("int main() { int x = 1; int *p = &x; return *p; }", flow="cyber")
    with pytest.raises(UnsupportedFeature):
        synthesize(
            "int f(int n) { if (n <= 0) { return 0; } return f(n - 1); }"
            " int main() { return f(3); }",
            flow="cyber",
        )


# ---------------------------------------------------------------------------
# C2Verilog breadth and CASH
# ---------------------------------------------------------------------------


def test_c2verilog_compiles_pointers_and_bounded_recursion():
    result = synthesize(
        """
        int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
        int main(int n) {
            int x = 10;
            int *p = &x;
            *p = fact(n);
            return x;
        }
        """,
        flow="c2verilog",
    ).run(args=(5,))
    assert result.value == 120


def test_c2verilog_pointer_analysis_toggle_changes_memories():
    source = """
    int buf[8];
    int main() {
        int *p = &buf[0];
        int s = 0;
        for (int i = 0; i < 8; i++) { s += *p; p = p + 1; }
        return s;
    }
    """
    analyzed = synthesize(source, flow="c2verilog", pointer_analysis=True).design
    naive = synthesize(source, flow="c2verilog", pointer_analysis=False).design
    assert analyzed.run().value == naive.run().value == 0
    assert analyzed.artifacts[0].plan.memory_symbol is None
    assert naive.artifacts[0].plan.memory_symbol is not None


def test_cash_reports_time_not_cycles():
    result = synthesize("int main(int a) { return a * a + 1; }",
                        flow="cash").run(args=(6,))
    assert result.value == 37
    assert result.cycles == 0
    assert result.time_ns > 0
    assert result.stats["ops_fired"] >= 2


def test_cash_dataflow_beats_balanced_clock_on_unbalanced_paths():
    # The synchronous flow pays the worst-case clock every cycle; the
    # asynchronous one finishes each op as fast as it actually is.
    source = "int main(int a) { int s = 0; for (int i = 0; i < 6; i++) { s += a ^ i; } return s; }"
    sync = synthesize(source, flow="c2verilog").run(args=(3,))
    async_result = synthesize(source, flow="cash").run(args=(3,))
    assert sync.value == async_result.value
    assert async_result.time_ns < sync.time_ns


def test_cash_cost_is_spatial():
    design = synthesize(
        "int main(int a) { return (a * a) + (a * 3) + (a * 5); }", flow="cash"
    ).design
    cost = design.cost()
    assert cost.functional_units == len(list(design.cdfg.iter_ops()))
    assert cost.clock_ns == 0.0


# ---------------------------------------------------------------------------
# Ocapi structural API
# ---------------------------------------------------------------------------


def test_ocapi_structural_accumulator():
    m = OcapiModule("accumulate")
    n = m.input("n")
    acc = m.register("acc")
    i = m.register("i")
    entry = m.entry
    loop = m.state("loop")
    done = m.state("done")
    entry.latch(acc, 0).latch(i, 0).goto(loop)
    next_i = loop.add(i, 1)
    loop.latch(acc, loop.add(acc, i)).latch(i, next_i)
    # The exit test is combinational in the same state, so it must use the
    # *next* value of i — exactly the D-input forwarding a designer wires.
    loop.branch(loop.lt(next_i, n), loop, done)
    done.done(done.read(acc))
    design = m.build()
    result = design.run(args=(10,))
    assert result.value == 45
    assert result.cycles == 12  # entry + 10 iterations + the done state
    assert design.cost().area_ge > 0


def test_ocapi_memory_and_select():
    m = OcapiModule("table")
    idx = m.input("idx")
    mem = m.memory("lut", size=4)
    out = m.register("out")
    entry = m.entry
    fill = m.state("fill")
    read = m.state("read")
    stop = m.state("stop")
    entry.goto(fill)
    fill.store(mem, 0, 10).store(mem, 1, 20).store(mem, 2, 30).store(mem, 3, 40)
    fill.goto(read)
    read.latch(out, read.load(mem, idx)).goto(stop)
    stop.done(stop.read(out))
    assert m.build().run(args=(2,)).value == 30


def test_ocapi_incomplete_state_rejected():
    m = OcapiModule("broken")
    m.entry  # creates a state with no transition
    with pytest.raises(FlowError):
        m.build()


def test_ocapi_compile_refuses_c_source():
    with pytest.raises(FlowError):
        synthesize("int main() { return 0; }", flow="ocapi")


# ---------------------------------------------------------------------------
# Cross-flow sanity
# ---------------------------------------------------------------------------


def test_all_flows_agree_on_simple_kernel():
    source = "int main(int a, int b) { int s = 0; for (int i = 0; i < 8; i++) { s += (a + i) * b; } return s; }"
    golden = run_source(source, args=(3, 2)).value
    for key in COMPILABLE:
        result = synthesize(source, flow=key).run(args=(3, 2))
        assert result.value == golden, key


def test_flow_results_expose_cost_and_stats():
    design = synthesize("int main(int a) { return a + 1; }", flow="hardwarec").design
    cost = design.cost()
    assert cost.area_ge > 0 and cost.clock_ns > 0 and cost.states >= 1
    result = design.run(args=(1,))
    assert "scheduler" in result.stats or "stall_cycles" in result.stats


# ---------------------------------------------------------------------------
# Simulation reuses the design's price
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flow", ["c2verilog", "handelc"])
def test_second_run_does_not_reprice_the_design(flow, monkeypatch):
    """``run`` reads the clock period from a price computed once; the
    public ``cost`` still prices afresh every call."""
    import repro.binding.datapath_cost as datapath_cost
    import repro.flows.scheduled as scheduled
    from repro.api import SynthesisOptions, synthesize

    design = synthesize(
        "int main(int n) { int s = 0; for (int i = 0; i < n; i++)"
        " { s = s + i; } return s; }",
        SynthesisOptions(flow=flow),
    ).design
    first = design.run(args=(6,))
    calls = []
    for module, name in ((scheduled, "bind_functional_units"),
                         (datapath_cost, "estimate_fsmd_cost")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name,
            lambda *a, _original=original, **k: calls.append(1)
            or _original(*a, **k),
        )
    second = design.run(args=(6,))
    assert calls == []
    assert second.time_ns == first.time_ns > 0
    design.cost(design.tech)
    assert calls
