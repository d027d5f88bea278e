"""Experiment-shape integration tests: each of the paper's quantitative
claims must hold on our workloads (the benchmarks print the full tables;
these tests pin the *directions*)."""

import pytest

from repro.analysis import compare_memory_models, ilp_profile
from repro.flows import compile_flow, run_flow
from repro.ir import build_function
from repro.ir.passes import inline_program, optimize_cdfg
from repro.lang import parse
from repro.scheduling import ResourceSet, find_pipelineable_loops, modulo_schedule
from repro.workloads import RECODING_PAIRS, get, unrolled_program


def cdfg_of(source, function="main"):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    cdfg = build_function(inlined.function(function), info)
    optimize_cdfg(cdfg)
    return cdfg


# ---------------------------------------------------------------------------
# E2: ILP plateaus around ~5 for control-dominated code (Wall)
# ---------------------------------------------------------------------------


def test_e2_control_code_ilp_plateaus_low():
    w = get("parser")
    profile = ilp_profile("parser", cdfg_of(w.source), args=w.args,
                          windows=(4, 16, 64))
    # Control-dominated code without speculation sits in Wall's low range.
    assert profile.no_speculation_limit < 6.0
    # The window curve saturates: quadrupling the window past 16 buys
    # almost nothing.
    gain = profile.by_window[64] / profile.by_window[16]
    assert gain < 1.6


def test_e2_regular_code_exceeds_the_plateau_with_oracle():
    w = get("dot16")
    profile = ilp_profile("dot16", cdfg_of(w.source), args=w.args, windows=(64,))
    assert profile.dataflow_limit > 6.0  # regular dataflow is the exception
    assert profile.no_speculation_limit < profile.dataflow_limit


# ---------------------------------------------------------------------------
# E3: pipelining works on regular loops, not in general
# ---------------------------------------------------------------------------


def best_loop_speedup(source, resources):
    cdfg = cdfg_of(source)
    loops = find_pipelineable_loops(cdfg)
    assert loops
    return max(modulo_schedule(l, resources).speedup() for l in loops)


def test_e3_regular_loop_pipelines_control_loop_does_not():
    resources = ResourceSet(alu=4, multiplier=2)
    regular = best_loop_speedup(get("dot16").source, resources)
    control = best_loop_speedup(get("gcd").source, resources)
    assert regular >= 2.0
    assert control <= 1.1
    assert regular > 1.8 * control


# ---------------------------------------------------------------------------
# E4: implicit timing rules force recoding
# ---------------------------------------------------------------------------


def test_e4_handelc_rewards_fused_assignments():
    pair = RECODING_PAIRS[0]
    stepped = run_flow(pair.stepped, args=pair.args, flow="handelc")
    fused = run_flow(pair.fused, args=pair.args, flow="handelc")
    assert stepped.value == fused.value
    assert fused.cycles < stepped.cycles  # fewer assignments = fewer cycles
    # ... but the fused chain drags the achievable clock down.
    stepped_clock = compile_flow(pair.stepped, flow="handelc").cost().clock_ns
    fused_clock = compile_flow(pair.fused, flow="handelc").cost().clock_ns
    assert fused_clock >= stepped_clock


def test_e4_transmogrifier_rewards_unrolling():
    w = get("dot16")
    base = run_flow(w.source, args=w.args, flow="transmogrifier")
    program, info, count = unrolled_program(w.source, factor=4)
    from repro.flows import get_flow

    unrolled_design = get_flow("transmogrifier").compile(program, info, "main")
    unrolled = unrolled_design.run(args=w.args)
    assert count == 1
    assert unrolled.value == base.value
    assert unrolled.cycles < base.cycles  # 4 body copies per iteration


def test_e4_scheduled_flow_needs_no_recoding():
    # Bach C's compiler scheduling makes stepped and fused within one cycle
    # of each other: the designer does not recode for timing.
    pair = RECODING_PAIRS[0]
    stepped = run_flow(pair.stepped, args=pair.args, flow="bachc")
    fused = run_flow(pair.fused, args=pair.args, flow="bachc")
    assert stepped.value == fused.value
    assert abs(stepped.cycles - fused.cycles) <= max(2, fused.cycles // 4)


# ---------------------------------------------------------------------------
# E5: explicit concurrency vs compiler-found ILP
# ---------------------------------------------------------------------------


def test_e5_par_beats_sequential_under_handelc():
    sequential = """
    int main(int a) {
        int x = 0; int y = 0; int z = 0;
        x = a * 3;
        y = a * 5;
        z = a * 7;
        return x + y + z;
    }
    """
    parallel = """
    int main(int a) {
        int x = 0; int y = 0; int z = 0;
        par { x = a * 3; y = a * 5; z = a * 7; }
        return x + y + z;
    }
    """
    seq_run = run_flow(sequential, args=(2,), flow="handelc")
    par_run = run_flow(parallel, args=(2,), flow="handelc")
    assert seq_run.value == par_run.value
    assert par_run.cycles == seq_run.cycles - 2  # 3 assignments -> 1 cycle


def test_e5_compiler_flow_finds_the_same_parallelism_without_par():
    # C2Verilog extracts the ILP that Handel-C needed annotations for.
    sequential = """
    int main(int a) {
        int x = a * 3;
        int y = a * 5;
        int z = a * 7;
        return x + y + z;
    }
    """
    result = run_flow(sequential, args=(2,), flow="c2verilog",
                      resources=ResourceSet(multiplier=4, alu=4))
    assert result.value == 30
    assert result.cycles <= 3


# ---------------------------------------------------------------------------
# E6: Cones flattening explodes area with problem size
# ---------------------------------------------------------------------------


def test_e6_cones_area_grows_superlinearly_vs_fsmd_constant():
    template = """
    int data[{n}];
    int main(int x) {{
        int s = 0;
        for (int i = 0; i < {n}; i++) {{
            data[i] = x + i;
            s += data[i] * 3;
        }}
        return s;
    }}
    """
    cones_areas = []
    fsmd_areas = []
    for n in (4, 8, 16):
        source = template.format(n=n)
        cones_areas.append(compile_flow(source, flow="cones").cost().area_ge)
        fsmd_areas.append(compile_flow(source, flow="c2verilog").cost().area_ge)
    assert cones_areas[2] > cones_areas[0] * 3     # grows with unrolling
    assert fsmd_areas[2] < fsmd_areas[0] * 2.5     # near-constant datapath


# ---------------------------------------------------------------------------
# E7: asynchronous completion tracks the dataflow critical path
# ---------------------------------------------------------------------------


def test_e7_async_beats_clocked_on_unbalanced_work():
    w = get("parser")
    sync = run_flow(w.source, args=w.args, flow="c2verilog")
    async_result = run_flow(w.source, args=w.args, flow="cash")
    assert sync.value == async_result.value
    assert async_result.time_ns < sync.time_ns


# ---------------------------------------------------------------------------
# E8: the monolithic memory serializes
# ---------------------------------------------------------------------------


def test_e8_monolithic_memory_slows_parallel_arrays():
    source = """
    int a[24];
    int b[24];
    int c[24];
    int main() {
        for (int i = 0; i < 24; i++) { c[i] = a[i] * b[i] + a[i]; }
        return c[23];
    }
    """
    comparison = compare_memory_models(source)
    assert comparison.slowdown > 1.15


# ---------------------------------------------------------------------------
# E10: pointer analysis buys back the partitioned memories
# ---------------------------------------------------------------------------


def test_e10_pointer_analysis_recovers_cycles():
    w = get("ptr_sum")
    with_analysis = run_flow(w.source, args=w.args, flow="c2verilog",
                             pointer_analysis=True)
    without = run_flow(w.source, args=w.args, flow="c2verilog",
                       pointer_analysis=False)
    assert with_analysis.value == without.value
    assert with_analysis.cycles <= without.cycles
