"""CDFG builder tests."""

import pytest

from repro.analysis.pointer import plan_pointers
from repro.ir import BuildError, build_function, validate
from repro.ir.cdfg import BasicBlock
from repro.ir.ops import Branch, Const, Jump, OpKind, Ret, VarRead
from repro.ir.passes import inline_program
from repro.interp import run_program
from repro.lang import parse
from tests.cdfg_oracle import execute


def build(source, function="main", enable_analysis=True):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    fn = inlined.function(function)
    plan = plan_pointers(fn, enable_analysis=enable_analysis)
    return build_function(fn, info, plan), info, plan


def ops_of_kind(cdfg, kind):
    return [op for op in cdfg.iter_ops() if op.kind is kind]


def test_straight_line_single_block():
    cdfg, _, _ = build("int main(int a, int b) { return a * b + 1; }")
    blocks = cdfg.reachable_blocks()
    assert len(blocks) == 1
    assert isinstance(blocks[0].terminator, Ret)


def test_validate_passes_on_all_built_graphs():
    cdfg, _, _ = build(
        """
        int main(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) { s += i; } else { s -= 1; }
            }
            return s;
        }
        """
    )
    validate(cdfg)  # raises on malformed graphs


def test_if_produces_branch_terminator():
    cdfg, _, _ = build("int main(int a) { if (a > 0) { return 1; } return 2; }")
    branches = [
        b for b in cdfg.reachable_blocks() if isinstance(b.terminator, Branch)
    ]
    assert len(branches) == 1


def test_trap_free_ternary_becomes_select():
    cdfg, _, _ = build("int main(int a, int b) { return a < b ? a : b; }")
    assert len(ops_of_kind(cdfg, OpKind.SELECT)) == 1
    assert len(cdfg.reachable_blocks()) == 1


def test_trapping_ternary_becomes_control_flow():
    cdfg, _, _ = build("int main(int a) { return a != 0 ? 10 / a : 0; }")
    assert len(cdfg.reachable_blocks()) > 1
    assert not ops_of_kind(cdfg, OpKind.SELECT)


def test_short_circuit_with_division_builds_branches():
    cdfg, _, _ = build(
        "int main(int a) { int d = 0; if (a != 0 && 10 / a > 1) { d = 1; } return d; }"
    )
    assert len(cdfg.reachable_blocks()) >= 3


def test_safe_short_circuit_is_eager():
    cdfg, _, _ = build("int main(int a, int b) { return (a > 0 && b > 0) ? 1 : 0; }")
    assert len(cdfg.reachable_blocks()) == 1


def test_array_accesses_become_load_store():
    cdfg, _, _ = build(
        "int g[4]; int main(int i) { g[i] = 5; return g[i]; }"
    )
    assert len(ops_of_kind(cdfg, OpKind.STORE)) == 1
    assert len(ops_of_kind(cdfg, OpKind.LOAD)) == 1
    assert len(cdfg.arrays) == 1


def test_within_tags_ops_with_constraint_group():
    cdfg, _, _ = build(
        "int main(int a) { int x = 0; within (2) { x = a + 1; x = x * 2; } return x; }"
    )
    assert len(cdfg.constraints) == 1
    group = cdfg.constraints[0].group
    tagged = [op for op in cdfg.iter_ops() if op.constraint == group]
    assert tagged


def test_wait_and_delay_become_fences():
    cdfg, _, _ = build("int main() { wait(); delay(3); return 0; }")
    assert len(ops_of_kind(cdfg, OpKind.BARRIER)) == 1
    delays = ops_of_kind(cdfg, OpKind.DELAY)
    assert len(delays) == 1 and delays[0].cycles == 3


def test_send_recv_reference_channels():
    cdfg, _, _ = build(
        "chan<int> c; int main() { send(c, 1); return recv(c); }"
    )
    assert len(ops_of_kind(cdfg, OpKind.SEND)) == 1
    assert len(ops_of_kind(cdfg, OpKind.RECV)) == 1


def test_residual_call_rejected():
    program, info = parse("int f() { return 1; } int main() { return f(); }")
    with pytest.raises(BuildError):
        build_function(program.function("main"), info)


def test_globals_tracked():
    cdfg, _, _ = build("int g; int main() { g = g + 1; return g; }")
    names = {s.name for s in cdfg.globals_written}
    assert "g" in names


def test_resolved_pointer_becomes_index_register():
    source = """
    int buf[8];
    int main() {
        int *p = &buf[2];
        *p = 7;
        return buf[2];
    }
    """
    cdfg, _, plan = build(source)
    assert plan.mode == "resolved"
    # No unified memory: accesses stay on buf's own memory.
    assert plan.memory_symbol is None
    array_names = {a.name for a in cdfg.arrays}
    assert array_names == {"buf"}


def test_unresolved_pointers_use_unified_memory():
    source = """
    int a[4];
    int b[4];
    int main(int which) {
        int *p = which != 0 ? &a[0] : &b[0];
        *p = 3;
        return a[0] + b[0];
    }
    """
    cdfg, _, plan = build(source)
    assert plan.memory_symbol is not None
    assert {s.name for s in plan.in_memory} == {"a", "b"}


def test_disabled_analysis_forces_unified_memory():
    source = """
    int buf[8];
    int main() {
        int *p = &buf[0];
        return *p;
    }
    """
    _, _, plan = build(source, enable_analysis=False)
    assert plan.memory_symbol is not None


def test_values_crossing_lowered_ternary_are_rerouted():
    # The LOAD forces the ternary into control flow; `base` is computed
    # before it and used after it, so it must travel through a register.
    source = """
    int t[4] = {1, 2, 3, 4};
    int main(int a) {
        return (a * 3) + (a > 0 ? t[a & 3] : 0);
    }
    """
    cdfg, info, plan = build(source)
    validate(cdfg)
    result = execute(
        cdfg, args=(2,),
        memory_init={cdfg.arrays[0]: [1, 2, 3, 4]},
    )
    assert result.value == 2 * 3 + 3


def test_loop_redeclared_scalar_rezeroed():
    source = """
    int main() {
        int acc = 0;
        for (int i = 0; i < 3; i++) {
            int fresh;
            acc += fresh;
            fresh = 9;
        }
        return acc;
    }
    """
    cdfg, info, _ = build(source)
    assert execute(cdfg).value == 0


def test_executor_matches_interpreter_on_arg_sweep():
    source = """
    int main(int n) {
        int s = 0;
        int i = 0;
        do { s += i * i; i++; } while (i < n);
        return s;
    }
    """
    program, info = parse(source)
    cdfg, _, _ = build(source)
    for n in (1, 2, 5, 9):
        golden = run_program(program, info, "main", (n,))
        assert execute(cdfg, args=(n,)).value == golden.value


def test_par_branches_flatten_into_dataflow():
    cdfg, _, _ = build(
        "int main(int a) { int x = 0; int y = 0; par { x = a + 1; y = a * 2; } return x + y; }"
    )
    assert len(cdfg.reachable_blocks()) == 1  # pure dataflow, no control
