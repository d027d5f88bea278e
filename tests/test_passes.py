"""CDFG optimization-pass tests."""

import dataclasses

import pytest

from repro.analysis.pointer import plan_pointers
from repro.ir import build_function, validate
from repro.ir.executor import execute
from repro.ir.ops import Branch, Const, Jump, OpKind, Ret, VarRead, VReg
from repro.ir.passes import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    inline_program,
    optimize_cdfg,
    simplify_cfg,
)
from repro.interp import run_program
from repro.lang import parse
from repro.lang.symtab import SymbolKind


def build(source, function="main"):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    return build_function(inlined.function(function), info), program, info


def check_equivalent(source, args=(), passes=None):
    cdfg, program, info = build(source)
    golden = run_program(program, info, "main", args)
    if passes is None:
        optimize_cdfg(cdfg)
    else:
        for p in passes:
            p(cdfg)
    validate(cdfg)
    assert execute(cdfg, args=args).value == golden.value
    return cdfg


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


def test_fold_constant_expression_tree():
    cdfg, _, _ = build("int main() { return (2 + 3) * 4 - 1; }")
    folded = fold_constants(cdfg)
    assert folded >= 3
    (block,) = cdfg.reachable_blocks()
    assert isinstance(block.terminator, Ret)
    assert isinstance(block.terminator.value, Const)
    assert block.terminator.value.value == 19


def test_fold_respects_machine_wrapping():
    cdfg = check_equivalent(
        "int main() { uint8 v = 200; v = v + 100; return v; }",
        passes=[fold_constants],
    )
    assert execute(cdfg).value == 44


def test_fold_algebraic_identities():
    cdfg, _, _ = build(
        "int main(int x) { return (x + 0) * 1 + (x & 0) + (x << 0); }"
    )
    fold_constants(cdfg)
    binaries = [op for op in cdfg.iter_ops() if op.kind is OpKind.BINARY]
    # Only the structural adds remain; identity ops vanished.
    assert all(op.op in ("+",) for op in binaries)
    assert execute(cdfg, args=(7,)).value == 14


def test_fold_multiply_by_zero():
    cdfg, _, _ = build("int main(int x) { return x * 0 + 5; }")
    fold_constants(cdfg)
    (block,) = cdfg.reachable_blocks()
    assert isinstance(block.terminator.value, Const)
    assert block.terminator.value.value == 5


def test_fold_never_folds_trapping_division():
    cdfg, _, _ = build("int main() { return 1 / 0; }")
    fold_constants(cdfg)  # must not raise, must keep the op
    assert any(
        op.kind is OpKind.BINARY and op.op == "/" for op in cdfg.iter_ops()
    )


def test_fold_constant_branch_to_jump():
    cdfg, _, _ = build("int main() { if (1 < 2) { return 7; } return 8; }")
    fold_constants(cdfg)
    assert not any(
        isinstance(b.terminator, Branch) for b in cdfg.reachable_blocks()
    )


def test_fold_constant_select():
    cdfg, _, _ = build("int main(int x) { return true ? x : x + 5; }")
    folded = fold_constants(cdfg)
    assert folded >= 1
    assert not any(op.kind is OpKind.SELECT for op in cdfg.iter_ops())


# ---------------------------------------------------------------------------
# CSE
# ---------------------------------------------------------------------------


def test_cse_merges_identical_expressions():
    cdfg, _, _ = build(
        "int main(int a, int b) { return (a * b + 1) + (a * b + 1); }"
    )
    removed = eliminate_common_subexpressions(cdfg)
    assert removed == 2  # the duplicated * and +1
    assert execute(cdfg, args=(3, 4)).value == 26


def test_cse_merges_repeated_loads_without_store():
    cdfg, _, _ = build(
        "int g[4]; int main(int i) { return g[i] + g[i]; }"
    )
    removed = eliminate_common_subexpressions(cdfg)
    assert removed == 1
    loads = [op for op in cdfg.iter_ops() if op.kind is OpKind.LOAD]
    assert len(loads) == 1


def test_cse_respects_intervening_store():
    cdfg = check_equivalent(
        """
        int g[4];
        int main(int i) {
            int before = g[1];
            g[1] = before + 5;
            int after = g[1];
            return before * 100 + after;
        }
        """,
        args=(0,),
        passes=[eliminate_common_subexpressions],
    )
    loads = [op for op in cdfg.iter_ops() if op.kind is OpKind.LOAD]
    assert len(loads) == 2  # must NOT merge across the store


def test_cse_distinguishes_types():
    cdfg, _, _ = build(
        "int main(int a) { uint8 small = a + 1; int wide = a + 1; return small + wide; }"
    )
    eliminate_common_subexpressions(cdfg)
    assert execute(cdfg, args=(254,)).value == 255 + 255


# ---------------------------------------------------------------------------
# DCE
# ---------------------------------------------------------------------------


def test_dce_removes_unused_computation():
    cdfg, _, _ = build(
        "int main(int a) { int unused = a * 37 + 5; return a; }"
    )
    removed = eliminate_dead_code(cdfg)
    assert removed >= 2
    assert cdfg.op_count() == 0


def test_dce_keeps_side_effects():
    cdfg, _, _ = build(
        "int g[2]; int main(int a) { g[0] = a * 3; return a; }"
    )
    eliminate_dead_code(cdfg)
    assert any(op.kind is OpKind.STORE for op in cdfg.iter_ops())


def test_dce_keeps_global_latches():
    cdfg, _, _ = build("int g; int main(int a) { g = a + 1; return a; }")
    eliminate_dead_code(cdfg)
    assert any("g" == var.name for b in cdfg.blocks for var in b.var_writes)


def test_dce_removes_dead_register_chain():
    # b depends on a; neither is returned, so both latches must die.
    cdfg, _, _ = build(
        "int main(int x) { int a = x * 2; int b = a + 3; return x; }"
    )
    eliminate_dead_code(cdfg)
    assert cdfg.op_count() == 0
    assert all(not b.var_writes for b in cdfg.blocks)


def _oracle_read_vars(cdfg):
    read = set()
    for block in cdfg.blocks:
        operands = [o for op in block.ops for o in op.operands]
        terminator = block.terminator
        if isinstance(terminator, Branch):
            operands.append(terminator.cond)
        elif isinstance(terminator, Ret) and terminator.value is not None:
            operands.append(terminator.value)
        operands.extend(block.var_writes.values())
        read.update(o.var for o in operands if isinstance(o, VarRead))
    return read


def _oracle_dce(cdfg):
    """The whole-function re-sweeping DCE the worklist pass replaced:
    delete unread latches, sweep each block backwards, repeat until
    nothing changes."""
    removed = 0
    changed = True
    while changed:
        changed = False
        keep = _oracle_read_vars(cdfg)
        keep.update(s for s in cdfg.registers if s.kind is SymbolKind.GLOBAL)
        keep.update(cdfg.params)
        for block in cdfg.blocks:
            for var in [v for v in block.var_writes if v not in keep]:
                del block.var_writes[var]
                removed += 1
                changed = True
        for block in cdfg.blocks:
            live = set()
            roots = list(block.var_writes.values())
            if isinstance(block.terminator, Branch):
                roots.append(block.terminator.cond)
            elif isinstance(block.terminator, Ret):
                roots.append(block.terminator.value)
            live.update(o for o in roots if isinstance(o, VReg))
            for op in reversed(block.ops):
                if op.has_side_effect() or op.dest in live:
                    live.update(o for o in op.operands if isinstance(o, VReg))
            before = len(block.ops)
            block.ops = [op for op in block.ops
                         if op.has_side_effect() or op.dest in live]
            if len(block.ops) != before:
                removed += before - len(block.ops)
                changed = True
    read = _oracle_read_vars(cdfg)
    cdfg.registers = [
        s for s in cdfg.registers
        if s in read or s.kind is SymbolKind.GLOBAL or s in cdfg.params
        or any(s in b.var_writes for b in cdfg.blocks)
    ]
    return removed


def _full_dump(cdfg):
    registers = ", ".join(s.unique_name for s in cdfg.registers)
    return "\n".join([registers] + [b.dump() for b in cdfg.blocks])


def _dce_against_oracle(cdfg):
    """Run the oracle, rewind, run the pass; both must leave the same
    CDFG and return the same count, and a second call must delete
    nothing."""
    # DCE only drops list and dict entries, so a shallow snapshot rewinds.
    blocks = [(b, list(b.ops), dict(b.var_writes)) for b in cdfg.blocks]
    registers = list(cdfg.registers)
    expected = (_oracle_dce(cdfg), _full_dump(cdfg))
    for block, ops, var_writes in blocks:
        block.ops, block.var_writes = ops, var_writes
    cdfg.registers = registers
    got = eliminate_dead_code(cdfg)
    assert (got, _full_dump(cdfg)) == expected
    # Idempotent: the fixpoint driver skips DCE right after its own change.
    assert eliminate_dead_code(cdfg) == 0
    assert _full_dump(cdfg) == expected[1]
    return got


@pytest.mark.parametrize("source", [
    # b's only read is a's latch: deleting one latch exposes the next.
    "int main(int x) { int a = x * 2; int b = a + 3; int c = b * b;"
    " return x; }",
    # i and s feed only each other across the loop: both stay.
    "int main(int n) { int s = 1; int t = 0; for (int i = 0; i < n; i++)"
    " { s = s * 3 + t; t = s ^ i; } return n; }",
    # A dead latch in one arm, a live one in the other.
    "int g; int main(int n) { int d = 0; if (n > 2) { d = n * 5; g = d; }"
    " else { d = n - 1; } int e = d + 7; return n; }",
], ids=["latch-chain", "feeding-cycle", "branch-arms"])
def test_dce_matches_the_resweeping_oracle(source):
    cdfg, _, _ = build(source)
    _dce_against_oracle(cdfg)


def test_dce_matches_the_resweeping_oracle_on_the_suite(monkeypatch):
    """Every DCE call the mid-end makes over the suite x compilable flows x
    levels 1-3 deletes what the old re-sweeping algorithm deleted: the
    same CDFG afterwards and the same count, and a second call deletes
    nothing.  The change-driven driver skips the calls that could delete
    nothing, so the floor is on the calls that delete something.

    Cones runs the mid-end on rolled CDFGs; the fully unrolled ones its
    old pipeline built (``tests/cones_oracle.py``) go through the same
    levels too, since they are where most of the deleting calls are."""
    from repro.api import SynthesisOptions, synthesize
    from repro.flows import COMPILABLE
    from repro.flows.base import FlowError
    from repro.flows.cones import ConesFlow
    from repro.ir.passes import fixpoint
    from repro.lang import parse
    from repro.workloads import WORKLOADS
    from tests.cones_oracle import _oracle_cones

    calls = []

    def checked(cdfg, liveness):
        calls.append(_dce_against_oracle(cdfg))
        return calls[-1]

    for level in (1, 2, 3):
        passes, bound = fixpoint.OPT_PIPELINES[level]
        passes = tuple(
            dataclasses.replace(spec, run=checked) if spec.name == "dce"
            else spec for spec in passes)
        monkeypatch.setitem(fixpoint.OPT_PIPELINES, level, (passes, bound))
    for workload in WORKLOADS:
        for flow in COMPILABLE:
            for level in (1, 2, 3):
                try:
                    synthesize(workload.source,
                               SynthesisOptions(flow=flow, opt_level=level))
                except FlowError:
                    pass
        program, info = parse(workload.source)
        for level in (1, 2, 3):
            try:
                _oracle_cones(ConesFlow(), program, info, opt_level=level)
            except FlowError:
                pass
    assert sum(1 for c in calls if c) >= 69 and sum(calls) > 1000


# ---------------------------------------------------------------------------
# CFG simplification
# ---------------------------------------------------------------------------


def test_simplify_merges_straight_line_blocks():
    cdfg = check_equivalent(
        """
        int main(int a) {
            int x = 0;
            if (a > 0) { x = 1; } else { x = 2; }
            int y = x + 1;
            int z = y * 2;
            return z;
        }
        """,
        args=(5,),
    )
    # The straight-line tail (y, z, return) collapses into the join block,
    # leaving just the diamond: entry, then, else, join.
    assert len(cdfg.reachable_blocks()) <= 4


def test_simplify_threads_empty_blocks():
    cdfg, program, info = build(
        "int main(int a) { if (a > 0) { } else { } return a; }"
    )
    optimize_cdfg(cdfg)
    assert len(cdfg.reachable_blocks()) == 1


def test_merge_rewrites_varreads_to_latched_values():
    # After merging `x = a + 1` with `return x * 2`, the multiply must see
    # the new x, not the stale register.
    cdfg = check_equivalent(
        "int main(int a) { int x = a + 1; wait(); return x; }",
        args=(4,),
    )
    assert execute(cdfg, args=(4,)).value == 5


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "source,args,expected",
    [
        ("int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; }", (), 45),
        ("int main(int a) { return a != 0 && 100 / a > 3 ? 1 : 0; }", (9,), 1),
        ("int g[8]; int main() { for (int i = 0; i < 8; i++) { g[i] = i; } int s = 0; for (int i = 0; i < 8; i++) { s += g[i]; } return s; }", (), 28),
    ],
)
def test_optimize_preserves_semantics(source, args, expected):
    cdfg = check_equivalent(source, args=args)
    assert execute(cdfg, args=args).value == expected


def test_optimize_reaches_fixed_point_and_reports():
    cdfg, _, _ = build(
        "int main() { int a = 2 * 3; int b = a + a; if (b > 100) { return 0; } return b; }"
    )
    report = optimize_cdfg(cdfg)
    assert report.total() > 0
    assert report.pass_counts["constfold"] > 0
    assert report.iterations >= 2  # last iteration confirms quiescence
    assert report.converged
    second = optimize_cdfg(cdfg)
    assert second.total() == 0
