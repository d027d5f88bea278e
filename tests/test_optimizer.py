"""The opt-level differential test tier.

The optimizing mid-end (liveness, dead-variable elimination, chain
load/store elimination, copy propagation, the fixpoint driver) is only
trustworthy if every transformation is backed by machine-checked
semantic equivalence.  This suite provides that backing in layers:

1. unit tests for the liveness analysis and each new pass's safety
   rules (aliasing, fences, global arrays, raw load values);
2. a **per-pass differential harness**: the CDFG executor — the
   interpreter golden model at IR level — runs each fuzz-grammar
   program before and after *each individual pass*, and after the full
   fixpoint pipeline, asserting bit-identical observables (return
   value, global registers, memories, channel traffic);
3. the fixpoint-convergence properties: bounded iterations on every
   generated program, and idempotence (a second run from the converged
   CDFG is a no-op);
4. the opt_level plumbing: level selection through SynthesisOptions /
   CellTask identity, and cross-level agreement of full flow runs.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.pointer import plan_pointers
from repro.api import DEFAULT_OPT_LEVEL, SynthesisOptions, synthesize
from repro.flows import COMPILABLE
from repro.fuzz import feature_mask, generate_program
from repro.ir import build_function, compute_liveness, validate
from repro.ir.cdfg import FunctionCDFG
from repro.ir.liveness import block_use_def, op_var_uses, op_vreg_uses
from repro.ir.ops import OpKind
from repro.ir.passes import (
    DEFAULT_MAX_ITERATIONS,
    FixpointReport,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    eliminate_dead_variables,
    eliminate_load_store_chains,
    fold_constants,
    inline_program,
    optimize_cdfg,
    propagate_copies,
    run_fixpoint,
    simplify_cfg,
)
from repro.lang import InterpError, parse
from repro.lang.symtab import SymbolKind
from repro.runner import CellTask
from repro.runner.engine import suite_tasks
from repro.trace import TraceContext
from tests.cdfg_oracle import execute

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FLOWS = sorted(COMPILABLE)

#: Every pass the fixpoint driver runs, individually harnessed.
_PASSES = [
    ("constfold", fold_constants),
    ("simplify_cfg", simplify_cfg),
    ("cse", eliminate_common_subexpressions),
    ("copyprop", propagate_copies),
    ("memchain", eliminate_load_store_chains),
    ("deadvar", eliminate_dead_variables),
    ("dce", eliminate_dead_code),
]


def build(source, function="main"):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    fn = inlined.function(function)
    plan = plan_pointers(fn)
    return build_function(fn, info, plan), plan, program, info


def _initial_state(cdfg: FunctionCDFG, plan, info):
    register_init = {}
    memory_init = {}
    for symbol in cdfg.registers:
        if symbol.kind is SymbolKind.GLOBAL:
            init = info.global_inits.get(symbol.name)
            if isinstance(init, int):
                register_init[symbol] = init
    for array in cdfg.arrays:
        if array.kind is SymbolKind.GLOBAL:
            init = info.global_inits.get(array.name)
            if isinstance(init, list):
                memory_init[array] = list(init)
    if plan.memory_symbol is not None:
        memory_init[plan.memory_symbol] = plan.initial_memory(
            info.global_inits
        )
    return register_init, memory_init


def observe(cdfg, plan, info, args, global_names, max_blocks=100_000):
    """Run the CDFG executor and collect every observable: return value,
    global registers, all memories, and scripted channel traffic."""
    register_init, memory_init = _initial_state(cdfg, plan, info)
    sends = []
    recv_script = itertools.count(1)
    result = execute(
        cdfg,
        args=args,
        register_init=register_init,
        memory_init={k: list(v) for k, v in memory_init.items()},
        on_send=lambda ch, v: sends.append((ch.unique_name, v)),
        on_recv=lambda ch: next(recv_script) % 97,
        max_blocks=max_blocks,
    )
    return {
        "value": result.value,
        "globals": {
            name: result.registers[name]
            for name in global_names
            if name in result.registers
        },
        "memories": {k: list(v) for k, v in result.memories.items()},
        "sends": sends,
    }


def _global_names(cdfg):
    return sorted(
        s.unique_name
        for s in cdfg.registers
        if s.kind is SymbolKind.GLOBAL
    )


def assert_pass_preserves(cdfg, plan, info, args, pass_fn, label=""):
    """The differential core: observables before == observables after.

    If the baseline run traps, the pass may legitimately remove the
    trapping operation (dead traps are not observable, matching DCE's
    long-standing stance) — the optimized run must then either trap the
    same way or complete; either way ``validate`` must still hold.
    """
    names = _global_names(cdfg)
    try:
        before = observe(cdfg, plan, info, args, names)
    except InterpError:
        pass_fn(cdfg)
        validate(cdfg)
        try:
            observe(cdfg, plan, info, args, names)
        except InterpError:
            pass
        return None
    pass_fn(cdfg)
    validate(cdfg)
    after = observe(cdfg, plan, info, args, names)
    assert after == before, f"{label}: observables drifted"
    return before


# ---------------------------------------------------------------------------
# Liveness analysis
# ---------------------------------------------------------------------------


def test_liveness_loop_variable_is_live_around_the_loop():
    cdfg, _, _, _ = build(
        "int main(int n) { int s = 0;"
        " for (int i = 0; i < n; i++) { s += i; } return s; }"
    )
    liveness = compute_liveness(cdfg)
    # The loop header reads i and s, so both are live-out of the body
    # block that latches them.
    latch_blocks = [
        b for b in cdfg.reachable_blocks()
        if any(v.name == "i" for v in b.var_writes)
    ]
    assert latch_blocks
    for block in latch_blocks:
        assert any(
            v.name == "i" for v in liveness.live_out[block.id]
        )
    assert liveness.iterations >= 2  # the back edge forces a second sweep


def test_liveness_dead_tail_write_is_not_live_out():
    cdfg, _, _, _ = build(
        "int main(int a) { int t = a + 1; int r = t * 2; t = 99;"
        " return r; }"
    )
    liveness = compute_liveness(cdfg)
    for block in cdfg.reachable_blocks():
        for var in liveness.live_out[block.id]:
            assert var.name != "t"


def test_liveness_use_def_and_op_helpers():
    cdfg, _, _, _ = build("int main(int a) { int b = a + 1; return b; }")
    (block,) = cdfg.reachable_blocks()
    use, defs = block_use_def(block)
    assert {s.name for s in use} >= {"a"}
    assert {s.name for s in defs} == {"b"}
    add = next(op for op in block.ops if op.kind is OpKind.BINARY)
    assert {s.name for s in op_var_uses(add)} == {"a"}
    assert op_vreg_uses(add) == set()
    assert add.dest is not None


def test_liveness_branch_condition_counts_as_use():
    cdfg, _, _, _ = build(
        "int main(int a) { int c = a > 0; if (c) { return 1; } return 2; }"
    )
    liveness = compute_liveness(cdfg)
    entry = cdfg.entry
    use = liveness.use[entry.id]
    assert {s.name for s in use} >= {"a"}


# ---------------------------------------------------------------------------
# Dead-variable elimination
# ---------------------------------------------------------------------------


def _latches_of(cdfg, name):
    return sum(
        1 for b in cdfg.blocks for v in b.var_writes if v.name == name
    )


def test_deadvar_removes_overwritten_latch():
    # t's final write is never read on any path: the latch is dead.
    cdfg, _, _, _ = build(
        "int main(int a) { int t = a + 1; int r = t * 2; t = a * 7;"
        " return r; }"
    )
    removed = eliminate_dead_variables(cdfg)
    assert removed >= 1
    assert _latches_of(cdfg, "t") == 0
    assert execute(cdfg, args=(4,)).value == 10


def test_deadvar_keeps_live_and_global_latches():
    # The branch forces t's later reads through its register (cross-block
    # reads are upward-exposed), so the latch is genuinely live; g is
    # global and always kept.
    cdfg, _, _, _ = build(
        "int g; int main(int a) { g = a + 1; int t = a * 2;"
        " if (a > 0) { g = g + t; } return t; }"
    )
    removed = eliminate_dead_variables(cdfg)
    assert removed == 0
    assert _latches_of(cdfg, "t") == 1
    assert _latches_of(cdfg, "g") == 2


def test_deadvar_beats_dce_on_partially_dead_variables():
    # x IS read (in the then-branch), so register-level DCE must keep
    # every latch; liveness sees the tail write is dead on all paths.
    source = (
        "int main(int a) { int x = a + 1; int r = 0;"
        " if (a > 0) { r = x * 2; }"
        " x = a * 99; return r; }"
    )
    cdfg_dce, _, _, _ = build(source)
    eliminate_dead_code(cdfg_dce)
    cdfg_dve, _, _, _ = build(source)
    eliminate_dead_variables(cdfg_dve)
    assert _latches_of(cdfg_dve, "x") < _latches_of(cdfg_dce, "x")
    assert execute(cdfg_dve, args=(4,)).value == 10


# ---------------------------------------------------------------------------
# Chain load/store elimination
# ---------------------------------------------------------------------------


def _loads(cdfg):
    return [op for op in cdfg.iter_ops() if op.kind is OpKind.LOAD]


def _stores(cdfg):
    return [op for op in cdfg.iter_ops() if op.kind is OpKind.STORE]


def test_memchain_forwards_store_to_load():
    cdfg, plan, _, info = build(
        "int main(int i) { int a[4]; a[i] = i * 3; return a[i] + 1; }"
    )
    removed = eliminate_load_store_chains(cdfg)
    assert removed >= 1
    assert len(_loads(cdfg)) == 0  # the load was forwarded
    assert len(_stores(cdfg)) == 1  # memory is still written
    assert execute(cdfg, args=(2,)).value == 7


def test_memchain_removes_superseded_local_store():
    cdfg, _, _, _ = build(
        "int main(int i) { int a[4]; a[i] = 1; a[i] = 2; return a[i]; }"
    )
    eliminate_load_store_chains(cdfg)
    assert len(_stores(cdfg)) == 1
    assert execute(cdfg, args=(3,)).value == 2


def test_memchain_never_removes_global_array_stores():
    # A concurrent process may observe the intermediate state.
    cdfg, _, _, _ = build(
        "int g[4]; int main(int i) { g[i] = 1; g[i] = 2; return g[i]; }"
    )
    eliminate_load_store_chains(cdfg)
    assert len(_stores(cdfg)) == 2
    # ...but forwarding from the latest store is still sound per-machine.
    assert len(_loads(cdfg)) == 0


def test_memchain_any_load_pins_the_pending_store():
    # The load g[j] may alias g[i]; the first store must survive.
    cdfg, _, _, _ = build(
        "int main(int i, int j) { int g[4]; g[i] = 5; int o = g[j];"
        " g[i] = 6; return o + g[i]; }"
    )
    eliminate_load_store_chains(cdfg)
    assert len(_stores(cdfg)) == 2
    assert execute(cdfg, args=(1, 1)).value == 11


def test_memchain_different_index_blocks_forwarding():
    cdfg, _, _, _ = build(
        "int main(int i, int j) { int a[4]; a[i] = 9; return a[j]; }"
    )
    eliminate_load_store_chains(cdfg)
    assert len(_loads(cdfg)) == 1  # i == j is not provable
    assert execute(cdfg, args=(2, 2)).value == 9


def test_memchain_fence_clobbers_tracking():
    cdfg, _, _, _ = build(
        "int main(int i) { int a[4]; a[i] = 3; wait(); return a[i]; }"
    )
    before_blocks = len(cdfg.reachable_blocks())
    eliminate_load_store_chains(cdfg)
    # wait() splits the block (and is a fence regardless): the store and
    # the load must not pair up.
    assert len(_loads(cdfg)) == 1
    assert before_blocks == len(cdfg.reachable_blocks())


def test_memchain_intervening_store_to_other_array_is_independent():
    cdfg, _, _, _ = build(
        "int main(int i) { int a[4]; int b[4]; a[i] = 1; b[i] = 2;"
        " a[i] = 3; return a[i] + b[i]; }"
    )
    eliminate_load_store_chains(cdfg)
    # b's store does not pin a's chain: a[i]=1 dies, both loads forward.
    assert len(_stores(cdfg)) == 2
    assert len(_loads(cdfg)) == 0
    assert execute(cdfg, args=(0,)).value == 5


# ---------------------------------------------------------------------------
# Copy propagation
# ---------------------------------------------------------------------------


def _plant_identity_cast(cdfg, source_operand):
    """Append an identity CAST of ``source_operand`` and return it from
    the single block (the builder itself skips identity casts, but other
    IR producers — and future passes — may not)."""
    from repro.ir.ops import Operation, Ret, VReg

    (block,) = cdfg.reachable_blocks()
    dest = VReg(source_operand.type)
    block.ops.append(
        Operation(kind=OpKind.CAST, dest=dest, operands=[source_operand])
    )
    block.terminator = Ret(dest)
    validate(cdfg)
    return block


def test_copyprop_removes_identity_cast():
    from repro.ir.ops import VarRead

    cdfg, _, _, _ = build("int main(int a) { return a; }")
    block = _plant_identity_cast(cdfg, VarRead(cdfg.params[0]))
    removed = propagate_copies(cdfg)
    assert removed == 1
    assert not any(op.kind is OpKind.CAST for op in cdfg.iter_ops())
    assert isinstance(block.terminator.value, VarRead)
    assert execute(cdfg, args=(5,)).value == 5


def test_copyprop_keeps_narrowing_cast():
    cdfg, _, _, _ = build(
        "int main(int a) { uint8 b = a; return b; }"
    )
    propagate_copies(cdfg)
    assert any(op.kind is OpKind.CAST for op in cdfg.iter_ops())
    assert execute(cdfg, args=(300,)).value == 44


def test_copyprop_keeps_identity_cast_of_raw_load():
    # Loads return the raw memory word; the cast's wrap is load-bearing
    # when the stored value might exceed the static type.
    cdfg, _, _, _ = build("int a[2]; int main(int i) { return a[i]; }")
    (block,) = cdfg.reachable_blocks()
    load = next(op for op in block.ops if op.kind is OpKind.LOAD)
    _plant_identity_cast(cdfg, load.dest)
    propagate_copies(cdfg)
    assert any(op.kind is OpKind.CAST for op in cdfg.iter_ops())


def test_copyprop_collapses_select_with_equal_arms():
    cdfg, _, _, _ = build(
        "int main(int a, int b) { return a > 0 ? b : b; }"
    )
    removed = propagate_copies(cdfg)
    assert removed >= 1
    assert not any(op.kind is OpKind.SELECT for op in cdfg.iter_ops())
    assert execute(cdfg, args=(-3, 9)).value == 9


def test_copyprop_deletes_local_self_latch_keeps_global():
    # Inside the branch `t = t;` is the first write of t in that block, so
    # the builder latches the register with its own entry value — a true
    # self-latch.  g's must survive (same-cycle write-conflict resolution
    # in multi-process designs).
    cdfg, _, _, _ = build(
        "int g; int main(int a) { int t = a;"
        " if (a > 0) { t = t; g = g; } return t; }"
    )
    self_latches_before = sum(
        1
        for b in cdfg.blocks
        for v, value in b.var_writes.items()
        if hasattr(value, "var") and value.var is v
    )
    assert self_latches_before >= 2
    propagate_copies(cdfg)
    for block in cdfg.blocks:
        for var, value in block.var_writes.items():
            if hasattr(value, "var") and value.var is var:
                assert var.kind is SymbolKind.GLOBAL
    assert _latches_of(cdfg, "g") == 1
    assert execute(cdfg, args=(8,)).value == 8


# ---------------------------------------------------------------------------
# Per-pass differential harness over the fuzz grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flow", ["c2verilog", "handelc", "cones", "specc"])
@pytest.mark.parametrize("seed", range(8))
def test_each_pass_preserves_observables(flow, seed):
    program = generate_program(seed, feature_mask(flow))
    for label, pass_fn in _PASSES:
        cdfg, plan, _, info = build(program.source)
        assert_pass_preserves(
            cdfg, plan, info, program.args, pass_fn,
            label=f"{program.name}/{label}",
        )


@given(seed=st.integers(min_value=0, max_value=5000),
       flow=st.sampled_from(_FLOWS))
@settings(**_SETTINGS)
def test_property_each_pass_preserves_observables(seed, flow):
    """Property form: any grammar program, any flow mask, every pass."""
    program = generate_program(seed, feature_mask(flow))
    for label, pass_fn in _PASSES:
        cdfg, plan, _, info = build(program.source)
        assert_pass_preserves(
            cdfg, plan, info, program.args, pass_fn,
            label=f"{program.name}/{label}",
        )


@given(seed=st.integers(min_value=0, max_value=5000),
       flow=st.sampled_from(_FLOWS))
@settings(**_SETTINGS)
def test_property_full_fixpoint_preserves_observables(seed, flow):
    """The composed pipeline is as trustworthy as its parts, and it
    converges within the bounded budget with an idempotent result."""
    program = generate_program(seed, feature_mask(flow))
    cdfg, plan, _, info = build(program.source)
    before = assert_pass_preserves(
        cdfg, plan, info, program.args,
        lambda c: run_fixpoint(c), label=program.name,
    )
    # Convergence: the budget was never the binding constraint...
    report = run_fixpoint(cdfg)
    assert report.converged
    assert report.iterations <= DEFAULT_MAX_ITERATIONS
    # ...and idempotence: a second run from the converged CDFG is a no-op.
    second = run_fixpoint(cdfg)
    assert second.converged
    assert second.iterations == 1
    assert second.total() == 0
    if before is not None:
        names = _global_names(cdfg)
        assert observe(cdfg, plan, info, program.args, names) == before


def test_fixpoint_interpreter_golden_value_matches():
    """For channel-free programs the executor's post-fixpoint value must
    equal the reference C interpreter's."""
    from repro.interp import run_program

    checked = 0
    for seed in range(12):
        program = generate_program(seed, feature_mask("c2verilog"))
        cdfg, plan, parsed, info = build(program.source)
        if any(op.is_fence() for op in cdfg.iter_ops()):
            continue
        golden = run_program(parsed, info, "main", program.args)
        run_fixpoint(cdfg)
        register_init, memory_init = _initial_state(cdfg, plan, info)
        result = execute(cdfg, args=program.args,
                         register_init=register_init,
                         memory_init=memory_init)
        assert result.value == golden.value, program.name
        checked += 1
    assert checked >= 8  # the sample is not vacuous


def test_fixpoint_trace_spans_and_counters():
    source = (
        "int main(int i) { int a[4]; a[i] = i + 2; int t = a[i]; wait();"
        " t = t; int r = t * 1; t = 99; return r; }"
    )
    cdfg, _, _, _ = build(source)
    trace = TraceContext()
    with trace.span("passes", cat="phase"):
        report = run_fixpoint(cdfg, trace=trace)
    assert report.total() > 0
    passes_span = trace.find("passes")
    names = {c.name for c in passes_span.children}
    assert {"pass.constfold", "pass.liveness", "pass.deadvar",
            "pass.memchain", "pass.copyprop",
            "fixpoint.iteration"} <= names
    iteration_leaves = [
        c for c in passes_span.children if c.name == "fixpoint.iteration"
    ]
    assert len(iteration_leaves) == report.iterations
    assert report.liveness_recomputes >= 1


def test_fixpoint_recomputes_liveness_only_on_invalidation():
    # Already-optimal CDFG: one liveness computation, one iteration.
    cdfg, _, _, _ = build("int main(int a) { return a; }")
    run_fixpoint(cdfg)
    report = run_fixpoint(cdfg)
    assert report.iterations == 1
    assert report.liveness_recomputes == 1


def _oracle_fixpoint(cdfg, passes, max_iterations, t):
    """The full-sweep driver the change-driven one replaced: every pass
    runs on the whole function every sweep, traced into ``t``."""
    report = FixpointReport(pass_counts={spec.name: 0 for spec in passes})
    report.ops_in = cdfg.op_count()
    liveness = None
    for iteration in range(1, max_iterations + 1):
        report.iterations = iteration
        changed = 0
        for spec in passes:
            if spec.needs_liveness and liveness is None:
                with t.span("pass.liveness", cat="pass"):
                    liveness = compute_liveness(cdfg)
                    t.count(blocks=len(liveness.live_in),
                            sweeps=liveness.iterations)
                report.liveness_recomputes += 1
            with t.span(f"pass.{spec.name}", cat="pass"):
                count = spec.run(cdfg, liveness)
                t.count(changed=count)
            report.pass_counts[spec.name] += count
            changed += count
            if count:
                liveness = None
        t.leaf("fixpoint.iteration", 0.0, cat="pass", iteration=iteration,
               changed=changed, ops=cdfg.op_count())
        if not changed:
            report.converged = True
            break
    with t.span("pass.validate", cat="pass"):
        validate(cdfg)
    report.ops_out = cdfg.op_count()
    t.count(iterations=report.iterations, ops_in=report.ops_in,
            ops_out=report.ops_out, removed=report.total(),
            liveness_recomputes=report.liveness_recomputes)
    return report


def _cdfg_state(cdfg):
    """Everything a pass may change, blocks in list order."""
    return "\n".join(
        [" ".join(s.unique_name for s in cdfg.registers),
         " ".join(s.unique_name for s in cdfg.params),
         " ".join(s.unique_name for s in cdfg.arrays),
         cdfg.entry.label if cdfg.entry is not None else ""]
        + [b.dump() for b in cdfg.blocks])


def _snapshot(cdfg):
    """A rewind point for a CDFG.  Passes reassign op operand lists, block
    op lists and latch maps, replace or edit terminators in place, and
    reassign the function's block, entry and register fields."""
    blocks = [
        (block, list(block.ops), [(op, op.operands) for op in block.ops],
         dict(block.var_writes), block.terminator,
         dict(vars(block.terminator)))
        for block in cdfg.blocks]
    fields = (list(cdfg.blocks), cdfg.entry, list(cdfg.registers))

    def rewind():
        for block, ops, operands, var_writes, terminator, state in blocks:
            block.ops, block.var_writes = list(ops), dict(var_writes)
            for op, op_operands in operands:
                op.operands = op_operands
            block.terminator = terminator
            vars(terminator).update(state)
        blocks_list, cdfg.entry, registers = fields
        cdfg.blocks, cdfg.registers = list(blocks_list), list(registers)

    return rewind


def _span_records(trace_dict):
    """Every span in order: name and integer counters."""
    records = []

    def walk(span):
        args = span.get("args") or {}
        records.append((span["name"], sorted(
            (k, v) for k, v in args.items()
            if isinstance(v, int) and not isinstance(v, bool))))
        for child in span.get("children", ()):
            walk(child)

    for span in trace_dict["spans"]:
        walk(span)
    return records


def _generated_sources(count):
    from repro.workloads.generator import (
        array_source, control_source, dataflow_source)

    for seed in range(count):
        yield dataflow_source(seed, width_mix=seed % 2)
        yield control_source(seed, width_mix=seed % 2)
        yield array_source(seed)


def test_change_driven_fixpoint_matches_the_full_sweep_oracle(monkeypatch):
    """At every ``run_fixpoint`` call over the suite and generated
    programs x compilable flows x levels 1-3, the driver leaves the same
    CDFG, returns the same report and records the same spans and
    counters as running every pass on the whole function every sweep."""
    from repro.flows.base import FlowError
    from repro.ir.passes import fixpoint
    from repro.trace import numeric_counters_of, structure_of
    from repro.workloads import WORKLOADS

    real = fixpoint.run_fixpoint
    calls = []

    def checked(cdfg, passes, max_iterations, trace=None):
        rewind = _snapshot(cdfg)
        before = _cdfg_state(cdfg)
        expected_trace, got_trace = TraceContext(), TraceContext()
        expected = _oracle_fixpoint(cdfg, passes, max_iterations,
                                    expected_trace)
        expected_state = _cdfg_state(cdfg)
        rewind()
        assert _cdfg_state(cdfg) == before
        report = real(cdfg, passes, max_iterations, trace=got_trace)
        assert report == expected
        assert _cdfg_state(cdfg) == expected_state
        want, got = expected_trace.to_dict(), got_trace.to_dict()
        assert structure_of(got) == structure_of(want)
        assert numeric_counters_of(got) == numeric_counters_of(want)
        assert _span_records(got) == _span_records(want)
        calls.append(report.total())
        return report

    monkeypatch.setattr(fixpoint, "run_fixpoint", checked)
    sources = [w.source for w in WORKLOADS] + list(_generated_sources(8))
    for source in sources:
        for flow in _FLOWS:
            for level in (1, 2, 3):
                try:
                    synthesize(source,
                               SynthesisOptions(flow=flow, opt_level=level))
                except FlowError:
                    pass
    assert len(calls) > 1000 and sum(1 for c in calls if c) > 500


# ---------------------------------------------------------------------------
# opt_level plumbing
# ---------------------------------------------------------------------------


def test_optimize_cdfg_level_dispatch():
    source = "int main(int i) { int a[4]; a[i] = 7; return a[i]; }"
    c0, _, _, _ = build(source)
    optimize_cdfg(c0, opt_level=0)
    assert len(_loads(c0)) == 1  # level 0: untouched
    c2, _, _, _ = build(source)
    optimize_cdfg(c2, opt_level=2)
    assert len(_loads(c2)) == 0  # level 2: forwarded


def test_suite_tasks_carry_opt_level():
    default_tasks = suite_tasks(flows=["c2verilog"])
    lvl2 = suite_tasks(flows=["c2verilog"], opt_level=2)
    assert all(t.options == SynthesisOptions(flow="c2verilog")
               for t in default_tasks)
    assert all(t.options == SynthesisOptions(flow="c2verilog", opt_level=2)
               for t in lvl2)
    # The default level spelled explicitly keeps the default identity
    # (cache entries are shared).
    explicit = suite_tasks(flows=["c2verilog"], opt_level=DEFAULT_OPT_LEVEL)
    assert [t.identity() for t in explicit] == [
        t.identity() for t in default_tasks
    ]


def test_cell_identity_reflects_opt_level():
    base = CellTask(workload="w", source="int main() { return 1; }",
                    options=SynthesisOptions(flow="c2verilog"))
    lvl2 = CellTask(workload="w", source="int main() { return 1; }",
                    options=SynthesisOptions.make(flow="c2verilog",
                                                  opt_level=2))
    assert base.identity()["opt_level"] == DEFAULT_OPT_LEVEL
    assert lvl2.identity()["opt_level"] == 2
    assert base.identity() != lvl2.identity()
    # opt_level rides in its proper SynthesisOptions field, not in
    # flow_options.
    assert lvl2.options.opt_level == 2
    assert dict(lvl2.options.flow_options) == {}


@pytest.mark.parametrize("level", [-1, 4, 7, 99, True, "2"])
def test_out_of_range_opt_level_is_rejected(level):
    """Only the levels the table defines exist; anything else used to
    compile under its own cache identity as a duplicate design."""
    with pytest.raises(ValueError, match=r"\[0, 1, 2, 3\]"):
        SynthesisOptions(opt_level=level)
    with pytest.raises(ValueError):
        SynthesisOptions().with_(opt_level=level)


def test_synthesize_levels_agree_and_level2_is_never_slower():
    source = (
        "int g; int main(int n) { int a[8]; int s = 0;"
        " for (int i = 0; i < 8; i++) { a[i] = i * n; s += a[i]; }"
        " g = s; int t = s + 0; t = 99; return s; }"
    )
    runs = {}
    for level in (0, 1, 2):
        result = synthesize(source, SynthesisOptions(opt_level=level))
        runs[level] = result.run(args=(3,))
    assert runs[0].value == runs[1].value == runs[2].value
    assert runs[0].globals == runs[1].globals == runs[2].globals
    assert runs[2].cycles <= runs[1].cycles <= runs[0].cycles
