"""Cones' symbolic execution against the unroll-then-flatten oracle.

At every Cones compile over the suite at opt_level 0-3, generated
programs at 0-2 and boundary programs, the flow and ``_oracle_cones``
(``tests/cones_oracle.py``) must give the same verdict text.  Where both
compile, the two netlists must agree on the kernel's arguments and three
seeded argument vectors: the same value or evaluation error, and the same
value for every global the oracle reports; a global only the flow reports
must equal the golden interpreter's.  The flow's netlist may not cost
more area or a longer critical path than the oracle's.
"""

from __future__ import annotations

import random

import pytest

from repro.api import SynthesisOptions, synthesize
from repro.flows import FlowError
from repro.flows.cones import ConesFlow
from repro.fuzz import feature_mask, generate_program
from repro.interp import run_program
from repro.lang.errors import InterpError
from repro.rtl.combinational import evaluate
from repro.workloads import WORKLOADS
from repro.workloads.generator import (
    array_source, control_source, dataflow_source)
from tests.cones_oracle import _oracle_cones


def _verdict(err):
    return f"{type(err).__name__}: {err}"


def _evaluation(netlist, args):
    try:
        result = evaluate(netlist, args=args)
    except InterpError as err:
        return ("error", str(err)), {}
    return ("value", result.value), result.globals


def _argument_vectors(name, args, count):
    rng = random.Random(f"cones-oracle:{name}")
    vectors = [tuple(args)]
    for _ in range(3):
        vectors.append(tuple(rng.randint(-300, 300) for _ in range(count)))
    return vectors


def _check_call(call, name, args):
    program, info, function, opt_level, got = call
    try:
        want, unrolled = _oracle_cones(
            ConesFlow(), program, info, function, opt_level=opt_level)
    except FlowError as err:
        want = err
    if isinstance(want, FlowError) or isinstance(got, FlowError):
        assert _verdict(got) == _verdict(want), name
        return
    assert got.stats["loops_unrolled"] == unrolled, name
    netlist = got.netlist
    assert len(netlist.inputs) == len(want.inputs), name
    for vector in _argument_vectors(name, args, len(netlist.inputs)):
        got_value, got_globals = _evaluation(netlist, vector)
        want_value, want_globals = _evaluation(want, vector)
        assert got_value == want_value, (name, opt_level, vector)
        for global_name, value in want_globals.items():
            assert got_globals.get(global_name) == value, (
                name, opt_level, vector, global_name)
        extra = set(got_globals) - set(want_globals)
        if extra:
            golden = run_program(program, info, function, vector).globals
            for global_name in extra:
                assert got_globals[global_name] == golden[global_name], (
                    name, opt_level, vector, global_name)
    assert netlist.area_ge() <= want.area_ge(), (name, opt_level)
    assert netlist.critical_path_ns() <= want.critical_path_ns() + 1e-9, (
        name, opt_level)


@pytest.fixture
def cones_calls(monkeypatch):
    """Every ConesFlow.compile call, with its design or FlowError."""
    calls = []
    real = ConesFlow.compile

    def recorded(self, program, info, function="main", opt_level=1,
                 **options):
        try:
            design = real(self, program, info, function=function,
                          opt_level=opt_level, **options)
        except FlowError as err:
            calls.append((program, info, function, opt_level, err))
            raise
        calls.append((program, info, function, opt_level, design))
        return design

    monkeypatch.setattr(ConesFlow, "compile", recorded)
    return calls


def _sweep(calls, programs, levels):
    """Compile each (name, source, args) at each level; check each call."""
    checked = 0
    for name, source, args in programs:
        for level in levels:
            del calls[:]
            try:
                synthesize(source, SynthesisOptions(flow="cones",
                                                     opt_level=level))
            except FlowError:
                pass
            for call in calls:
                _check_call(call, name, args)
                checked += 1
    return checked


def test_suite_matches_the_unrolling_oracle(cones_calls):
    programs = [(w.name, w.source, w.args) for w in WORKLOADS]
    assert _sweep(cones_calls, programs, (0, 1, 2, 3)) == 4 * len(WORKLOADS)


def _generated_programs(count):
    mask = feature_mask("cones")
    for seed in range(count):
        program = generate_program(seed, mask)
        yield program.name, program.source, program.args
    for seed in range(count // 4):
        yield f"dataflow{seed}", dataflow_source(seed, width_mix=seed % 2), (3, 5)
        yield f"control{seed}", control_source(seed, width_mix=seed % 2), (3, 5)
        yield f"array{seed}", array_source(seed), (3,)


def test_generated_programs_match_the_unrolling_oracle(cones_calls):
    programs = list(_generated_programs(80))
    assert _sweep(cones_calls, programs, (0, 1, 2)) == 3 * len(programs)


def test_boundary_programs_give_the_oracles_verdicts(cones_calls):
    mask = feature_mask("cones")
    programs = []
    for seed in range(60):
        program = generate_program(seed, mask, boundary=True)
        programs.append((program.name, program.source, program.args))
    assert _sweep(cones_calls, programs, (0, 1)) == 2 * len(programs)


def _oracle_syn105(ctx):
    """SYN105 as the linter found it by fully unrolling the entry function
    and walking the loops that survived."""
    from repro.ir.passes import try_full_unroll
    from repro.lang import ast_nodes as ast

    fn = ctx.inlined(roots=[ctx.function]).function(ctx.function)
    fn, _unrolled, resisted = try_full_unroll(fn)
    found, seen = [], set()
    if not resisted:
        return found
    for stmt in ast.walk_stmts(fn.body):
        if isinstance(stmt, (ast.While, ast.DoWhile, ast.For)):
            spot = (stmt.location.line, stmt.location.column)
            if spot not in seen:
                seen.add(spot)
                kind = type(stmt).__name__.lower()
                found.append((f"{kind} loop bound cannot be evaluated at"
                               " compile time; this flow unrolls every loop",
                               spot))
    return found


def test_syn105_matches_the_unrolling_oracle():
    """StaticLoopBoundRule counts instead of cloning; its diagnostics
    (text and location) are those the full-unroll walk gave, over the
    suite, boundary programs, the fuzz corpus and the examples."""
    import json
    from pathlib import Path

    from repro.analysis.lint.rules import LintContext, StaticLoopBoundRule
    from repro.fuzz import all_masks
    from repro.lang import parse
    from repro.lang.errors import FrontendError

    root = Path(__file__).resolve().parent.parent
    sources = [w.source for w in WORKLOADS]
    for mask in all_masks().values():
        for seed in range(12):
            sources.append(generate_program(seed, mask, boundary=True).source)
    for path in sorted((root / "tests" / "corpus").glob("*/*.json")):
        sources.append(json.loads(path.read_text())["source"])
    sources += [p.read_text() for p in sorted((root / "examples").glob("*.c"))]
    sources += [
        # A resisting loop inside a zero-trip expansion leaves no statement.
        "int main(int x) { for (int i = 0; i < 0; i++) {"
        " while (x > 0) { x = x - 1; } } return x; }",
        # Copies of one resisting loop share its location.
        "int main(int x) { int s = 0; for (int i = 0; i < 3; i++) {"
        " for (int j = 0; j < x; j++) { s = s + j; } } return s; }",
        # The inner loop writes the outer one's induction variable.
        "int main(int x) { int i; int s = 0; for (i = 0; i < 4; i++) {"
        " for (i = 0; i < 2; i++) { s = s + x; } } return s; }",
    ]
    rule = StaticLoopBoundRule()
    with_loops = 0
    for source in sources:
        try:
            program, info = parse(source)
        except FrontendError:
            continue
        ctx = LintContext(program, info)
        if ctx.has_recursion or "main" not in info.functions:
            continue
        got = [(d.message, (d.location.line, d.location.column))
               for d in rule.check(ctx, "cones")]
        assert got == _oracle_syn105(ctx)
        with_loops += bool(got)
    assert with_loops >= 10


# ---------------------------------------------------------------------------
# Shapes a naive path-by-path walker gets wrong or cannot finish
# ---------------------------------------------------------------------------


def _cones(source, opt_level=1):
    from repro.lang import parse

    program, info = parse(source)
    design = ConesFlow().compile(program, info, opt_level=opt_level)
    return program, info, design.netlist


def _assert_golden(source, vectors, opt_level=1):
    program, info, netlist = _cones(source, opt_level)
    for vector in vectors:
        got = evaluate(netlist, args=vector)
        golden = run_program(program, info, "main", vector)
        assert got.value == golden.value, vector
        assert got.globals == {
            name: golden.globals[name] for name in got.globals}, vector
    return netlist


def test_early_return_in_a_4096_trip_loop_compiles_without_deep_recursion():
    # One fork per iteration, each with an arm that returns: the walk
    # keeps them on a list, never on the Python stack.
    import sys

    source = """
    int data[4096];
    int main(int k) {
        for (int i = 0; i < 4096; i++) { data[i] = i * 3; }
        for (int i = 0; i < 4096; i++) {
            if (data[i] == k) return i;
        }
        return -1;
    }
    """
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        _assert_golden(source, [(0,), (300,), (301,), (12285,), (-3,)])
    finally:
        sys.setrecursionlimit(limit)


def test_a_global_written_only_in_a_zero_trip_loop_keeps_its_initial_value():
    # The rolled CDFG still writes g and h, so Cones now reports them, with
    # their initial values, as the golden interpreter does; unrolling the
    # loop away used to drop them from the observable.
    source = """
    int g = 7;
    int h[3] = {1, 2, 3};
    int main(int x) {
        for (int i = 0; i < 0; i++) { g = x; h[i] = x; }
        return x + 1;
    }
    """
    netlist = _assert_golden(source, [(3,), (-8,)])
    assert evaluate(netlist, args=(3,)).globals == {"g": 7, "h": [1, 2, 3]}


def test_a_data_dependent_if_around_a_counted_loop_merges_once():
    source = """
    int acc[4];
    int main(int x) {
        int s = 0;
        if (x > 3) {
            for (int i = 0; i < 8; i++) { s = s + i * x; acc[i % 4] = s; }
        } else {
            s = 5;
            acc[x & 3] = 9;
        }
        for (int i = 0; i < 4; i++) {
            if (acc[i] > x) s = s + acc[i];
        }
        return s;
    }
    """
    _assert_golden(source, [(4,), (3,), (-2,), (100,), (2,)])


def test_conditional_returns_in_a_sequence_do_not_duplicate_the_tail():
    # Each "if" has a live arm and a returning one; the live arms meet at
    # the "if"'s end.  Walking the rest of the function once per arm
    # instead would take 2^24 walks.
    lines = ["int g;", "int main(int x, int y) {", "    int s = 0;"]
    for k in range(24):
        lines.append(f"    if (x > {k}) {{ if (y == {k}) return {k};"
                     f" s = s + {k}; }}")
    lines += ["    g = s;", "    return s;", "}"]
    netlist = _assert_golden("\n".join(lines),
                             [(0, 0), (30, 30), (30, 7), (5, 5), (5, 9)])
    assert netlist.op_count < 400


def test_division_on_an_untaken_path_cannot_trap():
    source = """
    int main(int x, int y) {
        int r = x % 7;
        if (y != 0) { r = x / y; }
        for (int i = 0; i < 4; i++) { if (y > i) r = r + x / (y - i); }
        return r;
    }
    """
    _assert_golden(source, [(9, 0), (9, 2), (-9, 5), (0, -1)], opt_level=0)


def test_a_loop_that_wraps_past_its_trip_count_is_rejected():
    # The static trip count says 10, but i is 8 bits wide and never
    # reaches 260: the loop does not terminate.
    from repro.analysis.lint import RULE_UNBOUNDED_LOOP

    source = """
    int main(int x) {
        uint8 s = 0;
        for (uint8 i = 250; i < 260; i++) { s = s + i; }
        return s;
    }
    """
    with pytest.raises(FlowError) as raised:
        _cones(source)
    assert raised.value.rule == RULE_UNBOUNDED_LOOP
