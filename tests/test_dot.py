"""DOT export tests."""

from repro.flows import compile_flow
from repro.ir import build_function
from repro.ir.dot import cdfg_to_dot, fsmd_to_dot
from repro.ir.passes import inline_program, optimize_cdfg
from repro.lang import parse


def cdfg_of(source):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    cdfg = build_function(inlined.function("main"), info)
    optimize_cdfg(cdfg)
    return cdfg


def test_cdfg_dot_structure():
    cdfg = cdfg_of(
        "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }"
    )
    dot = cdfg_to_dot(cdfg)
    assert dot.startswith('digraph "main"')
    assert dot.rstrip().endswith("}")
    # One node per reachable block, branch edges labelled.
    for block in cdfg.reachable_blocks():
        assert f"b{block.id} [" in dot
    assert '[label="T"]' in dot and '[label="F"]' in dot


def test_cdfg_dot_escapes_quotes():
    cdfg = cdfg_of("int main(int a) { return a + 1; }")
    dot = cdfg_to_dot(cdfg)
    assert '\\"' not in dot.replace('\\"', "")  # no raw quotes leak


def test_fsmd_dot_includes_done_state():
    design = compile_flow(
        "int main(int a) { if (a > 0) { return 1; } return 2; }",
        flow="c2verilog",
    )
    dot = fsmd_to_dot(design.system.root)
    assert "doublecircle" in dot
    assert "->" in dot


def test_fsmd_dot_flattens_handelc_decision_trees():
    design = compile_flow(
        """
        int main(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) { s += i; }
            }
            return s;
        }
        """,
        flow="handelc",
    )
    dot = fsmd_to_dot(design.system.root)
    # Nested zero-cycle decisions become compound edge labels.
    assert "&" in dot or "!" in dot
