"""Verilog emission tests: structural sanity of the generated text."""

import re

import pytest

from repro.api import SynthesisOptions, synthesize
from repro.flows import compile_flow
from repro.lang import LexError


def test_fsmd_module_skeleton():
    design = compile_flow(
        "int main(int a) { int s = 0; for (int i = 0; i < a; i++) { s += i; } return s; }",
        flow="c2verilog",
    )
    text = design.verilog()
    assert "module fsmd_main" in text
    assert "endmodule" in text
    assert "input wire clk" in text
    assert "posedge clk" in text
    assert "case (state)" in text
    assert "output reg done" in text


def test_fsmd_registers_declared_with_widths():
    design = compile_flow("int main(uint8 a) { uint8 b = a + 1; return b; }",
                          flow="c2verilog")
    text = design.verilog()
    assert re.search(r"input wire \[7:0\] arg_a", text)


def test_memories_become_reg_arrays():
    design = compile_flow(
        "int g[16]; int main(int i) { return g[i & 15]; }", flow="c2verilog"
    )
    text = design.verilog()
    assert re.search(r"reg \[31:0\] g \[0:15\];", text)


def test_channel_ports_emitted_for_rendezvous():
    design = compile_flow(
        """
        chan<int> c;
        process void p() { send(c, 1); }
        int main() { return recv(c); }
        """,
        flow="hardwarec",
    )
    text = design.verilog()
    assert "c_valid_out" in text
    assert "c_ready_in" in text
    assert text.count("module ") == 2  # one per process


def test_branches_become_if_else_on_state():
    design = compile_flow(
        "int main(int a) { if (a > 0) { return 1; } return 2; }", flow="c2verilog"
    )
    text = design.verilog()
    assert "if (" in text and "end else begin" in text
    assert "state <=" in text


def test_handelc_nested_decision_trees_emit():
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
    text = design.verilog()
    assert "module fsmd_main" in text
    assert text.count("state <=") >= 2


def test_combinational_module_is_pure_assigns():
    design = compile_flow(
        "int main(int a, int b) { return a > b ? a - b : b - a; }", flow="cones"
    )
    text = design.verilog()
    assert "module cones_main" in text
    assert "assign" in text
    assert "posedge" not in text
    assert "reg " not in text


def test_combinational_array_inputs_enumerated():
    design = compile_flow(
        "int t[2] = {3, 4}; int main(int i) { return t[i]; }", flow="cones"
    )
    text = design.verilog()
    assert text.count("input wire") >= 3  # i plus two array elements


def test_negative_constants_emit_signed_literals():
    design = compile_flow("int main(int a) { return a + (0 - 5); }", flow="cones")
    text = design.verilog()
    assert "'sd5" in text or "'d" in text


def test_system_header_counts_machines():
    design = compile_flow(
        """
        chan<int> c;
        process void p() { send(c, 1); }
        int main() { return recv(c); }
        """,
        flow="bachc",
    )
    text = design.verilog()
    assert "2 machine(s)" in text
    assert "1 rendezvous channel(s)" in text


def test_non_ascii_identifier_never_reaches_verilog():
    """``é`` is not a legal Verilog identifier; the lexer refuses it
    rather than letting c2verilog emit ``reg signed [31:0] é;``."""
    source = "int é; int main(int s) { é = s; return é; }"
    with pytest.raises(LexError, match="unexpected character 'é'"):
        synthesize(source, SynthesisOptions(flow="c2verilog"))
