"""Verilog emission tests: structural sanity of the generated text."""

import re

import pytest

from repro.api import SynthesisOptions, synthesize
from repro.lang import LexError


def test_fsmd_module_skeleton():
    design = synthesize(
        "int main(int a) { int s = 0; for (int i = 0; i < a; i++) { s += i; } return s; }",
        flow="c2verilog",
    ).design
    text = design.verilog()
    assert "module fsmd_main" in text
    assert "endmodule" in text
    assert "input wire clk" in text
    assert "posedge clk" in text
    assert "case (state)" in text
    assert "output reg done" in text


def test_fsmd_registers_declared_with_widths():
    design = synthesize("int main(uint8 a) { uint8 b = a + 1; return b; }",
                        flow="c2verilog").design
    text = design.verilog()
    assert re.search(r"input wire \[7:0\] arg_a", text)


def test_memories_become_reg_arrays():
    design = synthesize(
        "int g[16]; int main(int i) { return g[i & 15]; }", flow="c2verilog"
    ).design
    text = design.verilog()
    assert re.search(r"reg \[31:0\] g \[0:15\];", text)


def test_channel_ports_emitted_for_rendezvous():
    design = synthesize(
        """
        chan<int> c;
        process void p() { send(c, 1); }
        int main() { return recv(c); }
        """,
        flow="hardwarec",
    ).design
    text = design.verilog()
    assert "c_valid_out" in text
    assert "c_ready_in" in text
    assert text.count("module ") == 2  # one per process


def test_branches_become_if_else_on_state():
    design = synthesize(
        "int main(int a) { if (a > 0) { return 1; } return 2; }", flow="c2verilog"
    ).design
    text = design.verilog()
    assert "if (" in text and "end else begin" in text
    assert "state <=" in text


def test_handelc_nested_decision_trees_emit():
    design = synthesize(
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
    ).design
    text = design.verilog()
    assert "module fsmd_main" in text
    assert text.count("state <=") >= 2


def test_combinational_module_is_pure_assigns():
    design = synthesize(
        "int main(int a, int b) { return a > b ? a - b : b - a; }", flow="cones"
    ).design
    text = design.verilog()
    assert "module cones_main" in text
    assert "assign" in text
    assert "posedge" not in text
    assert "reg " not in text


def test_combinational_array_inputs_enumerated():
    design = synthesize(
        "int t[2] = {3, 4}; int main(int i) { return t[i]; }", flow="cones"
    ).design
    text = design.verilog()
    assert text.count("input wire") >= 3  # i plus two array elements


def _check_cones_nets(text):
    """Every net a Cones module declares is declared once, and every
    assignment drives a wire or an output from inputs and wires only,
    never from itself.  Returns the declared nets by kind."""
    nets = {kind: re.findall(rf"{kind} *wire \[\d+:0\] (\w+)", text)
            for kind in ("input", "output")}
    nets["wire"] = re.findall(r"^ +wire \[\d+:0\] (\w+);", text, re.M)
    declared = nets["input"] + nets["output"] + nets["wire"]
    assert len(declared) == len(set(declared)), declared
    readable = set(nets["input"]) | set(nets["wire"])
    for target, expr in re.findall(r"assign (\w+) = (.*);", text):
        reads = re.findall(r"[A-Za-z_]\w*", re.sub(r"\d+'s?d\d+", "", expr))
        assert target in nets["output"] or target in nets["wire"], target
        assert target not in reads, (target, reads)
        assert set(reads) <= readable, (reads, nets)
    return nets


def test_combinational_declares_the_scalar_globals_it_reads():
    source = "int k = 5; int main(int a) { return k * a; }"
    design = synthesize(source, flow="cones").design
    assert design.run(args=[3]).value == 15
    text = design.verilog()
    assert re.search(r"input wire \[31:0\] k\b", text)
    _check_cones_nets(text)


def test_combinational_ports_never_take_wire_names():
    # A global spelled like a wire used to read itself: `n0 = n0 * a`.
    text = synthesize("int n0 = 5; int main(int a) { return n0 * a; }",
                      flow="cones").design.verilog()
    _check_cones_nets(text)
    text = synthesize(
        "int main(int n0, int n1) { return n0 * n1 + 1; }", flow="cones"
    ).design.verilog()
    _check_cones_nets(text)


def test_combinational_inputs_never_equal_global_outputs():
    text = synthesize(
        "int g_x = 2; int x; int main(int a) { x = g_x + a; return a; }",
        flow="cones",
    ).design.verilog()
    nets = _check_cones_nets(text)
    assert nets["output"] == ["out", "g_x"]
    assert len(nets["input"]) == 2
    assert not any(name.startswith("g_") for name in nets["input"])


def test_combinational_suite_modules_read_only_declared_nets():
    from repro.flows import FlowError
    from repro.workloads import WORKLOADS

    checked = 0
    for workload in WORKLOADS:
        try:
            design = synthesize(workload.source, flow="cones").design
        except FlowError:
            continue
        _check_cones_nets(design.verilog())
        checked += 1
    assert checked >= 5


def test_negative_constants_emit_signed_literals():
    design = synthesize("int main(int a) { return a + (0 - 5); }", flow="cones").design
    text = design.verilog()
    assert "'sd5" in text or "'d" in text


def test_system_header_counts_machines():
    design = synthesize(
        """
        chan<int> c;
        process void p() { send(c, 1); }
        int main() { return recv(c); }
        """,
        flow="bachc",
    ).design
    text = design.verilog()
    assert "2 machine(s)" in text
    assert "1 rendezvous channel(s)" in text


def test_non_ascii_identifier_never_reaches_verilog():
    """``é`` is not a legal Verilog identifier; the lexer refuses it
    rather than letting c2verilog emit ``reg signed [31:0] é;``."""
    source = "int é; int main(int s) { é = s; return é; }"
    with pytest.raises(LexError, match="unexpected character 'é'"):
        synthesize(source, SynthesisOptions(flow="c2verilog"))


# ---------------------------------------------------------------------------
# Net names: keywords and the module's own nets are renamed
# ---------------------------------------------------------------------------

_DECLARED = re.compile(r"\b(?:wire|reg)(?: signed)?(?: \[[^\]]*\])? (\w+)")


def _modules(source, flow):
    text = synthesize(source, SynthesisOptions(flow=flow)).verilog()
    return [m for m in text.split("\nmodule ")[1:]]


def _declared(module):
    """Every net a module declares, ports included, in order."""
    return _DECLARED.findall(module)


def _assert_names_clean(module):
    from repro.rtl.verilog import _VERILOG_KEYWORDS

    names = _declared(module)
    assert len(names) == len(set(names)), names
    assert not set(names) & _VERILOG_KEYWORDS


@pytest.mark.parametrize("flow", ["c2verilog", "handelc"])
def test_keyword_named_array_is_renamed(flow):
    """fir8's array ``output`` is a Verilog keyword."""
    from repro.workloads import WORKLOADS

    fir8 = next(w for w in WORKLOADS if w.name == "fir8")
    for module in _modules(fir8.source, flow):
        _assert_names_clean(module)
        assert not re.search(r"\boutput \[", module)
        assert re.search(r"reg \[31:0\] output_\d+ \[0:31\];", module)


def test_global_named_done_keeps_its_own_register():
    source = ("int done; int main(int n) { for (int i = 0; i < n; i++)"
              " { done = done + i; } return done; }")
    for module in _modules(source, "c2verilog"):
        _assert_names_clean(module)
        renamed = re.search(r"reg signed \[31:0\] (done_\d+);", module)
        assert renamed
        # The port is only ever set to a flag; the global's adds go to its
        # own register.
        assert re.search(rf"{renamed.group(1)} <= \({renamed.group(1)} \+",
                         module)
        assert re.findall(r"\bdone <= (.*);", module) == ["1'b0", "1'b1"]


@pytest.mark.parametrize("name", ["clk", "rst", "result", "state"])
def test_module_net_names_are_renamed(name):
    source = (f"int main(int n) {{ int {name} = 1; for (int i = 0; i < n;"
              f" i++) {{ {name} = {name} * 3 + i; }} return {name}; }}")
    for module in _modules(source, "c2verilog"):
        _assert_names_clean(module)
        assert re.search(rf"reg signed \[31:0\] {name}_\d+;", module)


def test_arg_prefixed_name_never_meets_a_port():
    """Parameter ``x`` becomes net ``x_0`` and port ``arg_x_0``; a global
    spelled ``arg_x_0`` must not declare that name a second time."""
    source = ("int arg_x_0; int main(int x) { for (int i = 0; i < x; i++)"
              " { arg_x_0 = arg_x_0 + x; } return arg_x_0; }")
    for module in _modules(source, "c2verilog"):
        _assert_names_clean(module)
        assert "input wire [31:0] arg_x_0," in module
        assert "reg signed [31:0] _arg_x_0;" in module


@pytest.mark.parametrize("flow", ["handelc", "specc", "bachc"])
def test_register_spelled_like_a_channel_port(flow):
    """A global spelled like one of channel ``c``'s handshake ports keeps
    a register of its own: the port is declared once."""
    source = ("chan<int> c; int c_ready_in; process void p() { send(c, 5); }"
              " int main(int x) { c_ready_in = recv(c); return c_ready_in"
              " + x; }")
    modules = _modules(source, flow)
    assert any("c_ready_in" in module for module in modules)
    for module in modules:
        _assert_names_clean(module)
        if "output reg c_ready_in" in module:
            assert not re.search(r"reg signed \[31:0\] c_ready_in;", module)
