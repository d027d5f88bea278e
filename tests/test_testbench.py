"""Self-checking testbench generation tests."""

import pytest

from repro.api import synthesize
from repro.interp import run_source
from repro.rtl.verilog import emit_fsmd_testbench


def test_testbench_embeds_golden_value():
    source = "int main(int a, int b) { return a * b + 1; }"
    design = synthesize(source, flow="c2verilog").design
    golden = run_source(source, args=(6, 7)).value
    run = design.run(args=(6, 7))
    tb = emit_fsmd_testbench(
        design.system.root, [6, 7], golden, expected_cycles=run.cycles
    )
    assert "module tb_main" in tb
    assert f"32'd{golden}" in tb
    assert "wait (done);" in tb
    assert '$display("PASS");' in tb
    assert "arg_a" in tb and "arg_b" in tb


def test_testbench_masks_arguments_to_port_width():
    source = "int main(uint8 v) { return v; }"
    design = synthesize(source, flow="c2verilog").design
    tb = emit_fsmd_testbench(design.system.root, [300], 44)
    assert "8'd44" in tb  # 300 wraps to 44 in 8 bits


def test_testbench_rejects_wrong_arity():
    design = synthesize("int main(int a) { return a; }", flow="c2verilog").design
    with pytest.raises(ValueError):
        emit_fsmd_testbench(design.system.root, [], 0)


def test_testbench_rejects_channel_designs():
    design = synthesize(
        """
        chan<int> c;
        process void p() { send(c, 1); }
        int main() { return recv(c); }
        """,
        flow="bachc",
    ).design
    with pytest.raises(ValueError):
        emit_fsmd_testbench(design.system.root, [], 1)


def test_testbench_pairs_with_module_for_handelc():
    source = "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }"
    design = synthesize(source, flow="handelc").design
    golden = run_source(source, args=(6,)).value
    module = design.verilog()
    tb = emit_fsmd_testbench(design.system.root, [6], golden)
    assert "module fsmd_main" in module
    assert "fsmd_main dut (" in tb
