"""Combinational netlist (Cones artifact) tests."""

import pytest

from repro.api import synthesize
from repro.flows import FlowError, UnsupportedFeature
from repro.interp import run_source
from repro.rtl.combinational import evaluate


def netlist_of(source, **options):
    design = synthesize(source, flow="cones", **options).design
    return design.netlist, design


def test_pure_expression_evaluates():
    netlist, _ = netlist_of("int main(int a, int b) { return a * b + 2; }")
    assert evaluate(netlist, args=(3, 4)).value == 14


def test_conditionals_if_converted():
    netlist, _ = netlist_of(
        "int main(int a) { int x = 0; if (a > 2) { x = 10; } else { x = 20; } return x + 1; }"
    )
    assert evaluate(netlist, args=(3,)).value == 11
    assert evaluate(netlist, args=(1,)).value == 21


def test_loops_fully_unrolled_into_logic():
    netlist, design = netlist_of(
        "int main(int a) { int s = 0; for (int i = 0; i < 8; i++) { s += a + i; } return s; }"
    )
    assert evaluate(netlist, args=(0,)).value == 28
    assert evaluate(netlist, args=(1,)).value == 36
    assert design.stats["loops_unrolled"] == 1


def test_dynamic_loop_bound_rejected():
    with pytest.raises(FlowError):
        netlist_of(
            "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }"
        )


def test_arrays_become_element_wires():
    netlist, _ = netlist_of(
        """
        int t[4] = {10, 20, 30, 40};
        int main(int i) { return t[i]; }
        """
    )
    # Dynamic index: a mux tree over all four elements.
    for i, expected in enumerate((10, 20, 30, 40)):
        assert evaluate(netlist, args=(i,)).value == expected
    assert netlist.element_inputs  # t's elements are inputs


def test_dynamic_store_becomes_per_element_muxes():
    netlist, _ = netlist_of(
        """
        int t[4];
        int main(int i) {
            t[i] = 9;
            return t[0] + t[1] + t[2] + t[3];
        }
        """
    )
    assert evaluate(netlist, args=(2,)).value == 9


def test_untaken_path_division_is_gated():
    netlist, _ = netlist_of(
        "int main(int a) { int r = 1; if (a != 0) { r = 100 / a; } return r; }"
    )
    # a == 0: the divide exists in hardware but its divisor is gated to 1.
    assert evaluate(netlist, args=(0,)).value == 1
    assert evaluate(netlist, args=(4,)).value == 25


def test_global_outputs_merged_over_paths():
    netlist, _ = netlist_of(
        """
        int g;
        int main(int a) {
            if (a > 0) { g = 1; } else { g = 2; }
            return g;
        }
        """
    )
    result = evaluate(netlist, args=(5,))
    assert result.globals["g"] == 1
    result = evaluate(netlist, args=(-5,))
    assert result.globals["g"] == 2


def test_multiple_returns_select_by_path():
    netlist, _ = netlist_of(
        """
        int main(int a) {
            if (a > 10) { return 1; }
            if (a > 5) { return 2; }
            return 3;
        }
        """
    )
    assert evaluate(netlist, args=(11,)).value == 1
    assert evaluate(netlist, args=(7,)).value == 2
    assert evaluate(netlist, args=(1,)).value == 3


def test_matches_interpreter_on_matmul():
    from repro.workloads import get

    w = get("matmul4")
    golden = run_source(w.source, args=w.args)
    netlist, _ = netlist_of(w.source)
    result = evaluate(netlist)
    assert result.value == golden.value
    assert result.globals["mc"] == golden.globals["mc"]


def test_area_and_depth_grow_with_unroll_bound():
    small, _ = netlist_of(
        "int main(int a) { int s = 0; for (int i = 0; i < 4; i++) { s += a * i; } return s; }"
    )
    large, _ = netlist_of(
        "int main(int a) { int s = 0; for (int i = 0; i < 16; i++) { s += a * i; } return s; }"
    )
    assert large.op_count > small.op_count
    assert large.area_ge() > small.area_ge()
    assert large.depth() >= small.depth()
    assert large.critical_path_ns() >= small.critical_path_ns()


def test_channels_and_waits_rejected():
    with pytest.raises(UnsupportedFeature):
        netlist_of("chan<int> c; int main() { return recv(c); }")
    with pytest.raises(UnsupportedFeature):
        netlist_of("int main() { wait(); return 0; }")


def test_cones_run_reports_zero_cycles():
    _, design = netlist_of("int main(int a) { return a + 1; }")
    result = design.run(args=(1,))
    assert result.cycles == 0
    assert result.time_ns > 0
