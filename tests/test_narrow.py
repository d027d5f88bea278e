"""Bit-width narrowing tests: soundness first, then payoff."""

import pytest

from repro.api import synthesize
from repro.interp import run_program
from repro.ir import build_function
from repro.ir.passes import inline_program, optimize_cdfg
from repro.ir.passes.narrow import minimal_type, narrow_widths
from repro.lang import parse
from repro.lang.types import IntType
from tests.cdfg_oracle import execute


def build(source):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    cdfg = build_function(inlined.function("main"), info)
    optimize_cdfg(cdfg)
    return cdfg, program, info


def narrowed_equivalent(source, args=()):
    cdfg, program, info = build(source)
    golden = run_program(program, info, "main", args)
    report = narrow_widths(cdfg)
    result = execute(cdfg, args=args)
    assert result.value == golden.value, (result.value, golden.value)
    return cdfg, report


# ---------------------------------------------------------------------------
# minimal_type
# ---------------------------------------------------------------------------


def test_minimal_type_unsigned():
    assert minimal_type((0, 255), False) == IntType(8, signed=False)
    assert minimal_type((0, 256), False) == IntType(9, signed=False)
    assert minimal_type((0, 0), False) == IntType(1, signed=False)
    assert minimal_type((0, 1), False) == IntType(1, signed=False)


def test_minimal_type_signed():
    assert minimal_type((-128, 127), True) == IntType(8, signed=True)
    assert minimal_type((-129, 0), True) == IntType(9, signed=True)
    assert minimal_type((0, 127), True) == IntType(8, signed=True)


# ---------------------------------------------------------------------------
# Soundness
# ---------------------------------------------------------------------------


def test_masked_values_narrow_and_stay_correct():
    cdfg, report = narrowed_equivalent(
        "int main(int x) { return (x & 15) + (x & 7); }", (1234,)
    )
    assert report.vregs_narrowed >= 2
    assert report.bits_saved > 0


def test_counted_loop_counter_narrows():
    cdfg, report = narrowed_equivalent(
        "int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; }"
    )
    # i in [0, 10]: 5 bits (its declared register shrinks from 32).
    counters = [
        s for s in cdfg.registers
        if s.name.startswith("i") and isinstance(s.type, IntType)
    ]
    assert report.registers_narrowed >= 1
    assert any(s.type.width <= 8 for s in counters)


def _register(cdfg, name):
    return next(s for s in cdfg.registers if s.name == name)


def test_long_loop_counter_stops_at_its_guard():
    # Still moving once its loop head widens, i widens to the guard's
    # constant, not to its type: [0, 6000] is 14 signed bits.
    cdfg, _ = narrowed_equivalent(
        "int main() { int s = 0;"
        " for (int i = 0; i < 6000; i++) { s += 1; } return s; }"
    )
    assert _register(cdfg, "i").type == IntType(14, signed=True)


def test_comparison_of_two_variables_narrows_both():
    cdfg, _ = narrowed_equivalent(
        "int main(int n) { int s = 0; int lim = n & 63;"
        " for (int i = 0; i < lim; i++) { s += 2; } return s; }", (45,)
    )
    assert _register(cdfg, "i").type == IntType(7, signed=True)


def test_not_equal_guard_bounds_its_counter():
    cdfg, _ = narrowed_equivalent(
        "int main() { int i = 0; int s = 0;"
        " while (i != 10) { s += i; i++; } return s; }"
    )
    assert _register(cdfg, "i").type == IntType(5, signed=True)


def test_parameters_keep_interface_width():
    cdfg, _ = narrowed_equivalent("int main(int a) { return a & 3; }", (7,))
    param = cdfg.params[0]
    assert param.type == IntType(32, signed=True)


def test_globals_keep_interface_width():
    cdfg, _ = narrowed_equivalent(
        "int g; int main() { g = 3; return g; }"
    )
    for symbol in cdfg.registers:
        if symbol.name == "g":
            assert symbol.type.bit_width == 32


def test_signed_ranges_handled():
    narrowed_equivalent(
        "int main(int a) { int d = (a & 7) - 7; return d * d; }", (0,)
    )
    narrowed_equivalent(
        "int main(int a) { int d = (a & 7) - 7; return d * d; }", (7,)
    )


def test_wrapping_code_is_not_narrowed_incorrectly():
    # v + 100 can wrap in uint8 — the pass must keep uint8 semantics.
    source = "int main() { uint8 v = 200; v = v + 100; return v; }"
    cdfg, _ = narrowed_equivalent(source)
    assert execute(cdfg).value == 44


def test_modulo_bounds_divisor():
    cdfg, report = narrowed_equivalent(
        "int main(int x) { int r = x % 13; return r * r; }", (200,)
    )
    narrowed_equivalent(
        "int main(int x) { int r = x % 13; return r * r; }", (-200,)
    )


@pytest.mark.parametrize("source, args", [
    ("int main(int x) { return x >> 28; }", (0x70000000,)),
    ("int main(int x) { return x >> 31; }", (2,)),
    ("int main(int x) { return (x & 0xFFFF) >> 12; }", (0xF000,)),
    ("int main(int x, int s) { return (x & 0xFFFF) >> ((s & 3) + 12); }",
     (0xF000, 0)),
])
def test_narrowed_shift_keeps_its_amount(source, args):
    # The machine saturates a shift amount at the result's width: a
    # result narrowed below its amount would shift by less.
    narrowed_equivalent(source, args)


@pytest.mark.parametrize("seed", range(8))
def test_narrowing_preserves_generated_programs(seed):
    from repro.workloads import dataflow_source

    source = dataflow_source(seed, statements=10, depth=3)
    narrowed_equivalent(source, (seed * 7 + 1, seed * 3 + 2))


@pytest.mark.parametrize("workload_name",
                         ["fir8", "dot16", "crc8", "histogram", "parser"])
def test_narrowing_preserves_workloads(workload_name):
    from repro.workloads import get

    w = get(workload_name)
    cdfg, program, info = build(w.source)
    golden = run_program(program, info, "main", w.args)
    narrow_widths(cdfg)
    mem_init = {}
    reg_init = {}
    for g in program.globals:
        s = g.symbol
        init = info.global_inits.get(s.name)
        if init is None:
            continue
        if isinstance(init, list):
            target = next((a for a in cdfg.arrays if a is s), None)
            if target is not None:
                mem_init[target] = list(init)
        else:
            reg_init[s] = init
    result = execute(cdfg, args=w.args, register_init=reg_init,
                     memory_init=mem_init)
    assert result.value == golden.value


# ---------------------------------------------------------------------------
# Payoff
# ---------------------------------------------------------------------------


def test_narrowing_shrinks_datapath_area():
    source = """
    int main(int x) {
        int acc = 0;
        for (int i = 0; i < 16; i++) {
            int lo = (x >> i) & 15;
            int hi = ((x >> i) >> 4) & 15;
            acc += lo * hi;
        }
        return acc;
    }
    """
    wide = synthesize(source, flow="c2verilog", opt_level=2).design
    slim = synthesize(source, flow="c2verilog", opt_level=3).design
    wide_run = wide.run(args=(123456,))
    slim_run = slim.run(args=(123456,))
    assert wide_run.value == slim_run.value
    # 4x4-bit multiplies instead of 32x32: the quadratic term collapses.
    assert slim.cost().area_ge < wide.cost().area_ge * 0.8


def test_narrowing_is_idempotent():
    cdfg, first = narrowed_equivalent(
        "int main(int x) { return (x & 31) * 3; }", (99,)
    )
    second = narrow_widths(cdfg)
    assert second.bits_saved == 0
