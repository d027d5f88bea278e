#!/usr/bin/env python
"""Recovering the bit widths C's type system throws away.

"Bit vectors are natural in hardware, yet C only supports four sizes" —
the paper's very first technical complaint.  This example compiles a
nibble-arithmetic kernel (everything fits in 4-8 bits, but C says `int`)
with and without the value-range narrowing pass, and prints what the
32-bit types were costing.

Run:  python examples/bitwidth_recovery.py
"""

from repro.analysis.pointer import plan_pointers
from repro.flows import compile_flow
from repro.ir import build_function
from repro.ir.passes import inline_program, narrow_widths, optimize_cdfg
from repro.lang import parse
from repro.report import format_table

SOURCE = """
int main(int x) {
    int acc = 0;
    for (int i = 0; i < 16; i++) {
        int lo = (x >> i) & 15;      // a nibble, whatever C says
        int hi = ((x >> i) >> 4) & 15;
        acc += lo * hi;              // 4x4-bit multiply in 'int' clothing
    }
    return acc;
}
"""


def main() -> None:
    program, info = parse(SOURCE)
    inlined, _ = inline_program(program, info)
    fn = inlined.function("main")
    cdfg = build_function(fn, info, plan_pointers(fn))
    optimize_cdfg(cdfg)
    report = narrow_widths(cdfg)
    print(f"values narrowed    : {report.vregs_narrowed} wires,"
          f" {report.registers_narrowed} registers")
    print(f"bits recovered     : {report.bits_saved}\n")

    wide = compile_flow(SOURCE, flow="c2verilog", narrow=False)
    slim = compile_flow(SOURCE, flow="c2verilog", narrow=True)
    test_inputs = (0x12345678, 0x0F0F0F0F, -1, 42)
    for value in test_inputs:
        assert wide.run(args=(value,)).value == slim.run(args=(value,)).value
    print(f"equivalence checked on {len(test_inputs)} inputs\n")

    rows = []
    for label, design in (("32-bit (C's types)", wide), ("narrowed", slim)):
        cost = design.cost()
        rows.append([label, f"{cost.area_ge:.0f}", f"{cost.clock_ns:.2f}",
                     cost.registers])
    print(format_table(["datapath", "area (GE)", "clock (ns)", "registers"],
                       rows))
    saving = 1 - slim.cost().area_ge / wide.cost().area_ge
    print(f"\narea saved by knowing the real widths: {100 * saving:.1f}%")
    print("(a Verilog designer writes wire [3:0] and never pays this tax)")


if __name__ == "__main__":
    main()
