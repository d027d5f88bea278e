#!/usr/bin/env python
"""Reproduce the paper's ILP argument on your own code.

"it seems that ILP beyond about five simultaneous instructions is
unlikely due to fundamental limits [Wall]" — this example runs the
Wall-style limit study on two contrasting kernels and prints the window
curves, so you can see where the plateau comes from.

Run:  python examples/ilp_study.py
"""

from repro.analysis import ilp_profile
from repro.ir import build_function
from repro.ir.passes import inline_program, optimize_cdfg
from repro.lang import parse
from repro.report import format_series

REGULAR = """
int a[32];
int b[32];
int main() {
    int s = 0;
    for (int i = 0; i < 32; i++) { a[i] = i * 3; b[i] = i ^ 5; }
    for (int i = 0; i < 32; i++) { s += a[i] * b[i]; }
    return s;
}
"""

BRANCHY = """
int main(int seed) {
    int x = seed;
    int steps = 0;
    while (x != 1 && steps < 200) {
        if (x % 2 == 0) { x = x / 2; } else { x = 3 * x + 1; }
        steps++;
    }
    return steps;
}
"""

WINDOWS = (2, 4, 8, 16, 32, 64, 128, 256)


def study(name, source, args):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    cdfg = build_function(inlined.function("main"), info)
    optimize_cdfg(cdfg)
    profile = ilp_profile(name, cdfg, args=args, windows=WINDOWS)
    print(format_series(
        f"{name}: ILP vs window (perfect branch prediction)",
        [(w, profile.by_window[w]) for w in WINDOWS],
        x_label="window", y_label="ILP",
    ))
    print(f"  dataflow limit (infinite window): {profile.dataflow_limit:.2f}")
    print(f"  without speculation:              {profile.no_speculation_limit:.2f}")
    print()


def main() -> None:
    study("vector kernel", REGULAR, ())
    study("collatz (branchy)", BRANCHY, (27,))
    print("The branchy kernel's no-speculation number is the paper's point:")
    print("without heroic control speculation, compiler-found ILP sits far")
    print("below what the 'turn C into hardware' pitch needs.")


if __name__ == "__main__":
    main()
