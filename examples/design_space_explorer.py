#!/usr/bin/env python
"""Design-space exploration: the knob the scheduled flows give designers.

The paper contrasts implicit timing rules (recode the program to move on
the latency/clock curve) with scheduled flows, where "such constraints ...
allow easier design-space exploration": the *same source* is resynthesized
under different resource and clock targets.

This example sweeps a DCT kernel across datapath widths and clock targets
under the C2Verilog flow and prints the latency/area frontier.

Run:  python examples/design_space_explorer.py
"""

from repro.api import synthesize
from repro.report import format_table
from repro.scheduling import ResourceSet
from repro.workloads import get


def main() -> None:
    workload = get("dct8")
    print(f"exploring {workload.name}: {workload.description}\n")

    points = []
    for label, resources in (
        ("1 ALU, 1 MUL", ResourceSet(alu=1, multiplier=1, shifter=1, divider=1)),
        ("2 ALU, 1 MUL", ResourceSet(alu=2, multiplier=1, shifter=1, divider=1)),
        ("2 ALU, 2 MUL", ResourceSet(alu=2, multiplier=2, shifter=1, divider=1)),
        ("4 ALU, 4 MUL", ResourceSet(alu=4, multiplier=4, shifter=2, divider=1)),
    ):
        for clock_ns in (4.0, 8.0, 16.0):
            design = synthesize(
                workload.source, flow="c2verilog",
                resources=resources, clock_ns=clock_ns,
            ).design
            result = design.run(args=workload.args)
            cost = design.cost()
            points.append({
                "datapath": label,
                "target clk": clock_ns,
                "cycles": result.cycles,
                "achieved clk": cost.clock_ns,
                "latency_ns": result.cycles * cost.clock_ns,
                "area": cost.area_ge,
            })

    points.sort(key=lambda p: p["latency_ns"])
    rows = [
        [p["datapath"], f"{p['target clk']:.0f}", p["cycles"],
         f"{p['achieved clk']:.1f}", f"{p['latency_ns']:.0f}",
         f"{p['area']:.0f}"]
        for p in points
    ]
    print(format_table(
        ["datapath", "target clk(ns)", "cycles", "achieved clk(ns)",
         "latency(ns)", "area(GE)"],
        rows,
        title="dct8 design space (sorted by latency)",
    ))

    pareto = []
    best_area = float("inf")
    for p in points:
        if p["area"] < best_area:
            pareto.append(p)
            best_area = p["area"]
    print(f"\nPareto frontier (latency vs area): {len(pareto)} points")
    for p in pareto:
        print(f"  {p['latency_ns']:8.0f} ns   {p['area']:8.0f} GE"
              f"   [{p['datapath']} @ {p['target clk']} ns]")


if __name__ == "__main__":
    main()
