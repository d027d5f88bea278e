#!/usr/bin/env python
"""An FIR filter through every surveyed language.

The same source program is compiled by all eleven Table-1 flows (Ocapi
aside — it is a structural API, see ocapi_structural.py); each either
produces working hardware whose simulation matches the golden model, or
rejects the program for the same reason the historical tool would have.

Run:  python examples/fir_filter_all_flows.py
"""

from repro.flows import COMPILABLE, FlowError, REGISTRY, synthesize
from repro.interp import run_source
from repro.report import format_table
from repro.workloads import get


def main() -> None:
    workload = get("fir8")
    golden = run_source(workload.source, args=workload.args)
    print(f"fir8: 8-tap FIR over 32 samples; golden checksum = {golden.value}\n")

    rows = []
    for key in COMPILABLE:
        flow = REGISTRY[key]
        try:
            design = synthesize(workload.source, flow=key).design
        except FlowError as rejection:
            rows.append([key, "rejected", "-", "-", "-",
                         str(rejection).split("] ", 1)[-1][:48]])
            continue
        result = design.run(args=workload.args)
        cost = design.cost()
        status = "OK" if result.value == golden.value else "MISMATCH"
        latency = (
            f"{result.cycles * cost.clock_ns:.0f}"
            if cost.clock_ns > 0 else f"{result.time_ns:.0f}"
        )
        rows.append([
            key, status, result.cycles if cost.clock_ns else "-",
            latency, f"{cost.area_ge:.0f}",
            flow.metadata.timing_detail[:48],
        ])
    print(format_table(
        ["flow", "status", "cycles", "latency(ns)", "area(GE)",
         "timing model"],
        rows,
    ))


if __name__ == "__main__":
    main()
