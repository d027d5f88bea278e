"""E2 — the instruction-level parallelism limit study (Wall-style).

Paper claim: "it seems that ILP beyond about five simultaneous
instructions is unlikely due to fundamental limits [25, 26]" — with the
implicit caveat that regular scientific kernels are the exception.

Regenerated series: for each workload, ILP as a function of instruction
window size under perfect control (oracle), plus the no-speculation limit.
Expected shape: control-dominated workloads plateau in the single digits
(around Wall's ~5); regular dataflow kernels exceed it.
"""

import pytest

from repro.analysis import ilp_profile
from repro.ir import build_function
from repro.ir.passes import inline_program, optimize_cdfg
from repro.lang import parse
from repro.report import format_table
from repro.workloads import WORKLOADS

WINDOWS = (2, 4, 8, 16, 32, 64, 128)
# Channel/pointer workloads need flows, not traces; trace the pure-C ones.
TRACEABLE = [w for w in WORKLOADS if w.category in ("regular", "control", "memory")]


def profile_all():
    profiles = []
    for workload in TRACEABLE:
        program, info = parse(workload.source)
        inlined, _ = inline_program(program, info)
        cdfg = build_function(inlined.function("main"), info)
        optimize_cdfg(cdfg)
        profiles.append(
            ilp_profile(workload.name, cdfg, args=workload.args, windows=WINDOWS)
        )
    return profiles


def test_ilp_limits(benchmark, save_report):
    profiles = benchmark.pedantic(profile_all, rounds=1, iterations=1)
    rows = []
    for p in profiles:
        category = next(w.category for w in TRACEABLE if w.name == p.workload)
        rows.append(
            [p.workload, category, p.trace_length]
            + [f"{p.by_window[w]:.2f}" for w in WINDOWS]
            + [f"{p.dataflow_limit:.2f}", f"{p.no_speculation_limit:.2f}"]
        )
    text = format_table(
        ["workload", "category", "ops"]
        + [f"W={w}" for w in WINDOWS]
        + ["oracle", "no-spec"],
        rows,
        title="E2: ILP vs instruction window (perfect control), plus limits",
    )
    save_report("e2_ilp_limits", text)

    # Shape assertions: the paper's plateau.
    control = [p for p in profiles
               if next(w.category for w in TRACEABLE if w.name == p.workload)
               == "control"]
    regular = [p for p in profiles
               if next(w.category for w in TRACEABLE if w.name == p.workload)
               == "regular"]
    assert control and regular
    # No-speculation ILP of control code sits at or below Wall's ~5.
    assert all(p.no_speculation_limit <= 6.0 for p in control)
    # Regular kernels' oracle ILP exceeds the plateau.
    assert max(p.dataflow_limit for p in regular) > 6.0
    # Window curves are monotone and saturating.
    for p in profiles:
        series = [p.by_window[w] for w in WINDOWS]
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))
        assert series[-1] <= p.dataflow_limit + 1e-9
