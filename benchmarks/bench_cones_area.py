"""E6 — the cost of flattening everything into combinational logic.

Paper claim: Cones "flattens each function, including loops and
conditionals, into a single two-level network" — which is only viable for
small, bounded computations: the network's operator count grows with the
total unrolled work, while an FSMD reuses one datapath across cycles.

Regenerated series: Cones operator count / area / critical path vs. the
problem size N, against the (near-flat) FSMD datapath area, plus the same
comparison across real workloads.
"""

import pytest

from repro.flows import FlowError, compile_flow
from repro.report import format_table
from repro.workloads import WORKLOADS

TEMPLATE = """
int data[{n}];
int main(int x) {{
    int s = 0;
    for (int i = 0; i < {n}; i++) {{
        data[i] = (x + i) * 3;
        s += data[i] ^ i;
    }}
    return s;
}}
"""

SIZES = (2, 4, 8, 16, 32)


def sweep_sizes():
    rows = []
    for n in SIZES:
        source = TEMPLATE.format(n=n)
        cones = compile_flow(source, flow="cones")
        fsmd = compile_flow(source, flow="c2verilog")
        cones_cost = cones.cost()
        fsmd_cost = fsmd.cost()
        rows.append([
            n,
            cones.netlist.op_count,
            f"{cones_cost.area_ge:.0f}",
            f"{cones_cost.critical_path_ns:.1f}",
            f"{fsmd_cost.area_ge:.0f}",
            f"{cones_cost.area_ge / fsmd_cost.area_ge:.2f}x",
        ])
    return rows


def test_cones_area_explosion(benchmark, save_report):
    rows = benchmark.pedantic(sweep_sizes, rounds=1, iterations=1)
    text = format_table(
        ["N", "cones ops", "cones area(GE)", "cones path(ns)",
         "fsmd area(GE)", "area ratio"],
        rows,
        title="E6a: combinational flattening vs FSMD, loop bound N",
    )
    save_report("e6a_cones_growth", text)
    ops = [int(r[1]) for r in rows]
    cones_area = [float(r[2]) for r in rows]
    fsmd_area = [float(r[4]) for r in rows]
    # Cones grows superlinearly (per-element mux trees on top of the
    # unrolled work); the FSMD datapath stays within a small factor.
    assert ops[-1] > ops[0] * (SIZES[-1] // SIZES[0])
    assert cones_area[-1] > cones_area[0] * 10
    assert fsmd_area[-1] < fsmd_area[0] * 4


#: Each kernel's Cones area (GE) and critical path (ns) at opt_level 1
#: from the unroll-then-flatten pipeline, and the suite's total netlist
#: ops, that symbolic execution replaced.  No kernel may cost more, and
#: the total must shrink by at least a fifth.
UNROLLING_PIPELINE_ROWS = {
    "fir8": (895560, 71.9),
    "dot16": (61800, 36.5),
    "matmul4": (244680, 18.5),
    "dct8": (250840, 35.9),
    "crc8": (89060, 548.3),
    "parser": (62696, 149.7),
    "maxsearch": (14316, 77.8),
    "histogram": (421848, 624.4),
    "bubble": (105838, 419.3),
    "prefix": (6440, 46.0),
    "popcount": (349448, 94.1),
}
UNROLLING_PIPELINE_OPS = 9745


def test_cones_vs_fsmd_on_workloads(benchmark, save_report, save_bench):
    candidates = [w for w in WORKLOADS if w.static_bounds]

    def run_all():
        rows = []
        for w in candidates:
            try:
                cones = compile_flow(w.source, flow="cones")
            except FlowError:
                continue
            fsmd = compile_flow(w.source, flow="c2verilog")
            cones_cost = cones.cost()
            fsmd_cost = fsmd.cost()
            fsmd_run = fsmd.run(args=w.args)
            rows.append([
                w.name,
                cones.netlist.op_count,
                f"{cones_cost.area_ge:.0f}",
                f"{cones_cost.critical_path_ns:.1f}",
                f"{fsmd_cost.area_ge:.0f}",
                fsmd_run.cycles,
                f"{cones_cost.area_ge / fsmd_cost.area_ge:.2f}x",
            ])
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert len(rows) >= 5
    text = format_table(
        ["workload", "cones ops", "cones area", "cones path(ns)",
         "fsmd area", "fsmd cycles", "area ratio"],
        rows,
        title="E6b: Cones vs C2Verilog FSMD on statically bounded workloads",
    )
    save_report("e6b_cones_workloads", text)
    ratios = [float(r[6][:-1]) for r in rows]
    assert max(ratios) > 3.0  # somewhere, flattening really hurts
    total_ops = sum(int(r[1]) for r in rows)
    save_bench("cones", {
        "suite_netlist_ops": total_ops,
        "suite_area_ge": round(sum(float(r[2]) for r in rows)),
        "ops_vs_unrolling_pipeline": round(
            total_ops / UNROLLING_PIPELINE_OPS, 3),
    }, config={"exhibit": "E6b", "opt_level": 1,
               "unrolling_pipeline_ops": UNROLLING_PIPELINE_OPS})
    assert total_ops <= 0.8 * UNROLLING_PIPELINE_OPS, total_ops
    assert {r[0] for r in rows} == set(UNROLLING_PIPELINE_ROWS)
    for r in rows:
        area, path = UNROLLING_PIPELINE_ROWS[r[0]]
        assert float(r[2]) <= area and float(r[3]) <= path, r
