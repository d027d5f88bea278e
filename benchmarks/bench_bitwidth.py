"""E12 (extension) — recovering the bit widths C threw away.

Paper claim (opening argument): "Bit vectors are natural in hardware, yet
C only supports four sizes.  That C has types that match what the
processor directly manipulates ... is troubling when synthesizing hardware
from C."

The value-range narrowing pass (``repro.ir.passes.narrow``) measures the
cost of C's word-sized types: every workload is synthesized with and
without width recovery, and the table reports bits saved and the area
delta.  Kernels whose values are genuinely narrow (masked nibbles, small
counters, CRC bytes) shed real multiplier/register area; kernels already
written with sized types (``uint8``) or dominated by full-width data see
little change — exactly the gap a bit-vector-native language never opens.

The run also writes ``BENCH_bitwidth.json``: per kernel, the values
narrowed, the bits saved and the fraction of area saved.  None of these
depend on the host, and the test fails if any kernel's bits saved or
saved fraction falls below the committed report's: narrowing may only
get sharper.
"""

import json
import pathlib

from repro.analysis.pointer import plan_pointers
from repro.binding import estimate_cost
from repro.ir import build_function
from repro.ir.passes import inline_program, optimize_cdfg
from repro.ir.passes.narrow import narrow_widths
from repro.lang import parse
from repro.report import format_table
from repro.scheduling import ResourceSet, list_schedule_function
from repro.workloads import WORKLOADS

COMMITTED = pathlib.Path(__file__).parent / "results" / "BENCH_bitwidth.json"

CANDIDATES = [w for w in WORKLOADS if w.category in ("regular", "control", "memory")]

NIBBLE_KERNEL = """
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


def _cost(source, narrow):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    fn = inlined.function("main")
    cdfg = build_function(fn, info, plan_pointers(fn))
    optimize_cdfg(cdfg)
    report = None
    if narrow:
        report = narrow_widths(cdfg)
    schedule = list_schedule_function(cdfg, ResourceSet.typical(), clock_ns=5.0)
    return estimate_cost(schedule), report


def run_all():
    rows = []
    savings = {}
    metrics = {}
    for name, source in [("nibble16", NIBBLE_KERNEL)] + [
        (w.name, w.source) for w in CANDIDATES
    ]:
        wide, _ = _cost(source, narrow=False)
        slim, report = _cost(source, narrow=True)
        saving = 1.0 - slim.total_area_ge / wide.total_area_ge
        savings[name] = saving
        metrics[f"{name}.values_narrowed"] = (
            report.vregs_narrowed + report.registers_narrowed)
        metrics[f"{name}.bits_saved"] = report.bits_saved
        metrics[f"{name}.area_saved"] = round(saving, 4)
        rows.append([
            name,
            report.vregs_narrowed + report.registers_narrowed,
            report.bits_saved,
            f"{wide.total_area_ge:.0f}",
            f"{slim.total_area_ge:.0f}",
            f"{100 * saving:.1f}%",
        ])
    return rows, savings, metrics


def test_bitwidth_recovery(benchmark, save_report, save_bench):
    rows, savings, metrics = benchmark.pedantic(run_all, rounds=1,
                                                iterations=1)
    text = format_table(
        ["workload", "values narrowed", "bits saved", "area (32-bit)",
         "area (narrowed)", "saving"],
        rows,
        title="E12: value-range bit-width recovery vs C's word-sized types",
    )
    save_report("e12_bitwidth", text)
    save_bench("bitwidth", metrics=metrics, config={"exhibit": "E12"})
    committed = json.loads(COMMITTED.read_text())["metrics"]
    fallen = {key: (committed.get(key), value)
              for key, value in metrics.items()
              if not key.endswith(".values_narrowed")
              and (key not in committed or value < committed[key])}
    assert not fallen, f"saved less than the committed report: {fallen}"
    # The nibble kernel's 4x4 multiplies collapse the quadratic term.
    assert savings["nibble16"] > 0.15
    # Narrowing never increases area on any workload.
    assert all(s >= -0.02 for s in savings.values())
    # Somewhere in the real suite the recovery is material too.
    assert max(s for name, s in savings.items() if name != "nibble16") > 0.05
