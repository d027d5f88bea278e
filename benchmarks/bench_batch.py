"""E18 — batched simulation throughput over the scalar backends.

The batched backend (:mod:`repro.sim.batched`) compiles a design once
and runs N lanes in turn through that one specialisation; its payoff is
*campaign* throughput, where the runner coalesces thousands of tiny
same-design simulations into one batch.  This experiment pins three
things:

* **bit identity first** — every timed batch is compared lane-for-lane
  (value, cycles, globals, error text) against the scalar compiled
  backend before its timing enters the table; a speedup obtained by
  diverging is a bug, not a result;
* **the floor** — a fuzz campaign at 256 input lanes per program must
  run at least 10x more cells per second batched than compiled (the
  acceptance criterion for the subsystem), and at least 3x in the
  CI-sized quick configuration at 64 lanes;
* **no per-lane tax** — on the kernel table's widest row (256 lanes),
  the batch costs at most 20% more than 256 scalar compiled runs of the
  same kernel (``KERNEL_FLOOR``).

The kernel table shows the per-lane cost against the batch width
N ∈ {1, 16, 256}.  Both columns run the same generated function, so the
batch cannot be faster per lane than a warm scalar run; what it saves
is the per-design set-up a campaign would pay for every cell.
"""

import time

from repro.flows import compile_flow
from repro.fuzz import FuzzOptions, run_campaign
from repro.lang import InterpError
from repro.report import format_table

BATCH_WIDTHS = (1, 16, 256)
CAMPAIGN_LANES = 256
CAMPAIGN_FLOOR = 10.0      # the subsystem's acceptance criterion
QUICK_LANES = 64
QUICK_FLOOR = 3.0
KERNEL_FLOOR = 0.8         # 256-lane batch vs 256 warm scalar runs

# A short, branchy kernel with memory traffic — the fuzz-campaign
# regime, where scalar runs are dominated by per-run fixed costs.
KERNEL = """
int tab[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
int main(int n, int k) {
    int i;
    int acc = 0;
    for (i = 0; i < n; i = i + 1) {
        if ((i + k) % 3 == 0) {
            acc = acc + tab[(i + k) & 15];
        } else {
            acc = acc - (tab[i & 15] >> 1);
        }
        tab[(i * k) & 15] = acc & 1023;
    }
    return acc;
}
"""


def _lane_args(width):
    return [((lane % 37) + 3, (lane % 11) + 1) for lane in range(width)]


def _scalar_outcome(design, args):
    try:
        r = design.run(args=args, sim_backend="compiled")
        return (r.value, r.cycles, sorted(r.globals.items()))
    except InterpError as failure:
        return (type(failure).__name__, str(failure))


def _batch_outcome(lane):
    if not lane.ok:
        return (lane.error_kind, lane.error)
    r = lane.result
    return (r.value, r.cycles, sorted(r.globals.items()))


def _kernel_row(design, width):
    arg_sets = _lane_args(width)
    # Warm both paths once so neither pays one-time specialization.
    design.run(args=arg_sets[0], sim_backend="compiled")
    design.run_batch(arg_sets[:1], sim_backend="batched")

    start = time.perf_counter()
    scalar = [_scalar_outcome(design, args) for args in arg_sets]
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    lanes = design.run_batch(arg_sets, sim_backend="batched")
    batch_s = time.perf_counter() - start

    for i, (lane, reference) in enumerate(zip(lanes, scalar)):
        assert _batch_outcome(lane) == reference, (
            f"N={width} lane {i}: batched diverged from compiled"
        )
    speedup = scalar_s / batch_s if batch_s > 0 else float("inf")
    return [
        width, f"{scalar_s * 1e3:.2f}", f"{batch_s * 1e3:.2f}",
        f"{width / scalar_s:.0f}", f"{width / batch_s:.0f}",
        f"{speedup:.1f}x",
    ], speedup


def _kernel_table():
    design = compile_flow(KERNEL, flow="c2verilog")
    rows = []
    speedups = {}
    for width in BATCH_WIDTHS:
        row, speedup = _kernel_row(design, width)
        rows.append(row)
        speedups[width] = speedup
    return rows, speedups


def _campaign_throughput(tmp_path, backend, lanes):
    options = FuzzOptions.make(
        flows=["c2verilog"], seeds=8, jobs=1, reduce=False, mutations=1,
        corpus_dir=tmp_path / f"corpus-{backend}-{lanes}",
        sim_backend=backend, input_lanes=lanes, coverage=False,
    )
    report = run_campaign(options)
    assert not report.divergences, (
        f"campaign under {backend} found divergences — backend bug"
    )
    return report.cells_run, report.cells_run / report.elapsed_s


def _render(rows, title):
    return format_table(
        ["lanes", "compiled ms", "batched ms", "compiled runs/s",
         "batched runs/s", "speedup"],
        rows,
        title=title,
    )


def test_batch_campaign_speedup(benchmark, save_report, tmp_path):
    """Full E18: the 10x acceptance floor at 256 input lanes."""
    rows, kernel_speedups = _kernel_table()

    def _campaigns():
        cells, compiled_cps = _campaign_throughput(
            tmp_path, "compiled", CAMPAIGN_LANES)
        _, batched_cps = _campaign_throughput(
            tmp_path, "batched", CAMPAIGN_LANES)
        return cells, compiled_cps, batched_cps

    cells, compiled_cps, batched_cps = benchmark.pedantic(
        _campaigns, rounds=1, iterations=1)
    campaign_speedup = batched_cps / compiled_cps
    text = _render(
        rows,
        f"E18: batched simulation (campaign {cells} cells at {CAMPAIGN_LANES} lanes:"
        f" {compiled_cps:.0f} -> {batched_cps:.0f} cells/s,"
        f" {campaign_speedup:.1f}x, floor {CAMPAIGN_FLOOR:.0f}x)",
    )
    save_report("e18_batch", text)
    assert campaign_speedup >= CAMPAIGN_FLOOR, (
        f"campaign speedup {campaign_speedup:.2f}x is below the "
        f"{CAMPAIGN_FLOOR:.0f}x acceptance floor"
    )
    # The kernel table is the scaling picture, not the acceptance floor:
    # these lanes run long enough to amortize scalar fixed costs, so the
    # batch only has to keep pace with the warm scalar runs.
    assert kernel_speedups[max(BATCH_WIDTHS)] >= KERNEL_FLOOR, (
        f"256-lane batch ran at {kernel_speedups[max(BATCH_WIDTHS)]:.2f}x"
        f" of scalar compiled, below the {KERNEL_FLOOR}x kernel floor"
    )


def test_batch_campaign_speedup_quick(benchmark, save_report, tmp_path):
    """CI-sized variant: 64 lanes, a 3x floor.  Uploaded as the PR
    artifact by the bench-batch workflow job."""
    rows, kernel_speedups = _kernel_table()

    def _campaigns():
        cells, compiled_cps = _campaign_throughput(
            tmp_path, "compiled", QUICK_LANES)
        _, batched_cps = _campaign_throughput(
            tmp_path, "batched", QUICK_LANES)
        return cells, compiled_cps, batched_cps

    cells, compiled_cps, batched_cps = benchmark.pedantic(
        _campaigns, rounds=1, iterations=1)
    campaign_speedup = batched_cps / compiled_cps
    text = _render(
        rows,
        f"E18 (quick): batched simulation (campaign {cells} cells at {QUICK_LANES} lanes:"
        f" {compiled_cps:.0f} -> {batched_cps:.0f} cells/s,"
        f" {campaign_speedup:.1f}x, floor {QUICK_FLOOR:.0f}x)",
    )
    save_report("e18_batch_quick", text)
    assert campaign_speedup >= QUICK_FLOOR, (
        f"campaign speedup {campaign_speedup:.2f}x is below the "
        f"{QUICK_FLOOR:.0f}x quick floor"
    )
