"""E18 — lane coalescing: the same cells coalesced and alone.

The matrix runner coalesces the cache-missing cells of one design (the
same source and options, different inputs) into one payload: one
compile, then each cell's run as a lane of it.  Its payoff is campaign
throughput, where thousands of tiny same-design simulations would each
pay the whole compile.  This experiment pins two things:

* **identity first** — every coalesced cell's ``CellResult.identity()``
  equals the same cell's run alone before the timing counts; a speedup
  obtained by diverging is a bug, not a result;
* **the floor** — N cells of E18's kernel in one ``run_cells`` call run
  at least 10x more cells per second than one call per cell at
  N = 256, and at least 3x at N = 64 in the CI-sized quick
  configuration.  A one-cell call has nothing to coalesce, so the
  baseline needs no switch.

Both modes run the compiled engine and judge every cell against the
golden interpreter; the engine memoizes the golden model's parse per
source, so both pay the same judging cost.
"""

import time

from repro.api import SynthesisOptions
from repro.report import format_table
from repro.runner import CellTask, MatrixEngine

CAMPAIGN_LANES = 256
CAMPAIGN_FLOOR = 10.0
QUICK_LANES = 64
QUICK_FLOOR = 3.0

# A short, branchy kernel with memory traffic — the fuzz-campaign
# regime, where a cell alone is dominated by its compile.
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


def _tasks(lanes):
    return [
        CellTask(workload=f"lane{lane}", source=KERNEL,
                 options=SynthesisOptions(flow="c2verilog",
                                          sim_backend="compiled"),
                 args=((lane % 37) + 3, (lane % 11) + 1))
        for lane in range(lanes)
    ]


def _engine():
    return MatrixEngine(jobs=1, cache=None)


def _coalesced(tasks):
    start = time.perf_counter()
    results = _engine().run_cells(tasks)
    return results, time.perf_counter() - start


def _alone(tasks):
    engine = _engine()
    start = time.perf_counter()
    results = [engine.run_cells([task])[0] for task in tasks]
    return results, time.perf_counter() - start


def _measure(lanes):
    tasks = _tasks(lanes)
    # One untimed cell first, so neither mode pays the first compile's
    # imports and warm-up.
    _engine().run_cells(tasks[:1])
    coalesced, coalesced_s = _coalesced(tasks)
    alone, alone_s = _alone(tasks)
    assert all(result.ok for result in coalesced)
    for index, (lane, cell) in enumerate(zip(coalesced, alone)):
        assert lane.identity() == cell.identity(), (
            f"lane {index}: coalesced result differs from the cell alone"
        )
    return alone_s, coalesced_s


def _report(lanes, alone_s, coalesced_s, floor, title):
    speedup = alone_s / coalesced_s
    rows = [
        ["alone", lanes, lanes, f"{alone_s:.2f}", f"{lanes / alone_s:.0f}"],
        ["coalesced", lanes, 1, f"{coalesced_s:.2f}",
         f"{lanes / coalesced_s:.0f}"],
    ]
    return speedup, format_table(
        ["mode", "cells", "run_cells calls", "wall s", "cells/s"],
        rows,
        title=f"{title}: {lanes} cells of one design,"
              f" {speedup:.1f}x coalesced (floor {floor:.0f}x)",
    )


def test_batch_campaign_speedup(benchmark, save_report):
    """Full E18: the 10x floor at 256 cells."""
    alone_s, coalesced_s = benchmark.pedantic(
        _measure, args=(CAMPAIGN_LANES,), rounds=1, iterations=1)
    speedup, text = _report(CAMPAIGN_LANES, alone_s, coalesced_s,
                            CAMPAIGN_FLOOR, "E18: lane coalescing")
    save_report("e18_batch", text)
    assert speedup >= CAMPAIGN_FLOOR, (
        f"coalescing speedup {speedup:.2f}x is below the "
        f"{CAMPAIGN_FLOOR:.0f}x floor"
    )


def test_batch_campaign_speedup_quick(benchmark, save_report):
    """CI-sized variant: 64 cells, a 3x floor.  Uploaded as the PR
    artifact by the bench-batch workflow job."""
    alone_s, coalesced_s = benchmark.pedantic(
        _measure, args=(QUICK_LANES,), rounds=1, iterations=1)
    speedup, text = _report(QUICK_LANES, alone_s, coalesced_s,
                            QUICK_FLOOR, "E18 (quick): lane coalescing")
    save_report("e18_batch_quick", text)
    assert speedup >= QUICK_FLOOR, (
        f"coalescing speedup {speedup:.2f}x is below the "
        f"{QUICK_FLOOR:.0f}x quick floor"
    )
