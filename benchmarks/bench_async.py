"""E7 — asynchronous dataflow (CASH) vs synchronous FSMDs.

Paper claim: CASH "is unique because it generates asynchronous hardware.
It identifies instruction-level parallelism in ANSI C and generates
asynchronous dataflow circuits."

Regenerated table: per workload, the synchronous design's latency (cycles ×
estimated clock) against the asynchronous design's completion time and its
measured operator-level concurrency.  Expected shape: the asynchronous
circuit tracks each operator's true delay (winning on unbalanced,
control-ish code where the clock is set by a worst-case path), while the
synchronous design amortizes better on long regular loops; CASH pays area
for spatial computation either way.
"""

import pytest

from repro.api import synthesize
from repro.report import format_table
from repro.workloads import WORKLOADS

CANDIDATES = [
    w for w in WORKLOADS if w.category in ("regular", "control", "memory")
]


def run_matrix():
    rows = []
    wins = 0
    for w in CANDIDATES:
        sync = synthesize(w.source, flow="c2verilog").design
        sync_run = sync.run(args=w.args)
        cash = synthesize(w.source, flow="cash").design
        cash_run = cash.run(args=w.args)
        assert sync_run.value == cash_run.value
        if cash_run.time_ns < sync_run.time_ns:
            wins += 1
        rows.append([
            w.name, w.category,
            sync_run.cycles, f"{sync_run.time_ns:.0f}",
            f"{cash_run.time_ns:.0f}",
            f"{sync_run.time_ns / max(cash_run.time_ns, 1e-9):.2f}x",
            f"{cash_run.stats['average_parallelism']:.2f}",
            f"{cash.cost().area_ge:.0f}",
            f"{sync.cost().area_ge:.0f}",
        ])
    return rows, wins


def test_async_vs_sync(benchmark, save_report):
    rows, wins = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    text = format_table(
        ["workload", "category", "sync cyc", "sync ns", "async ns",
         "async speedup", "avg parallelism", "async area", "sync area"],
        rows,
        title="E7: CASH asynchronous dataflow vs C2Verilog synchronous FSMD",
    )
    save_report("e7_async", text)
    # The asynchronous circuit wins on most workloads (no worst-case clock).
    assert wins >= len(rows) // 2
    # Spatial computation costs area: CASH is bigger than the shared
    # datapath on the majority of kernels.
    bigger = sum(1 for r in rows if float(r[7]) > float(r[8]))
    assert bigger >= len(rows) // 3
    # Measured concurrency exceeds 1 where the code is parallel at all.
    parallelism = [float(r[6]) for r in rows]
    assert max(parallelism) > 1.5
