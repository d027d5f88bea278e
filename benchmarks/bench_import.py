"""E23 — what each entry point imports, and what that costs cold.

A user who compiles with one flow should not pay at start-up for the
other ten, the FSMD engines, the modulo scheduler, the ILP analysis or
the process pool.  This experiment runs each entry point in fresh
interpreters and reports, per entry point:

* the number of ``repro`` modules loaded, and the number of other
  modules loaded beyond those a bare interpreter already has (the
  standard library the work pulls in).  The interpreters run with
  ``-S``, so no ``site`` hook preloads anything, and both counts are
  deterministic for a given Python version: the entry points are gated
  on them, and a change that makes one load more fails here;
* the median wall time, in ms, of the entry point's imports and work
  inside the interpreter (interpreter start-up excluded), over
  ``SAMPLES`` fresh interpreters.  Host-dependent, so never gated.

The "everything loaded" row imports the whole flow registry, every
simulation engine and every ``repro.runner`` name.  It is reported, not
gated: it shows the total the lazy imports defer, which a caller that
needs everything still pays.

Writes ``BENCH_import.json`` and ``e23_import.txt`` under ``benchmarks/latest/``.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from repro.report import format_table

SRC = Path(__file__).resolve().parents[1] / "src"
SAMPLES = 10

ENTRY_POINTS = {
    "compile c2verilog": (
        "from repro.api import SynthesisOptions, synthesize\n"
        "result = synthesize('int main(int n) { return n + 1; }',\n"
        "                    SynthesisOptions(flow='c2verilog'))\n"
        "result.cost()\n"
        "result.verilog()\n"
    ),
    "import repro.runner.cells": "import repro.runner.cells\n",
    "repro --help": (
        "import contextlib, io, runpy\n"
        "sys.argv = ['repro', '--help']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit:\n"
        "        pass\n"
    ),
    "everything loaded": (
        "from repro.flows import REGISTRY\n"
        "import repro.sim.async_sim, repro.sim.compiled\n"
        "import repro.sim.fsmd_sim\n"
        "from repro.runner import *\n"
    ),
}

# The measured counts (CPython 3.11): repro modules, other modules.  An
# entry point above its bound imports more than it runs.  A compile's 34
# other modules include ``bisect`` and its C half ``_bisect``: the lexer
# finds the line of every AST node's location with ``bisect_right``.
BOUNDS = {
    "compile c2verilog": (55, 34),
    "import repro.runner.cells": (4, 31),
    "repro --help": (8, 48),
}

HARNESS = (
    "import json, sys, time\n"
    "before = set(sys.modules)\n"
    "started = time.perf_counter()\n"
    "{snippet}"
    "elapsed = time.perf_counter() - started\n"
    "loaded = set(sys.modules) - before\n"
    "ours = sum(1 for m in loaded if m == 'repro' or m.startswith('repro.'))\n"
    "print(json.dumps({{'ms': elapsed * 1e3, 'repro': ours,\n"
    "                  'other': len(loaded) - ours}}))\n"
)


def _sample(snippet: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", HARNESS.format(snippet=snippet)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _measure():
    rows = {}
    for name, snippet in ENTRY_POINTS.items():
        samples = [_sample(snippet) for _ in range(SAMPLES)]
        counts = {(s["repro"], s["other"]) for s in samples}
        assert len(counts) == 1, f"{name}: module counts varied: {counts}"
        (repro, other), = counts
        ms = sorted(s["ms"] for s in samples)
        rows[name] = {
            "repro_modules": repro,
            "other_modules": other,
            "cold_ms_median": round(statistics.median(ms), 1),
            "cold_ms_q1": round(ms[len(ms) // 4], 1),
            "cold_ms_q3": round(ms[(3 * len(ms)) // 4], 1),
        }
    return rows


def test_entry_point_imports(benchmark, save_report, save_bench):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table = [
        [name, row["repro_modules"], row["other_modules"],
         f"{row['cold_ms_median']:.1f}",
         f"{row['cold_ms_q1']:.1f}–{row['cold_ms_q3']:.1f}",
         "/".join(map(str, BOUNDS[name])) if name in BOUNDS else "—"]
        for name, row in rows.items()
    ]
    save_report("e23_import", format_table(
        ["entry point", "repro modules", "other modules", "cold ms (median)",
         "cold ms (IQR)", "bound"],
        table,
        title=(f"E23: modules each entry point loads, and its cold time "
               f"over {SAMPLES} fresh interpreters"),
    ))
    save_bench(
        "import",
        metrics={
            f"{name.replace(' ', '_').replace('-', '')}.{key}": value
            for name, row in rows.items() for key, value in row.items()
        },
        config={"samples": SAMPLES, "bounds": BOUNDS, "exhibit": "E23"},
    )
    over = {
        name: (rows[name]["repro_modules"], rows[name]["other_modules"])
        for name, (repro, other) in BOUNDS.items()
        if rows[name]["repro_modules"] > repro
        or rows[name]["other_modules"] > other
    }
    assert not over, f"entry points import more than they run: {over}"

