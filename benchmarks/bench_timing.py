"""E17 — time-sensitive checker: runtime, matrix agreement, probe kill rate.

The TIM tier's claim is stronger than the linter's (E13): it predicts not
just *feature* rejections but *schedule* failures — within budgets no
schedule can meet, rendezvous shapes that deadlock, lockstep ``par``
cycles a single-port RAM cannot serve, II requests below a loop's MII
floor.  This benchmark regenerates the three numbers that back the claim:

* checker wall-time per workload over every compilable flow (the cost of
  the pre-flight, next to the compile time it can save).  The check
  compiles a flow itself, through ``synthesize`` at the flow's defaults,
  only where a rule reads the compile: Handel-C for every workload, the
  ``within`` flows for a program with a ``within`` block; the compile
  column is every flow's compile and run in the matrix sweep;
* cross-validated agreement over the full workload x flow matrix — the
  checker's verdict must match what the flows actually did on every cell,
  with each rule prediction validated against the compiled artifact;
* the timing-boundary probe kill rate — every generated probe (>= 200,
  spanning all seven TIM families over 27 kind x flow pairs) must be
  rejected with its predicted rule id at a real source location, and the
  predicted failure must reproduce on the artifact.
"""

import time
from collections import Counter

from repro.analysis.timing import check
from repro.analysis.timing.harness import cross_validate_matrix, validate_probe
from repro.flows import COMPILABLE
from repro.fuzz.timing import probe_plan
from repro.report import format_table
from repro.workloads import WORKLOADS


def run_checker_suite(cells):
    rows = []
    total_check_ms = 0.0
    total_compile_ms = 0.0
    for w in WORKLOADS:
        start = time.perf_counter()
        report = check(w.source, flows=list(COMPILABLE))
        check_ms = (time.perf_counter() - start) * 1000.0
        total_check_ms += check_ms
        compile_ms = sum(
            cells[(w.name, key)].wall_s * 1000.0 for key in COMPILABLE
        )
        total_compile_ms += compile_ms
        tim = sum(
            1 for d in report.diagnostics if d.rule.startswith("TIM")
        )
        rows.append([
            w.name, w.category,
            len(report.errors()), len(report.warnings()), tim,
            f"{check_ms:.1f}", f"{compile_ms:.1f}",
        ])
    return rows, (total_check_ms, total_compile_ms)


def run_probe_sweep():
    plan = probe_plan()
    outcomes = [validate_probe(p) for p in plan]
    per_rule = Counter()
    killed_per_rule = Counter()
    for probe, outcome in zip(plan, outcomes):
        per_rule[probe.rule] += 1
        killed_per_rule[probe.rule] += 1 if outcome.ok else 0
    rows = [
        [rule, per_rule[rule], killed_per_rule[rule],
         f"{100.0 * killed_per_rule[rule] / per_rule[rule]:.0f}%"]
        for rule in sorted(per_rule)
    ]
    killed = sum(killed_per_rule.values())
    return rows, (len(plan), killed)


def test_checker_matrix_agreement(benchmark, save_report, suite_results):
    cells = {(r.workload, r.flow): r for r in suite_results}
    verdicts = {key: cell.verdict for key, cell in cells.items()}
    rows, (check_ms, compile_ms) = benchmark.pedantic(
        run_checker_suite, args=(cells,), rounds=1, iterations=1
    )
    validation = cross_validate_matrix(verdicts)
    text = format_table(
        ["workload", "category", "errors", "warnings", "TIM",
         "check ms", "compile ms"],
        rows,
        title="E17: time-sensitive checker vs the matrix"
              f" ({validation.agreements}/{validation.cells} verdicts agree,"
              f" {check_ms:.0f} ms check vs {compile_ms:.0f} ms compile)",
    )
    save_report("e17_timing_checker", text)
    assert validation.cells == len(verdicts)
    assert validation.agreements == validation.cells  # 100% agreement
    assert not validation.false_accepts()
    assert check_ms < compile_ms


def test_probe_kill_rate(save_report):
    rows, (total, killed) = run_probe_sweep()
    text = format_table(
        ["rule", "probes", "killed", "rate"],
        rows,
        title=f"E17: timing-boundary probe kill rate ({killed}/{total})",
    )
    save_report("e17_timing_probes", text)
    assert total >= 200
    assert killed == total  # every probe rejected, located, and reproduced
