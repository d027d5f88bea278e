"""E14 — differential fuzzing yield: divergences per 1000 seeds per flow.

A fixed-seed campaign (the same campaign seed every run, and the guided
schedule is a pure function of it, so the numbers are reproducible)
spends 100 programs on every compilable flow with the generative
frontend plus the metamorphic layer, and counts raw divergences before
coarse deduplication.  The shape assertions pin the subsystem's current truth:

* the three known divergence families (Cash and Cones pruning
  unreferenced globals from their observable surface, Handel-C
  sign-extending unsigned sub-32-bit registers) keep firing;
* no flow outside those families diverges — a fourth family appearing
  here means either a new flow bug or a fuzzer regression, and the
  nightly campaign will have flagged it as a NEW signature first;
* every boundary probe is rejected and lint-predicted (Table 1's
  restrictions, exercised generatively instead of by hand).
"""

from repro.fuzz import FuzzOptions, run_campaign
from repro.report import format_table

SEEDS = 100        # per flow; raw rates below are scaled to per-1000
KNOWN_DIVERGENT = {"cash", "cones", "handelc"}


def run_fuzz_campaign(tmp_path):
    options = FuzzOptions(
        seeds=SEEDS, jobs=4, reduce=False, mutations=2,
        corpus_dir=str(tmp_path / "empty-corpus"),
    )
    return run_campaign(options)


def test_fuzz_yield(benchmark, save_report, tmp_path):
    report = benchmark.pedantic(
        run_fuzz_campaign, args=(tmp_path,), rounds=1, iterations=1
    )
    rows = []
    for flow in sorted(report.stats):
        s = report.stats[flow]
        per_1k = s.divergences * 1000.0 / max(1, s.seeds)
        rows.append([
            flow, s.seeds, s.boundary_seeds, s.mutants,
            s.ok, s.expected_rejections, s.divergences, f"{per_1k:.0f}",
        ])
    distinct = {d.signature().coarse for d in report.divergences}
    text = format_table(
        ["flow", "seeds", "boundary", "mutants", "ok",
         "expected rej", "raw div", "div/1k seeds"],
        rows,
        title="E14: differential fuzz yield"
              f" ({report.cells_run} cells,"
              f" {len(distinct)} distinct coarse signatures,"
              f" {report.elapsed_s:.1f}s)",
    )
    save_report("e14_fuzz", text)

    # Shape: divergences only in the three triaged families.
    divergent_flows = {flow for flow, s in report.stats.items()
                       if s.divergences}
    assert divergent_flows <= KNOWN_DIVERGENT
    # Every boundary probe was rejected, and the linter predicted it.
    for flow, s in report.stats.items():
        assert s.expected_rejections == s.boundary_seeds, (
            f"{flow}: {s.boundary_seeds} boundary probes but only "
            f"{s.expected_rejections} predicted rejections"
        )
