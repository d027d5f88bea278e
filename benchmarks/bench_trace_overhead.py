"""E16 — tracing overhead: off must be free, on must be cheap.

The trace subsystem's contract (docs/observability.md) is that an
untraced synthesis pays only the guarded no-op path: one ``ensure_trace``
per entry point plus one shared :data:`~repro.trace.NO_TRACE` call per
instrumentation point — no span objects, no string formatting, no
allocation.  This experiment pins both sides of that contract:

* **disabled** — the no-op path is microbenchmarked directly (a timing
  diff between two identical pipelines would drown a sub-percent effect
  in scheduler noise); its measured per-call cost times the number of
  instrumentation points a traced run of the same program records must
  stay under ``OFF_BUDGET`` of the untraced pipeline's wall time;
* **enabled** — a fully traced synthesize+run+cost+emit against the
  untraced equivalent, must stay under ``ON_BUDGET``.  The two run in
  interleaved untraced/traced pairs and the overhead is the median of
  the per-pair ratios, so a load spike on a shared host inflates one
  pair instead of whichever side it happened to land on.

Both variants write ``BENCH_trace_overhead.json`` (``config.variant``
says which).  The quick variant is the CI configuration; its table and
JSON are uploaded by the bench-trace-overhead job.
"""

import statistics
import time

from repro.api import SynthesisOptions, synthesize
from repro.report import format_table
from repro.trace import NO_TRACE, ensure_trace

OFF_BUDGET = 0.03    # disabled instrumentation: <3% of pipeline wall time
ON_BUDGET = 0.15     # full tracing: <15% end-to-end

KERNEL = """
int main(int n) {
    int i;
    int acc = 1;
    for (i = 0; i < n; i = i + 1) {
        acc = (acc + i * i + (acc >> 3)) % 9973;
    }
    return acc;
}
"""

FLOW = "c2verilog"


def _pipeline(trace: bool, n: int) -> None:
    result = synthesize(KERNEL, SynthesisOptions(flow=FLOW, trace=trace))
    result.run(args=(n,))
    result.cost()
    result.verilog()


def _wall(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _null_path_cost_s(calls: int = 200_000) -> float:
    """Per-instrumentation-point cost of the disabled path: an
    ``ensure_trace(None)`` resolve, a guarded ``enabled`` check, one
    shared no-op span, and a no-op counter call."""
    span = NO_TRACE.span
    count = NO_TRACE.count
    start = time.perf_counter()
    for _ in range(calls):
        t = ensure_trace(None)
        if t.enabled:
            count(ops=1)
        with span("x", cat="phase"):
            pass
    return (time.perf_counter() - start) / calls


def _instrumentation_points(n: int) -> int:
    """How many guarded call sites one traced run of the kernel visits;
    measured, not guessed, so the disabled-path bound tracks the real
    pipeline as instrumentation is added."""
    result = synthesize(KERNEL, SynthesisOptions(flow=FLOW, trace=True))
    result.run(args=(n,))
    result.cost()
    result.verilog()
    spans = result.trace.span_count()
    counters = sum(1 for _, s in result.trace.spans() if s.args)
    # Each span is at least one guarded site; counters are separate calls.
    return spans + counters


def _measure(n: int, pairs: int) -> dict:
    # The traced run that counts the sites also pays the lazy imports and
    # first-use costs, so the first pair does not.
    points = _instrumentation_points(n)
    untraced, traced = [], []
    for _ in range(pairs):
        untraced.append(_wall(lambda: _pipeline(False, n)))
        traced.append(_wall(lambda: _pipeline(True, n)))
    ratios = [t / u for u, t in zip(untraced, traced)]
    untraced_s = statistics.median(untraced)
    null_call_s = _null_path_cost_s()
    return {
        "untraced_ms": round(untraced_s * 1e3, 3),
        "traced_ms": round(statistics.median(traced) * 1e3, 3),
        "on_overhead_pct": round((statistics.median(ratios) - 1.0) * 100, 3),
        "null_call_ns": round(null_call_s * 1e9, 1),
        "instrumentation_points": points,
        "off_overhead_pct": round(null_call_s * points / untraced_s * 100, 4),
    }


def _report(metrics, n, pairs, variant, save_report, save_bench):
    """Write the table and ``BENCH_trace_overhead.json``, then apply the
    budgets (after writing, so a failing run still leaves its numbers)."""
    rows = [
        ["untraced pipeline", f"{metrics['untraced_ms']:.2f} ms", "-"],
        ["traced pipeline", f"{metrics['traced_ms']:.2f} ms",
         f"{max(metrics['on_overhead_pct'], 0.0):.1f}%"],
        ["null path / call", f"{metrics['null_call_ns']:.0f} ns",
         f"x{metrics['instrumentation_points']} sites"],
        ["disabled instrumentation",
         f"{metrics['null_call_ns'] * metrics['instrumentation_points'] / 1e3:.1f} us",
         f"{metrics['off_overhead_pct']:.3f}%"],
    ]
    label = "E16" if variant == "full" else "E16 (quick)"
    title = (
        f"{label}: tracing overhead (n={n}, median of {pairs} pairs, budgets "
        f"{OFF_BUDGET * 100:.0f}% off / {ON_BUDGET * 100:.0f}% on)"
    )
    text = format_table(["measurement", "time", "overhead"], rows, title=title)
    suffix = "" if variant == "full" else "_quick"
    save_report(f"e16_trace_overhead{suffix}", text)
    save_bench(
        "trace_overhead", metrics=metrics,
        config={"exhibit": "E16", "variant": variant, "n": n,
                "pairs": pairs, "flow": FLOW,
                "off_budget_pct": OFF_BUDGET * 100,
                "on_budget_pct": ON_BUDGET * 100},
    )
    assert metrics["off_overhead_pct"] < OFF_BUDGET * 100, (
        f"disabled tracing costs {metrics['off_overhead_pct']:.2f}% of the "
        f"pipeline (budget {OFF_BUDGET * 100:.0f}%)"
    )
    assert metrics["on_overhead_pct"] < ON_BUDGET * 100, (
        f"enabled tracing costs {metrics['on_overhead_pct']:.1f}% end-to-end "
        f"(budget {ON_BUDGET * 100:.0f}%)"
    )


def test_trace_overhead(benchmark, save_report, save_bench):
    metrics = benchmark.pedantic(
        _measure, args=(20_000, 7), rounds=1, iterations=1
    )
    _report(metrics, 20_000, 7, "full", save_report, save_bench)


def test_trace_overhead_quick(benchmark, save_report, save_bench):
    """CI-sized variant: shorter kernel, fewer pairs, same budgets."""
    metrics = benchmark.pedantic(
        _measure, args=(4_000, 5), rounds=1, iterations=1
    )
    _report(metrics, 4_000, 5, "quick", save_report, save_bench)
