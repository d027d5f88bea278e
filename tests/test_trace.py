"""Unit tests for the tracing subsystem and the SynthesisOptions facade.

The contract under test: every flow's traced synthesis produces a span
tree whose phase skeleton matches what that flow actually does; disabled
tracing produces *zero* spans through the exact same code paths; the
Chrome export is loadable trace_event JSON; the matrix summary is the sum
of its per-cell traces; and a warm cache hit replays the same phase
structure the cold run recorded.
"""

import json

import pytest

from repro.api import (
    SynthesisOptions,
    SynthesisResult,
    synthesize,
)
from repro.trace import (
    CAT_PHASE,
    NO_TRACE,
    PHASE_ORDER,
    TraceContext,
    counters_of,
    merge_phase_totals,
    phase_totals_of,
    structure_of,
)

SOURCE = (
    "int main(int n) { int s = 0;"
    " for (int i = 0; i < n; i++) { s += i; } return s; }"
)
# cones needs statically bounded loops and no arguments.
CONES_SOURCE = (
    "int main() { int s = 0;"
    " for (int i = 0; i < 8; i++) { s += i; } return s; }"
)

# Every compilable flow with the phase skeleton its compile() must record.
FLOW_PHASES = {
    "c2verilog": ["parse", "semantic", "check", "inline", "cdfg",
                  "passes", "schedule"],
    "hardwarec": ["parse", "semantic", "check", "inline", "cdfg",
                  "passes", "schedule"],
    "transmogrifier": ["parse", "semantic", "check", "inline", "cdfg",
                       "passes", "schedule"],
    "systemc": ["parse", "semantic", "check", "inline", "cdfg",
                "passes", "schedule"],
    "cyber": ["parse", "semantic", "check", "inline", "cdfg",
              "passes", "schedule"],
    "specc": ["parse", "semantic", "check", "inline", "cdfg",
              "passes", "schedule"],
    "bachc": ["parse", "semantic", "check", "inline", "cdfg",
              "passes", "schedule"],
    "handelc": ["parse", "semantic", "check", "inline", "cdfg"],
    "cones": ["parse", "semantic", "check", "inline", "cdfg",
              "passes", "flatten"],
    "cash": ["parse", "semantic", "check", "inline", "cdfg", "passes"],
}


def phase_names(trace):
    return [s.name for _, s in trace.spans() if s.cat == CAT_PHASE]


# ---------------------------------------------------------------------------
# Core span mechanics
# ---------------------------------------------------------------------------


def test_span_tree_nesting_and_counters():
    trace = TraceContext(name="t")
    with trace.span("outer", cat="phase"):
        with trace.span("inner"):
            trace.count(ops=3, kind="x")
        trace.count(ops=2)
    assert trace.structure() == [["outer", ["inner"]]]
    [outer] = trace.roots
    assert outer.args["ops"] == 2
    assert outer.children[0].args == {"ops": 3, "kind": "x"}
    assert outer.dur_us >= outer.children[0].dur_us


def test_counters_accumulate_numeric_values():
    trace = TraceContext()
    with trace.span("s"):
        trace.count(n=1)
        trace.count(n=2, tag="a")
    [span] = trace.roots
    assert span.args["n"] == 3
    assert span.args["tag"] == "a"


def test_leaf_records_premeasured_span():
    trace = TraceContext()
    with trace.span("sim", cat="phase"):
        trace.leaf("sim.execute", 0.25, cat="sim", cycles=100)
    [sim] = trace.roots
    [leaf] = sim.children
    assert leaf.name == "sim.execute"
    assert leaf.dur_us == pytest.approx(250_000.0)
    assert leaf.args == {"cycles": 100}


def test_span_exception_still_closes():
    trace = TraceContext()
    with pytest.raises(ValueError):
        with trace.span("boom"):
            raise ValueError("x")
    assert trace.structure() == ["boom"]
    assert not trace._stack


def test_serialization_roundtrip():
    trace = TraceContext(name="rt")
    with trace.span("a", cat="phase"):
        with trace.span("b"):
            trace.count(k=1)
    clone = TraceContext.from_dict(trace.to_dict())
    assert clone.to_dict() == trace.to_dict()
    assert structure_of(trace.to_dict()) == trace.structure()


def test_disabled_tracer_is_inert_singleton():
    # NO_TRACE must allocate nothing per call: same object back each time.
    handle_a = NO_TRACE.span("anything", cat="phase")
    handle_b = NO_TRACE.span("else")
    assert handle_a is handle_b
    with handle_a as span:
        NO_TRACE.count(n=1)
        NO_TRACE.leaf("x", 1.0)
    assert span is handle_a
    assert NO_TRACE.enabled is False


# ---------------------------------------------------------------------------
# Span tree shape per flow
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flow", sorted(FLOW_PHASES))
def test_flow_span_tree_shape(flow):
    source = CONES_SOURCE if flow in ("cones", "cash") else SOURCE
    args = () if flow in ("cones", "cash") else (5,)
    result = synthesize(source, SynthesisOptions(flow=flow, trace=True))
    assert isinstance(result, SynthesisResult)
    trace = result.trace
    assert trace is not None and trace.enabled
    assert phase_names(trace) == FLOW_PHASES[flow]
    # Post-compile stages append their phases to the same trace.
    result.run(args=args)
    result.cost()
    names = phase_names(trace)
    assert "sim" in names
    assert "bind" in names
    try:
        result.verilog()
    except NotImplementedError:
        pass
    # Every phase is canonical (the summary can place each column).
    assert set(phase_names(trace)) <= set(PHASE_ORDER)
    # Every phase closed: durations are recorded, tree has no open spans.
    assert not trace._stack
    assert all(s.dur_us >= 0 for _, s in trace.spans())


def test_disabled_mode_records_zero_spans():
    result = synthesize(SOURCE, SynthesisOptions(flow="c2verilog"))
    assert result.trace is None
    run = result.run(args=(5,))
    assert run.value == 10
    result.cost()
    result.verilog()


def test_trace_covers_full_pipeline_with_counters():
    result = synthesize(SOURCE, SynthesisOptions(flow="c2verilog", trace=True))
    result.run(args=(5,))
    result.cost()
    result.verilog()
    counters = counters_of(result.trace.to_dict())
    assert counters["parse.functions"] >= 1
    assert "cdfg.ops" in counters
    assert "schedule.states" in counters
    assert "bind.registers" in counters
    assert "emit.lines" in counters
    assert "sim.cycles" in counters


def test_opt_level_changes_pass_structure():
    o0 = synthesize(SOURCE, SynthesisOptions(trace=True, opt_level=0))
    o2 = synthesize(SOURCE, SynthesisOptions(trace=True, opt_level=2))
    passes0 = o0.trace.find("passes")
    passes2 = o2.trace.find("passes")
    names0 = {c.name for c in passes0.children}
    names2 = {c.name for c in passes2.children}
    assert "pass.constfold" not in names0          # opt_level=0: validate only
    assert "pass.constfold" in names2
    # Identity ignores trace but not opt_level.
    assert (SynthesisOptions(opt_level=0).identity()
            != SynthesisOptions(opt_level=2).identity())
    assert (SynthesisOptions(trace=True).identity()
            == SynthesisOptions(trace=False).identity())


# ---------------------------------------------------------------------------
# Chrome export
# ---------------------------------------------------------------------------


def test_chrome_export_required_keys(tmp_path):
    result = synthesize(SOURCE, SynthesisOptions(flow="c2verilog", trace=True))
    result.run(args=(5,))
    result.cost()
    result.verilog()
    path = tmp_path / "out.json"
    result.trace.write_chrome(path)
    data = json.loads(path.read_text())
    assert data["displayTimeUnit"] == "ms"
    events = data["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert complete, "no complete events"
    for event in complete:
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
            assert key in event
    meta = [e for e in events if e["ph"] == "M"]
    assert len(meta) == 1
    assert meta[0]["name"] == "process_name"
    names = {e["name"] for e in complete}
    for phase in ("parse", "semantic", "cdfg", "passes", "schedule",
                  "bind", "emit", "sim"):
        assert phase in names


def test_jsonl_export_one_object_per_span():
    trace = TraceContext(name="j")
    with trace.span("a", cat="phase"):
        with trace.span("b"):
            pass
    lines = trace.to_jsonl().strip().splitlines()
    rows = [json.loads(line) for line in lines]
    assert {r["name"] for r in rows} == {"a", "b"}
    assert all("dur_us" in r for r in rows)


# ---------------------------------------------------------------------------
# Matrix summary and cache interplay
# ---------------------------------------------------------------------------


def engine_tasks():
    from repro.runner import file_tasks

    return file_tasks(SOURCE, name="trace-test",
                      flows=["c2verilog", "handelc"], args=(5,))


def test_matrix_summary_agrees_with_cell_traces():
    from repro.report import format_trace_summary
    from repro.runner import MatrixEngine

    results = MatrixEngine(trace=True).run_cells(engine_tasks())
    assert all(r.trace is not None for r in results)
    merged = merge_phase_totals([r.trace for r in results])
    # The rendered table reports exactly the merged totals, per flow here
    # (one cell per flow, so per-flow == per-cell).
    text = format_trace_summary(results)
    for cell in results:
        totals = phase_totals_of(cell.trace)
        row = next(line for line in text.splitlines()
                   if line.startswith(cell.flow))
        assert f"{sum(totals.values()) / 1000:.2f}" in row
    assert sum(merged.values()) == pytest.approx(
        sum(sum(phase_totals_of(r.trace).values()) for r in results))


def test_untraced_engine_attaches_no_traces():
    from repro.runner import MatrixEngine

    results = MatrixEngine().run_cells(engine_tasks())
    assert all(r.trace is None for r in results)


def test_cached_and_uncached_trace_structure_identical(tmp_path):
    from repro.runner import ArtifactCache, MatrixEngine

    tasks = engine_tasks()
    cold = MatrixEngine(cache=ArtifactCache(tmp_path), trace=True).run_cells(tasks)
    warm = MatrixEngine(cache=ArtifactCache(tmp_path), trace=True).run_cells(tasks)
    assert all(not r.cached for r in cold)
    assert all(r.cached for r in warm)
    for before, after in zip(cold, warm):
        assert structure_of(before.trace) == structure_of(after.trace)
        assert counters_of(before.trace) == counters_of(after.trace)


def test_traced_engine_upgrades_untraced_cache_entries(tmp_path):
    from repro.runner import ArtifactCache, MatrixEngine

    tasks = engine_tasks()
    MatrixEngine(cache=ArtifactCache(tmp_path)).run_cells(tasks)
    # The untraced entries carry no traces; a traced engine must treat
    # them as misses and re-store, not report phase-less cells.
    traced = MatrixEngine(cache=ArtifactCache(tmp_path), trace=True)
    results = traced.run_cells(tasks)
    assert all(not r.cached for r in results)
    assert all(r.trace is not None for r in results)
    warm = MatrixEngine(cache=ArtifactCache(tmp_path), trace=True).run_cells(tasks)
    assert all(r.cached for r in warm)
    assert all(r.trace is not None for r in warm)


# ---------------------------------------------------------------------------
# The facade and its legacy shims
# ---------------------------------------------------------------------------


def test_synthesis_options_identity_and_flow_options():
    options = SynthesisOptions.make(flow="specc", refine="rtl")
    assert options.flow_options == (("refine", "rtl"),)
    assert options.flow_kwargs()["refine"] == "rtl"
    again = options.with_(opt_level=3)
    assert again.opt_level == 3
    assert again.flow_options == options.flow_options
    assert options.identity() != again.identity()


def test_cell_task_identity_derives_from_options():
    from repro.runner import CellTask

    task = CellTask(workload="w", source=SOURCE,
                    options=SynthesisOptions(flow="handelc"), args=(5,))
    identity = task.identity()
    options = task.options
    expected = options.identity()
    expected["args"] = [5]
    assert identity == expected


def test_fuzz_divergence_trace_is_deterministic():
    from repro.fuzz.campaign import attach_trace
    from repro.fuzz.corpus import CorpusEntry, entry_from_divergence
    from repro.fuzz.signature import Divergence

    src = "int main() { int a = 3; int b = 4; return a * b + 1; }"
    first = attach_trace(Divergence(flow="c2verilog", kind="mismatch",
                                    source=src))
    second = attach_trace(Divergence(flow="c2verilog", kind="mismatch",
                                     source=src))
    assert first.trace and first.trace == second.trace
    assert set(first.trace) == {"structure", "counters"}
    assert json.dumps(first.trace, sort_keys=True)  # JSON-stable, no durations
    entry = entry_from_divergence(first)
    assert CorpusEntry.from_json(entry.to_json()).trace == first.trace
