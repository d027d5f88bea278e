"""Unit tests for the parallel, content-addressed matrix engine.

The contract under test: serial, parallel, and cache-replayed execution
of the same cells produce identical ``CellResult.identity()``s; the cache
keys on token content (not text layout); and one misbehaving cell — an
exception, a deadline overrun, or a dead worker — cannot take down the
rest of a sweep.
"""

import os
import pickle

import pytest

from repro.api import SynthesisOptions
from repro.flows import FlowError, UnsupportedFeature, registry_fingerprint
from repro.runner import (
    ERROR,
    OK,
    REJECTED,
    TIMEOUT,
    ArtifactCache,
    CellResult,
    CellTask,
    MatrixEngine,
    cell_key,
    execute_cell,
    suite_tasks,
)
from repro.runner import engine as engine_module
from repro.runner.cache import normalized_source
from repro.runner.cells import canonical_observable
from repro.workloads import WORKLOADS

SOURCE = "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }"


def task(source=SOURCE, flow="handelc", name="t", args=(5,)):
    return CellTask(workload=name, source=source,
                    options=SynthesisOptions(flow=flow), args=tuple(args))


def test_canonical_observable_pins_nested_forms():
    """Tuples and lists at any depth become lists; integers and None are
    kept as they are."""
    observable = (7, None, (1, [2, (3, None)], ()), [(-4,), []], {"g": (5,)})
    assert canonical_observable(observable) == [
        7, None, [1, [2, [3, None]], []], [[-4], []], {"g": (5,)},
    ]
    assert canonical_observable(None) is None
    assert canonical_observable(-3) == -3
    assert canonical_observable(((), [[]])) == [[], [[]]]


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------


def test_single_cell_ok():
    [result] = MatrixEngine().run_cells([task()])
    assert result.verdict == OK
    assert result.value == 10
    assert result.cycles > 0
    assert result.rtl_hash
    assert result.observable[0] == 10
    assert result.wall_s > 0
    assert not result.cached


def test_rejected_cell_carries_rule_and_reason():
    source = "int main() { int x = 2; int *p = &x; return *p; }"
    [result] = MatrixEngine().run_cells([task(source=source, flow="cones")])
    assert result.verdict == REJECTED
    assert result.rule
    assert result.diagnostics


def test_unknown_flow_is_isolated_as_error():
    results = MatrixEngine().run_cells([task(flow="no-such-flow"), task()])
    assert [r.verdict for r in results] == [ERROR, OK]


def test_mismatch_verdict(monkeypatch):
    # Lie about the golden observable: the flow's (correct) answer must be
    # flagged as diverging.  jobs=1 runs the worker in this process.
    monkeypatch.setattr(engine_module, "golden_observable",
                        lambda source, function, args: [999, [], []])
    [result] = MatrixEngine().run_cells([task()])
    assert result.verdict == "mismatch"
    assert result.unexpected
    # The rule is the first differing field's kind; the diagnostic names
    # that field and shows the flow's side, then the golden model's.
    assert result.rule == "value"
    assert result.diagnostics == ["differs from golden model in value 10 vs 999"]


def test_a_cached_mismatch_without_a_rule_is_recomputed(tmp_path, monkeypatch):
    """A mismatch cached before a mismatch named its field (empty rule)
    is a miss under the same key, so the recomputed cell names one."""
    monkeypatch.setattr(engine_module, "golden_observable",
                        lambda source, function, args: [999, [], []])
    [first] = MatrixEngine(cache=ArtifactCache(tmp_path)).run_cells([task()])
    assert first.verdict == "mismatch" and first.rule == "value"
    cache = ArtifactCache(tmp_path)
    stale = cache.load(first.cache_key)
    stale.rule = ""
    stale.diagnostics = ["observables diverge from golden model: value 10 vs 999"]
    assert cache.store(first.cache_key, stale)

    cache = ArtifactCache(tmp_path)
    [again] = MatrixEngine(cache=cache).run_cells([task()])
    assert not again.cached
    assert again.cache_key == first.cache_key
    assert (again.rule, again.diagnostics) == (first.rule, first.diagnostics)
    [warm] = MatrixEngine(cache=ArtifactCache(tmp_path)).run_cells([task()])
    assert warm.cached and warm.identity() == first.identity()


def test_timeout_verdict():
    slow = "int main() { int s = 0; for (int i = 0; i < 100000000; i++) { s += i; } return s; }"
    engine = MatrixEngine(timeout_s=0.2, max_cycles=1_000_000_000)
    [result] = engine.run_cells([task(source=slow, flow="handelc", args=())])
    assert result.verdict == TIMEOUT


def test_coalesced_deadline_ends_the_running_and_later_lanes():
    """A payload's deadline is the sum of its lanes' deadlines; when it
    fires, the lane that was running and every lane after it time out."""
    slow = "int main(int n) { int s = 0; for (int i = 0; i < 100000000; i++) { s += i; } return s + n; }"
    engine = MatrixEngine(timeout_s=0.2, max_cycles=1_000_000_000)
    results = engine.run_cells([
        task(source=slow, flow="handelc", name=f"lane{n}", args=(n,))
        for n in range(3)
    ])
    assert [r.verdict for r in results] == [TIMEOUT] * 3
    assert all("0.2s deadline" in r.diagnostics[0] for r in results)


def test_coalesced_cells_keep_their_check_flag():
    """Cells of one design with ``check=True`` go through the timing
    checker together: every lane is the rejection a lone cell gets, not
    a simulated deadlock."""
    from repro.analysis.lint.diagnostics import RULE_TIM_RENDEZVOUS
    from tests.test_timing import SELF_RENDEZVOUS

    for backend in ("interp", "compiled"):
        tasks = [
            CellTask(workload=f"lane{n}", source=SELF_RENDEZVOUS,
                     options=SynthesisOptions(flow="handelc",
                                              sim_backend=backend,
                                              check=True),
                     args=(n,))
            for n in (3, 4)
        ]
        [alone] = MatrixEngine().run_cells(tasks[:1])
        both = MatrixEngine().run_cells(tasks)
        assert alone.verdict == REJECTED
        assert alone.rule == RULE_TIM_RENDEZVOUS
        assert [(r.verdict, r.rule) for r in both] == [
            (REJECTED, RULE_TIM_RENDEZVOUS)
        ] * 2
        assert both[0].identity() == alone.identity()


def test_flow_errors_pickle_roundtrip():
    # The parallel engine ships rejections across process boundaries.
    error = UnsupportedFeature("cones", "no pointers", rule="SYN101")
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, UnsupportedFeature)
    assert clone.flow == "cones"
    assert clone.reason == "no pointers"
    assert clone.rule == "SYN101"
    assert isinstance(pickle.loads(pickle.dumps(FlowError("cash", "x"))), FlowError)


def test_trace_pickle_roundtrip():
    # Traced cells ship their TraceContext (and closed spans) back from
    # pool workers; open spans cannot cross, closed trees must survive.
    from repro.trace import Span, TraceContext

    trace = TraceContext(name="w")
    with trace.span("parse", cat="phase"):
        with trace.span("tokens"):
            trace.count(n=3)
    clone = pickle.loads(pickle.dumps(trace))
    assert isinstance(clone, TraceContext)
    assert clone.name == "w"
    assert clone.structure() == trace.structure()
    assert clone.to_dict() == trace.to_dict()
    [span] = trace.roots
    span_clone = pickle.loads(pickle.dumps(span))
    assert isinstance(span_clone, Span)
    assert span_clone.to_dict() == span.to_dict()


def test_traced_cell_crosses_process_pool():
    tasks = [task(name="trace-pool")]
    serial = MatrixEngine(jobs=1, trace=True).run_cells(tasks)
    parallel = MatrixEngine(jobs=2, trace=True).run_cells(tasks)
    from repro.trace import structure_of

    assert serial[0].trace is not None
    assert parallel[0].trace is not None
    assert structure_of(serial[0].trace) == structure_of(parallel[0].trace)
    assert [r.identity() for r in serial] == [r.identity() for r in parallel]


# ---------------------------------------------------------------------------
# Serial / parallel / cached identity
# ---------------------------------------------------------------------------


def small_tasks():
    chosen = [w for w in WORKLOADS if w.name in ("gcd", "dot16", "prodcons")]
    return suite_tasks(workloads=chosen)


def test_parallel_results_match_serial():
    tasks = small_tasks()
    serial = MatrixEngine(jobs=1).run_cells(tasks)
    parallel = MatrixEngine(jobs=3).run_cells(tasks)
    assert [r.identity() for r in serial] == [r.identity() for r in parallel]


def test_cached_results_match_cold(tmp_path):
    tasks = small_tasks()
    bare = MatrixEngine().run_cells(tasks)
    cold = MatrixEngine(cache=ArtifactCache(tmp_path)).run_cells(tasks)
    warm_cache = ArtifactCache(tmp_path)
    warm = MatrixEngine(cache=warm_cache).run_cells(tasks)
    assert [r.identity() for r in bare] == [r.identity() for r in cold]
    assert [r.identity() for r in cold] == [r.identity() for r in warm]
    assert all(r.cached for r in warm)
    assert warm_cache.hits == len(tasks)
    assert warm_cache.misses == 0


def test_parallel_warm_cache(tmp_path):
    tasks = small_tasks()
    cold = MatrixEngine(jobs=2, cache=ArtifactCache(tmp_path)).run_cells(tasks)
    warm = MatrixEngine(jobs=2, cache=ArtifactCache(tmp_path)).run_cells(tasks)
    assert [r.identity() for r in cold] == [r.identity() for r in warm]
    assert all(r.cached for r in warm)


# ---------------------------------------------------------------------------
# Cache keys and storage
# ---------------------------------------------------------------------------


def test_key_ignores_whitespace_and_comments():
    reformatted = (
        "// a comment\nint main(int n) {\n  int s = 0;\n"
        "  for (int i = 0; i < n; i++) { s += i; /* inline */ }\n  return s;\n}\n"
    )
    assert normalized_source(SOURCE) == normalized_source(reformatted)
    assert cell_key(task()) == cell_key(task(source=reformatted))


def test_sources_the_lexer_rejects_key_on_their_raw_text():
    for bad in ("int main() { return $; }",
                "int main() { return \u00b2; }",
                "int main() { return 1\u0663; }"):
        assert normalized_source(bad) == "raw:" + bad
        assert cell_key(task(source=bad)) != cell_key(task())


def test_non_ascii_digit_is_an_error_cell_not_a_crash(tmp_path):
    # The cache key is computed in the parent process, so a lexer crash
    # there would take down the whole sweep.
    engine = MatrixEngine(jobs=1, cache=ArtifactCache(tmp_path))
    result = engine.run_cells(
        [task(source="int main(int n) { return \u00b2; }")]
    )[0]
    assert result.verdict == ERROR
    assert "LexError" in result.diagnostics[-1]
    assert "1:26: unexpected character '\u00b2'" in result.diagnostics[-1]


def test_key_changes_with_tokens_flow_args_and_options():
    base = cell_key(task())
    assert cell_key(task(source=SOURCE.replace("s += i", "s += 2 * i"))) != base
    assert cell_key(task(flow="bachc")) != base
    assert cell_key(task(args=(6,))) != base
    other = CellTask(workload="t", source=SOURCE,
                     options=SynthesisOptions.make(flow="bachc", clock_ns=7.5),
                     args=(5,))
    assert cell_key(other) != cell_key(task(flow="bachc"))
    assert cell_key(task(), salt="v2") != base


def test_task_checks_its_options_and_ignores_trace():
    """A task checks and normalises its flow options as ``synthesize``
    does; tracing never steers, so a traced option set builds the same
    task (and the same payload) as an untraced one."""
    with pytest.raises(ValueError, match="'resources'.*ResourceSet"):
        CellTask(workload="t", source=SOURCE,
                 options=SynthesisOptions.make(flow="bachc", resources=3))
    traced = CellTask(workload="t", source=SOURCE,
                      options=SynthesisOptions(flow="handelc", trace=True),
                      args=(5,))
    assert traced == task()
    assert cell_key(traced) == cell_key(task())


def test_resource_set_cell_runs_and_caches(tmp_path):
    """A resource set is a hashable cell option: the cell runs to ``ok``,
    caches, and replays from the cache."""
    from repro.scheduling.resources import ResourceSet

    cell = CellTask(workload="t", source=SOURCE, args=(5,),
                    options=SynthesisOptions.make(
                        flow="bachc", resources=ResourceSet.minimal()))
    cold = MatrixEngine(cache=ArtifactCache(tmp_path)).run_cells([cell, cell])
    assert [r.verdict for r in cold] == [OK, OK]
    assert cold[0].value == 10
    [warm] = MatrixEngine(cache=ArtifactCache(tmp_path)).run_cells([cell])
    assert warm.cached and warm.identity() == cold[0].identity()
    assert cell_key(cell) != cell_key(task(flow="bachc"))


def test_registry_fingerprint_is_stable():
    assert registry_fingerprint() == registry_fingerprint()


def test_errors_and_timeouts_are_not_cached(tmp_path):
    cache = ArtifactCache(tmp_path)
    assert not cache.store("00" * 32, CellResult(workload="w", flow="f",
                                                 verdict=ERROR))
    assert len(cache) == 0


def test_cache_hit_is_relabeled_to_the_current_task(tmp_path):
    # The key excludes the display label so identical sources share
    # artifacts; the replay must carry the asking task's name, not the
    # name the artifact was first stored under.
    [_] = MatrixEngine(cache=ArtifactCache(tmp_path)).run_cells(
        [task(name="original.c")]
    )
    [hit] = MatrixEngine(cache=ArtifactCache(tmp_path)).run_cells(
        [task(name="renamed-copy.c")]
    )
    assert hit.cached
    assert hit.workload == "renamed-copy.c"


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    tasks = [task()]
    cache = ArtifactCache(tmp_path)
    [cold] = MatrixEngine(cache=cache).run_cells(tasks)
    [path] = list(cache.root.glob("*/*.json"))
    path.write_text("{ not json")
    again = ArtifactCache(tmp_path)
    [rebuilt] = MatrixEngine(cache=again).run_cells(tasks)
    assert again.hits == 0
    assert rebuilt.identity() == cold.identity()


# ---------------------------------------------------------------------------
# Crash isolation
# ---------------------------------------------------------------------------


def _crashing_worker(payload):
    if any(lane["workload"] == "victim" for lane in payload["lanes"]):
        os._exit(17)
    return execute_cell(payload)


def test_dead_worker_does_not_kill_the_sweep():
    tasks = [task(name="a"), task(name="victim"), task(name="b")]
    engine = MatrixEngine(jobs=2, worker=_crashing_worker)
    results = engine.run_cells(tasks)
    by_name = {r.workload: r for r in results}
    assert len(results) == 3
    assert by_name["victim"].verdict == ERROR
    assert "died" in by_name["victim"].diagnostics[0]
    assert by_name["a"].verdict == OK
    assert by_name["b"].verdict == OK


def _raising_worker(payload):
    raise RuntimeError("worker bug")


def test_raising_worker_becomes_error_cell():
    results = MatrixEngine(jobs=2, worker=_raising_worker).run_cells(
        [task(name="a"), task(name="b")]
    )
    assert [r.verdict for r in results] == [ERROR, ERROR]


# ---------------------------------------------------------------------------
# Result model
# ---------------------------------------------------------------------------


def test_result_roundtrips_through_dict():
    [result] = MatrixEngine().run_cells([task()])
    clone = CellResult.from_dict(result.to_dict())
    assert clone.identity() == result.identity()
    assert clone.args == result.args


def test_identity_excludes_provenance():
    [a] = MatrixEngine().run_cells([task()])
    [b] = MatrixEngine().run_cells([task()])
    assert a.wall_s != b.wall_s or a.wall_s > 0
    assert a.identity() == b.identity()


def test_suite_tasks_cover_full_matrix():
    from repro.flows import COMPILABLE

    tasks = suite_tasks()
    assert len(tasks) == len(WORKLOADS) * len(COMPILABLE)
    assert {t.options.flow for t in tasks} == set(COMPILABLE)
    assert {t.workload for t in tasks} == {w.name for w in WORKLOADS}
