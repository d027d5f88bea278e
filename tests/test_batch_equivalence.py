"""Three-way backend equivalence: interp vs compiled vs batched.

The batched engine (:mod:`repro.sim.batched`) runs N argument sets
through one shared specialisation and must be a pure throughput
transformation — every lane bit-identical to what the scalar backends
produce for the same arguments, *including* lanes that trap, deadlock,
exhaust the cycle budget, or pass the wrong number of arguments.  This
suite pins that contract four ways:

* handwritten kernels that force the divergence machinery (per-lane trip
  counts, early returns, div/mod/shift traps, lane-dependent stores);
* property-based generation over the fuzz grammar, asserting
  interpreter == compiled == batched on return values, cycle counts,
  globals, and memories for every lane;
* the profiler and trace surface — lane counts, per-lane cycles, and
  state-visit histograms must reconcile exactly with scalar runs;
* the runner integration — cache identity, lane coalescing, and replay
  from the artifact cache must be byte-identical to cold execution.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import SynthesisOptions, synthesize
from repro.flows import COMPILABLE, FlowError, compile_flow, run_flow
from repro.fuzz import feature_mask, generate_program
from repro.lang import InterpError
from repro.runner import ArtifactCache, CellTask, MatrixEngine
from repro.runner.cache import cell_key
from repro.sim import (
    SimProfile,
    SimulationError,
    simulate,
    simulate_batched,
)

_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FLOWS = sorted(COMPILABLE)


# ---------------------------------------------------------------------------
# Lane-by-lane comparison helpers
# ---------------------------------------------------------------------------


def _scalar_outcome(design, args, backend, max_cycles=2_000_000):
    """What one scalar run produced, flattened for equality checks."""
    try:
        r = design.run(args=args, sim_backend=backend, max_cycles=max_cycles)
        return ("ok", r.value, r.cycles, r.observable(), dict(r.globals))
    except InterpError as failure:
        return ("error", type(failure).__name__, str(failure))


def _lane_outcome(outcome):
    """A batch LaneOutcome flattened into the same shape."""
    if not outcome.ok:
        return ("error", outcome.error_kind, outcome.error)
    r = outcome.result
    return ("ok", r.value, r.cycles, r.observable(), dict(r.globals))


def _assert_three_way(design, arg_sets, max_cycles=2_000_000):
    """Every lane of a batch matches both scalar backends bit for bit."""
    lanes = design.run_batch(arg_sets, max_cycles=max_cycles,
                             sim_backend="batched")
    assert len(lanes) == len(arg_sets)
    for args, lane in zip(arg_sets, lanes):
        assert tuple(lane.args) == tuple(args)
        batched = _lane_outcome(lane)
        compiled = _scalar_outcome(design, args, "compiled", max_cycles)
        interp = _scalar_outcome(design, args, "interp", max_cycles)
        assert batched == compiled == interp, (
            f"args {args}: batched={batched}, compiled={compiled}, "
            f"interp={interp}"
        )
    return lanes


def _spread(args, lane):
    """Deterministic per-lane argument perturbation in [-100, 100]."""
    if lane == 0:
        return tuple(args)
    return tuple(
        (value + 37 * lane * (position + 1) + 100) % 201 - 100
        for position, value in enumerate(args)
    )


# ---------------------------------------------------------------------------
# Handwritten divergence kernels
# ---------------------------------------------------------------------------

# Per-lane trip counts, parity-dependent branches, a division that traps
# on d == 0, a shift whose amount depends on the lane, lane-dependent
# array stores, an early negative-path return, and a final mod that traps
# on d == -1.  One batch over this kernel exercises every piece of the
# trap-and-replay machinery at once.
_DIVERGE = """
int tab[8] = {3, 1, 4, 1, 5, 9, 2, 6};
int main(int n, int d) {
    int i;
    int acc = 0;
    for (i = 0; i < n; i = i + 1) {
        if (i % 2 == 0) {
            acc = acc + tab[i & 7] / d;
        } else {
            acc = acc - (i << (d & 3));
        }
        tab[(i + d) & 7] = acc;
    }
    if (acc < 0) {
        return 0 - acc;
    }
    return acc % (d + 1);
}
"""

_DIVERGE_LANES = [
    (0, 1),     # zero trips: loop body never runs
    (1, 1), (2, 1), (7, 2), (8, 3),
    (5, 0),     # division by zero inside the loop
    (3, -1),    # negative shift amount / trapping final mod
    (6, -5),
    (4, 7), (12, 2),
]

_SPIN = """
int main(int n) {
    while (n != 0) {
        n = n + 0;
    }
    return 1;
}
"""

_DEADLOCK = """
chan<int> c;
int main() {
    return recv(c);
}
"""


@pytest.mark.parametrize("flow", ["c2verilog", "handelc"])
def test_divergence_kernel_three_way(flow):
    design = compile_flow(_DIVERGE, flow=flow)
    lanes = _assert_three_way(design, _DIVERGE_LANES)
    kinds = {_lane_outcome(l)[0] for l in lanes}
    assert kinds == {"ok", "error"}  # the batch really mixed both


def test_trap_lane_does_not_poison_neighbours():
    design = compile_flow(_DIVERGE, flow="c2verilog")
    clean = design.run_batch([(7, 2), (8, 3)], sim_backend="batched")
    mixed = design.run_batch([(7, 2), (5, 0), (8, 3)],
                             sim_backend="batched")
    assert _lane_outcome(mixed[0]) == _lane_outcome(clean[0])
    assert _lane_outcome(mixed[2]) == _lane_outcome(clean[1])
    assert not mixed[1].ok and "divi" in mixed[1].error.lower()


def test_budget_lane_matches_scalar_error():
    design = compile_flow(_SPIN, flow="c2verilog")
    lanes = _assert_three_way(design, [(0,), (1,), (0,)], max_cycles=500)
    assert lanes[0].ok and lanes[2].ok
    assert not lanes[1].ok
    assert lanes[1].error == "cycle budget of 500 exhausted"
    assert lanes[1].error_kind == "SimulationError"


def test_deadlock_lanes_match_scalar_error():
    design = compile_flow(_DEADLOCK, flow="specc")
    lanes = _assert_three_way(design, [(), ()])
    assert all(not lane.ok for lane in lanes)
    assert "rendezvous deadlock" in lanes[0].error
    assert lanes[0].error_kind == "SimulationError"


def test_arity_error_lane_matches_scalar_message():
    system = compile_flow(_SPIN, flow="c2verilog").system
    batch = simulate_batched(system, [(0,), (1, 2)], max_cycles=500)
    good, bad = batch.lanes
    assert good.ok and good.result.value == 1
    assert not bad.ok
    with pytest.raises(SimulationError) as failure:
        simulate(system, args=(1, 2), max_cycles=500)
    assert bad.error == str(failure.value)
    assert isinstance(bad.error_class()(""), SimulationError)
    with pytest.raises(SimulationError):
        bad.raise_error()


# 64-bit registers and arguments outside int64: the wrap arithmetic must
# stay exact past 62 bits, and a lane's arguments are wrapped to each
# parameter's type exactly as a scalar run wraps them.
_WIDE = """
uint64 acc;
uint64 main(uint64 a, int64 b) {
    uint64 x = a;
    int i;
    for (i = 0; i < 4; i = i + 1) {
        x = x * 3 + b;
    }
    acc = x;
    return x >> 33;
}
"""


def test_wide_type_lanes_three_way():
    design = compile_flow(_WIDE, flow="c2verilog")
    lanes = _assert_three_way(design, [
        (2**63 + 1, -5), (2**64 - 1, 2**62), (7, -(2**63)),
    ])
    assert all(lane.ok for lane in lanes)
    assert len({lane.result.globals["acc"] for lane in lanes}) == 3


# ---------------------------------------------------------------------------
# Property-based: the fuzz grammar, all three backends
# ---------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=5000),
       flow=st.sampled_from(_FLOWS))
@settings(**_SETTINGS)
def test_grammar_three_way_equivalence(seed, flow):
    """Any generated program, any flow: every batch lane is bit-identical
    to the scalar backends on value, cycles, observable, and globals."""
    program = generate_program(seed, feature_mask(flow))
    try:
        design = compile_flow(program.source, flow=flow)
    except FlowError:
        return  # a historical restriction rejected it; nothing to batch
    arg_sets = [_spread(program.args, lane) for lane in range(4)]
    _assert_three_way(design, arg_sets, max_cycles=200_000)


# ---------------------------------------------------------------------------
# Profiler: per-lane and aggregate accounting
# ---------------------------------------------------------------------------


def test_batch_profile_reconciles_with_scalar_histograms():
    design = compile_flow(_DIVERGE, flow="c2verilog")
    arg_sets = [(2, 1), (7, 2), (0, 1), (5, 0)]
    profile = SimProfile()
    design.run_batch(arg_sets, sim_backend="batched", sim_profile=profile)

    assert profile.backend == "batched"
    assert profile.lanes == len(arg_sets)
    assert len(profile.lane_cycles) == len(arg_sets)
    assert profile.cycles == sum(profile.lane_cycles)

    summed = {}
    for args in arg_sets:
        scalar = SimProfile()
        try:
            design.run(args=args, sim_backend="interp", sim_profile=scalar)
        except InterpError:
            continue  # error lanes contribute no retired scalar cycles
        for name, hist in scalar.state_visits.items():
            bucket = summed.setdefault(name, {})
            for label, count in hist.items():
                bucket[label] = bucket.get(label, 0) + count
    # OK lanes' per-lane cycle counts equal their scalar runs exactly.
    for args, lane_cycles in zip(arg_sets, profile.lane_cycles):
        outcome = _scalar_outcome(design, args, "interp")
        if outcome[0] == "ok":
            assert lane_cycles == outcome[2]
        else:
            assert lane_cycles == 0
    # And every retired visit is accounted for at least up to the scalar
    # totals (trapped lanes may be profiled through their trap cycle).
    for name, hist in summed.items():
        for label, count in hist.items():
            assert profile.state_visits[name][label] >= count


def test_batch_profile_render_mentions_lanes():
    design = compile_flow(_DIVERGE, flow="c2verilog")
    profile = SimProfile()
    design.run_batch([(2, 1), (7, 2)], sim_backend="batched",
                     sim_profile=profile)
    text = profile.render()
    assert "lanes:" in text and "2" in text
    assert "cycles/lane" in text


def test_all_ok_batch_profile_visits_equal_scalar_sum():
    """With no trapping lanes the histogram reconciliation is exact."""
    design = compile_flow(_DIVERGE, flow="c2verilog")
    arg_sets = [(2, 1), (7, 2), (4, 7)]
    profile = SimProfile()
    design.run_batch(arg_sets, sim_backend="batched", sim_profile=profile)
    summed = {}
    for args in arg_sets:
        scalar = SimProfile()
        design.run(args=args, sim_backend="interp", sim_profile=scalar)
        for name, hist in scalar.state_visits.items():
            bucket = summed.setdefault(name, {})
            for label, count in hist.items():
                bucket[label] = bucket.get(label, 0) + count
    assert {n: dict(h) for n, h in profile.state_visits.items()} == summed


def test_scalar_run_profile_reports_one_lane():
    profile = SimProfile()
    run_flow(_SPIN, flow="c2verilog", args=(0,), sim_backend="compiled",
             sim_profile=profile)
    assert profile.lanes == 1
    assert "lanes:" not in profile.render()


# ---------------------------------------------------------------------------
# Trace spans: --trace-summary stays comparable with scalar runs
# ---------------------------------------------------------------------------


def test_batch_trace_has_sim_spans_with_lane_counter():
    result = synthesize(_DIVERGE, SynthesisOptions(
        flow="c2verilog", sim_backend="batched", trace=True))
    outcomes = result.run_batch([(2, 1), (7, 2), (5, 0)])
    assert len(outcomes) == 3
    execute = result.trace.find("sim.execute")
    assert execute is not None
    assert execute.args["lanes"] == 3
    assert execute.args["cycles"] == sum(
        _lane_outcome(o)[2] for o in outcomes if o.ok)
    assert result.trace.find("sim.compile") is not None
    assert result.trace.find("sim") is not None


def test_scalar_and_batch_traces_share_span_names():
    scalar = synthesize(_DIVERGE, SynthesisOptions(
        flow="c2verilog", sim_backend="compiled", trace=True))
    scalar.run(args=(2, 1))
    batch = synthesize(_DIVERGE, SynthesisOptions(
        flow="c2verilog", sim_backend="batched", trace=True))
    batch.run_batch([(2, 1)])
    for name in ("sim", "sim.compile", "sim.execute"):
        assert scalar.trace.find(name) is not None, name
        assert batch.trace.find(name) is not None, name


# ---------------------------------------------------------------------------
# The scalar surface of the batched backend
# ---------------------------------------------------------------------------


def test_scalar_batched_backend_matches_compiled():
    compiled = run_flow(_DIVERGE, flow="c2verilog", args=(7, 2),
                        sim_backend="compiled")
    batched = run_flow(_DIVERGE, flow="c2verilog", args=(7, 2),
                       sim_backend="batched")
    assert batched.observable() == compiled.observable()
    assert batched.cycles == compiled.cycles


def test_scalar_batched_backend_reraises_lane_error():
    design = compile_flow(_DIVERGE, flow="c2verilog")
    with pytest.raises(InterpError) as batched:
        design.run(args=(5, 0), sim_backend="batched")
    with pytest.raises(InterpError) as compiled:
        design.run(args=(5, 0), sim_backend="compiled")
    assert str(batched.value) == str(compiled.value)
    assert type(batched.value) is type(compiled.value)


# ---------------------------------------------------------------------------
# Cache identity and runner coalescing
# ---------------------------------------------------------------------------

# The pinned identity of one batched cell.  If this changes, the cache
# key changes with it and every cached batched artifact is invalidated —
# bump this golden only alongside a deliberate schema change.  (opt_level
# moved 2 -> 1 with SCHEMA_VERSION 3: the default is now the classic
# pipeline and level 2 selects the liveness-driven fixpoint mid-end.)
_PINNED_IDENTITY = {
    "flow": "c2verilog",
    "function": "main",
    "sim_backend": "batched",
    "opt_level": 1,
    "tech": "",
    "check": False,
    "options": [],
    "args": [7, 2],
}


def test_batched_identity_schema_pin():
    task = CellTask(workload="w", source=_DIVERGE, flow="c2verilog",
                    args=(7, 2), sim_backend="batched")
    assert task.identity() == _PINNED_IDENTITY
    # The pin is JSON-stable (the cache serializes it verbatim).
    assert json.loads(json.dumps(task.identity())) == _PINNED_IDENTITY


def test_cache_keys_distinguish_all_three_backends():
    keys = {
        cell_key(CellTask(workload="w", source=_DIVERGE, flow="c2verilog",
                          args=(7, 2), sim_backend=backend))
        for backend in ("interp", "compiled", "batched")
    }
    assert len(keys) == 3


def _batched_tasks(arg_sets, source=_DIVERGE, flow="c2verilog"):
    return [
        CellTask(workload=f"lane{i}", source=source, flow=flow,
                 args=tuple(args), sim_backend="batched")
        for i, args in enumerate(arg_sets)
    ]


def _neutral(result):
    identity = result.identity()
    identity.pop("sim_backend")
    identity.pop("workload")
    return identity


def test_coalesced_batch_matches_per_cell_interp():
    """Cells sharing (source, flow, options) run as one batch, yet their
    results are indistinguishable from scalar per-cell execution.  ERROR
    cells are never cached, so their free-form diagnostics only need to
    agree on the error message, not on traceback formatting."""
    engine = MatrixEngine(jobs=1, cache=None, timeout_s=60.0)
    arg_sets = [(2, 1), (7, 2), (5, 0), (0, 1)]
    batched = engine.run_cells(_batched_tasks(arg_sets))
    interp = engine.run_cells([
        CellTask(workload=f"lane{i}", source=_DIVERGE, flow="c2verilog",
                 args=tuple(args), sim_backend="interp")
        for i, args in enumerate(arg_sets)
    ])
    for a, b in zip(batched, interp):
        left, right = _neutral(a), _neutral(b)
        if a.verdict == "error":
            assert b.verdict == "error"
            assert "division by zero" in " ".join(a.diagnostics)
            assert "division by zero" in " ".join(b.diagnostics)
            left.pop("diagnostics")
            right.pop("diagnostics")
        assert left == right, a.args
    assert {r.sim_backend for r in batched} == {"batched"}


def test_batch_of_one_and_parallel_pool_agree():
    engine = MatrixEngine(jobs=1, cache=None, timeout_s=60.0)
    pool = MatrixEngine(jobs=2, cache=None, timeout_s=60.0)
    tasks = _batched_tasks([(7, 2)]) + _batched_tasks([(3, -1)], flow="handelc")
    serial = engine.run_cells(tasks)
    parallel = pool.run_cells(tasks)
    assert [r.identity() for r in serial] == [r.identity() for r in parallel]


def test_batch_cache_replay_is_byte_identical(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    arg_sets = [(2, 1), (7, 2), (4, 7)]
    cold_engine = MatrixEngine(jobs=1, cache=cache, timeout_s=60.0)
    cold = cold_engine.run_cells(_batched_tasks(arg_sets))
    warm = MatrixEngine(jobs=1, cache=cache, timeout_s=60.0).run_cells(
        _batched_tasks(arg_sets))
    assert [r.cached for r in cold] == [False] * len(arg_sets)
    assert [r.cached for r in warm] == [True] * len(arg_sets)
    assert [r.identity() for r in cold] == [r.identity() for r in warm]
    # Byte-level: the serialized identity dicts round-trip identically.
    assert (json.dumps([r.identity() for r in cold], sort_keys=True)
            == json.dumps([r.identity() for r in warm], sort_keys=True))


def test_error_lanes_are_not_cached(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    engine = MatrixEngine(jobs=1, cache=cache, timeout_s=60.0)
    tasks = _batched_tasks([(7, 2), (5, 0)])
    first = engine.run_cells(tasks)
    second = MatrixEngine(jobs=1, cache=cache, timeout_s=60.0).run_cells(tasks)
    assert first[1].verdict == "error"
    assert second[0].cached and not second[1].cached
    assert first[1].identity() == second[1].identity()
