"""Coalesced-lane equivalence: the runner's lanes vs interp vs compiled.

The matrix runner coalesces the cells of one design — the same source
and options, different inputs — into one payload: one compile, then
each cell's run as a lane of it (:func:`repro.runner.execute_cell`).
Coalescing must be invisible.  Every lane's result is the one its cell
gives when it runs alone, *including* lanes that trap, deadlock, exhaust
the cycle budget, or pass the wrong number of arguments.  This suite
pins that contract four ways:

* handwritten kernels that force lanes apart (per-lane trip counts,
  early returns, div/mod/shift traps, lane-dependent stores): each
  coalesced lane, on either engine, equals both scalar engines;
* property-based generation over the fuzz grammar, asserting the same
  on return values, cycle counts, and observables for every lane;
* coverage stats and traces: each lane reports what its cell reports
  alone;
* the runner integration — cache identity (one design, one entry),
  worker pools, and replay from the artifact cache.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import SIM_BACKENDS, SynthesisOptions, synthesize
from repro.flows import COMPILABLE, FlowError
from repro.fuzz import feature_mask, generate_program
from repro.lang import InterpError
from repro.runner import (
    ArtifactCache,
    CellTask,
    MatrixEngine,
    canonical_observable,
    execute_cell,
)
from repro.runner.cache import cell_key
from repro.runner.cells import SCHEMA_VERSION
from repro.sim import SimProfile, SimulationError
from repro.trace import counters_of, structure_of

_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FLOWS = sorted(COMPILABLE)


# ---------------------------------------------------------------------------
# Lane-by-lane comparison helpers
# ---------------------------------------------------------------------------


def _design(source, flow):
    return synthesize(source, SynthesisOptions(flow=flow)).design


def _tasks(arg_sets, source, flow="c2verilog", backend="compiled"):
    return [
        CellTask(workload=f"lane{i}", source=source,
                 options=SynthesisOptions(flow=flow, sim_backend=backend),
                 args=tuple(args))
        for i, args in enumerate(arg_sets)
    ]


def _coalesced(arg_sets, source, flow="c2verilog", backend="compiled",
               max_cycles=2_000_000, **engine):
    """The cells of ``arg_sets`` through one ``run_cells`` call, which
    coalesces them into one payload."""
    engine = MatrixEngine(jobs=1, cache=None, timeout_s=60.0,
                          max_cycles=max_cycles, **engine)
    return engine.run_cells(_tasks(arg_sets, source, flow, backend))


def _alone(arg_sets, source, flow="c2verilog", backend="compiled",
           max_cycles=2_000_000, **engine):
    """The same cells, one ``run_cells`` call each: nothing to coalesce."""
    engine = MatrixEngine(jobs=1, cache=None, timeout_s=60.0,
                          max_cycles=max_cycles, **engine)
    return [engine.run_cells([task])[0]
            for task in _tasks(arg_sets, source, flow, backend)]


def _scalar_outcome(design, args, backend, max_cycles=2_000_000):
    """What one scalar run produced, flattened for equality checks."""
    try:
        r = design.run(args=args, sim_backend=backend, max_cycles=max_cycles)
    except InterpError as failure:
        return ("error", type(failure).__name__, str(failure))
    return ("ok", r.value, r.cycles, canonical_observable(r.observable()))


def _lane_outcome(result):
    """A runner CellResult flattened into the same shape; an error lane's
    last diagnostic line is the exception's ``module.Class: message``."""
    if result.verdict == "error":
        head, _, message = result.diagnostics[-1].partition(": ")
        return ("error", head.rsplit(".", 1)[-1], message)
    assert result.verdict in ("ok", "mismatch"), result.diagnostics
    return ("ok", result.value, result.cycles, result.observable)


def _assert_three_way(source, flow, arg_sets, max_cycles=2_000_000):
    """Every coalesced lane, on each engine, matches both scalar engines
    bit for bit.  Returns the compiled engine's lanes."""
    design = _design(source, flow)
    lanes = {}
    for backend in SIM_BACKENDS:
        lanes[backend] = _coalesced(arg_sets, source, flow, backend,
                                    max_cycles)
        assert len(lanes[backend]) == len(arg_sets)
    for index, args in enumerate(arg_sets):
        compiled = _scalar_outcome(design, args, "compiled", max_cycles)
        interp = _scalar_outcome(design, args, "interp", max_cycles)
        assert compiled == interp, f"args {args}"
        for backend in SIM_BACKENDS:
            lane = lanes[backend][index]
            assert lane.args == tuple(args)
            assert _lane_outcome(lane) == compiled, (
                f"args {args}: coalesced {backend}={_lane_outcome(lane)},"
                f" scalar={compiled}"
            )
    return lanes["compiled"]


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
# on d == -1.  One payload over this kernel mixes every lane outcome.
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
    lanes = _assert_three_way(_DIVERGE, flow, _DIVERGE_LANES)
    kinds = {_lane_outcome(lane)[0] for lane in lanes}
    assert kinds == {"ok", "error"}  # the payload really mixed both


def test_cells_of_one_design_share_one_payload():
    """One payload per design, with one lane per cell; another flow is
    another design."""
    payloads = []

    def counting(payload):
        payloads.append(len(payload["lanes"]))
        return execute_cell(payload)

    engine = MatrixEngine(jobs=1, cache=None, worker=counting)
    engine.run_cells(
        _tasks([(7, 2), (8, 3), (5, 0)], _DIVERGE)
        + _tasks([(7, 2)], _DIVERGE, flow="handelc")
    )
    assert payloads == [3, 1]


def test_trap_lane_does_not_poison_neighbours():
    clean = _coalesced([(7, 2), (8, 3)], _DIVERGE)
    mixed = _coalesced([(7, 2), (5, 0), (8, 3)], _DIVERGE)
    assert _lane_outcome(mixed[0]) == _lane_outcome(clean[0])
    assert _lane_outcome(mixed[2]) == _lane_outcome(clean[1])
    assert mixed[1].verdict == "error"
    assert "divi" in mixed[1].diagnostics[-1].lower()


def test_budget_lane_matches_scalar_error():
    lanes = _assert_three_way(_SPIN, "c2verilog", [(0,), (1,), (0,)],
                              max_cycles=500)
    assert lanes[0].ok and lanes[2].ok
    assert _lane_outcome(lanes[1]) == (
        "error", "SimulationError", "cycle budget of 500 exhausted"
    )


def test_deadlock_lanes_match_scalar_error():
    lanes = _assert_three_way(_DEADLOCK, "specc", [(), ()])
    assert all(lane.verdict == "error" for lane in lanes)
    kind, message = _lane_outcome(lanes[0])[1:]
    assert kind == "SimulationError" and "rendezvous deadlock" in message


def test_arity_error_lane_matches_scalar_message():
    design = _design(_SPIN, "c2verilog")
    good, bad = _coalesced([(0,), (1, 2)], _SPIN, max_cycles=500)
    assert good.ok and good.value == 1
    with pytest.raises(SimulationError) as failure:
        design.run(args=(1, 2), max_cycles=500, sim_backend="compiled")
    assert _lane_outcome(bad) == ("error", "SimulationError",
                                  str(failure.value))


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
    lanes = _assert_three_way(_WIDE, "c2verilog", [
        (2**63 + 1, -5), (2**64 - 1, 2**62), (7, -(2**63)),
    ])
    assert all(lane.ok for lane in lanes)
    assert len({json.dumps(lane.observable[1]) for lane in lanes}) == 3


# ---------------------------------------------------------------------------
# Property-based: the fuzz grammar, coalesced and scalar
# ---------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=5000),
       flow=st.sampled_from(_FLOWS))
@settings(**_SETTINGS)
def test_grammar_three_way_equivalence(seed, flow):
    """Any generated program, any flow: every coalesced lane is
    bit-identical to the scalar engines on value, cycles, and
    observables."""
    program = generate_program(seed, feature_mask(flow))
    try:
        _design(program.source, flow)
    except FlowError:
        return  # a historical restriction rejected it; nothing to run
    arg_sets = [_spread(program.args, lane) for lane in range(4)]
    _assert_three_way(program.source, flow, arg_sets, max_cycles=200_000)


# ---------------------------------------------------------------------------
# Coverage stats and traces: each lane reports what its cell does alone
# ---------------------------------------------------------------------------


def test_batch_profile_reconciles_with_scalar_histograms():
    """A coalesced lane's sim stats are its own scalar run's, whatever
    its neighbours did; a lane whose sim raised reports {}."""
    design = _design(_DIVERGE, "c2verilog")
    arg_sets = [(2, 1), (7, 2), (0, 1), (5, 0)]
    for backend in SIM_BACKENDS:
        lanes = _coalesced(arg_sets, _DIVERGE, backend=backend,
                           trace=True)
        for args, lane in zip(arg_sets, lanes):
            scalar = SimProfile()
            try:
                design.run(args=args, sim_backend="interp",
                           sim_profile=scalar)
            except InterpError:
                assert lane.verdict == "error" and lane.sim_stats == {}
                continue
            assert lane.sim_stats == scalar.coverage_stats(), (backend, args)


def test_all_ok_batch_profile_visits_equal_scalar_sum():
    """With every lane retiring, the coalesced lanes report the sim
    stats and the trace shape and counters of the same cells run alone,
    and their visit counts add up to the scalar runs' visit counts."""
    arg_sets = [(2, 1), (7, 2), (4, 7)]
    design = _design(_DIVERGE, "c2verilog")
    scalar_visits = 0
    for args in arg_sets:
        scalar = SimProfile()
        design.run(args=args, sim_backend="interp", sim_profile=scalar)
        scalar_visits += sum(scalar.coverage_stats()["visits"])
    for backend in SIM_BACKENDS:
        flags = dict(backend=backend, trace=True)
        lanes = _coalesced(arg_sets, _DIVERGE, **flags)
        alone = _alone(arg_sets, _DIVERGE, **flags)
        assert all(lane.ok for lane in lanes)
        for lane, cell in zip(lanes, alone):
            assert lane.sim_stats == cell.sim_stats
            assert structure_of(lane.trace) == structure_of(cell.trace)
            assert counters_of(lane.trace) == counters_of(cell.trace)
        assert sum(sum(lane.sim_stats["visits"]) for lane in lanes) == (
            scalar_visits
        )


def test_scalar_and_batch_traces_share_span_names():
    """Each coalesced lane's trace is the compile's spans plus its own
    sim, bind, and emit spans — the shape a cell alone gets."""
    [alone] = _alone([(2, 1)], _DIVERGE, trace=True)
    lanes = _coalesced([(2, 1), (7, 2), (5, 0)], _DIVERGE, trace=True)
    for name in ("sim", "sim.compile", "sim.execute", "bind", "emit"):
        assert name in json.dumps(structure_of(alone.trace)), name
    assert structure_of(lanes[0].trace) == structure_of(alone.trace)
    assert structure_of(lanes[1].trace) == structure_of(alone.trace)
    # The trapping lane stops in its sim span, as it does alone.
    [trapped] = _alone([(5, 0)], _DIVERGE, trace=True)
    assert structure_of(lanes[2].trace) == structure_of(trapped.trace)
    assert "sim" in structure_of(trapped.trace)
    assert "bind" not in json.dumps(structure_of(trapped.trace))


# ---------------------------------------------------------------------------
# Cache identity and runner coalescing
# ---------------------------------------------------------------------------

# The pinned identity of one cell, coalesced or alone.  If this changes,
# the cache key changes with it and every cached artifact is invalidated —
# bump this golden only alongside a deliberate schema change.  (v4: the
# sim backend left the identity; one design has one cache entry.  v5:
# overflowing constant initializers are stored wrapped; the identity's
# fields did not change.)
_PINNED_IDENTITY = {
    "flow": "c2verilog",
    "function": "main",
    "opt_level": 1,
    "tech": "",
    "check": False,
    "options": [],
    "args": [7, 2],
}


def test_batched_identity_schema_pin():
    assert SCHEMA_VERSION == 5
    for backend in SIM_BACKENDS:
        task = CellTask(workload="w", source=_DIVERGE,
                        options=SynthesisOptions(flow="c2verilog",
                                                 sim_backend=backend),
                        args=(7, 2))
        assert task.identity() == _PINNED_IDENTITY
        # The pin is JSON-stable (the cache serializes it verbatim).
        assert json.loads(json.dumps(task.identity())) == _PINNED_IDENTITY


def test_one_design_one_cache_entry(tmp_path):
    """Both engines share a cell's key, so a compiled sweep after a cold
    interp one replays every cell from the cache."""
    arg_sets = [(2, 1), (7, 2), (4, 7)]
    interp, compiled = (_tasks(arg_sets, _DIVERGE, backend=backend)
                        for backend in SIM_BACKENDS)
    assert ([cell_key(task) for task in interp]
            == [cell_key(task) for task in compiled])
    cache = ArtifactCache(tmp_path / "cache")
    cold = MatrixEngine(jobs=1, cache=cache).run_cells(interp)
    warm = MatrixEngine(jobs=1, cache=cache).run_cells(compiled)
    assert [r.cached for r in cold] == [False] * len(arg_sets)
    assert [r.cached for r in warm] == [True] * len(arg_sets)
    assert len(cache) == len(arg_sets)
    assert [r.identity() for r in cold] == [r.identity() for r in warm]
    # The engine that ran is provenance: the replay names it truthfully.
    assert {r.sim_backend for r in warm} == {"interp"}


def _neutral(result):
    identity = result.identity()
    identity.pop("workload")
    return identity


def test_coalesced_batch_matches_per_cell_interp():
    """Cells sharing (source, flow, options) run as one payload, yet their
    results are indistinguishable from per-cell execution: exactly so on
    the same engine, and up to an error's traceback frames across
    engines (ERROR cells are never cached)."""
    arg_sets = [(2, 1), (7, 2), (5, 0), (0, 1)]
    coalesced = _coalesced(arg_sets, _DIVERGE, backend="compiled")
    interp = _alone(arg_sets, _DIVERGE, backend="interp")
    compiled = _alone(arg_sets, _DIVERGE, backend="compiled")
    assert [r.identity() for r in coalesced] == [
        r.identity() for r in compiled
    ]
    for a, b in zip(coalesced, interp):
        left, right = _neutral(a), _neutral(b)
        if a.verdict == "error":
            assert b.verdict == "error"
            assert "division by zero" in " ".join(a.diagnostics)
            assert "division by zero" in " ".join(b.diagnostics)
            left.pop("diagnostics")
            right.pop("diagnostics")
        assert left == right, a.args
    assert {r.sim_backend for r in coalesced} == {"compiled"}


def test_batch_of_one_and_parallel_pool_agree():
    engine = MatrixEngine(jobs=1, cache=None, timeout_s=60.0)
    pool = MatrixEngine(jobs=2, cache=None, timeout_s=60.0)
    tasks = (_tasks([(7, 2), (5, 0)], _DIVERGE)
             + _tasks([(3, -1)], _DIVERGE, flow="handelc"))
    serial = engine.run_cells(tasks)
    parallel = pool.run_cells(tasks)
    assert [r.identity() for r in serial] == [r.identity() for r in parallel]


def test_batch_cache_replay_is_byte_identical(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    arg_sets = [(2, 1), (7, 2), (4, 7)]
    cold_engine = MatrixEngine(jobs=1, cache=cache, timeout_s=60.0)
    cold = cold_engine.run_cells(_tasks(arg_sets, _DIVERGE))
    warm = MatrixEngine(jobs=1, cache=cache, timeout_s=60.0).run_cells(
        _tasks(arg_sets, _DIVERGE))
    assert [r.cached for r in cold] == [False] * len(arg_sets)
    assert [r.cached for r in warm] == [True] * len(arg_sets)
    assert [r.identity() for r in cold] == [r.identity() for r in warm]
    # Byte-level: the serialized identity dicts round-trip identically.
    assert (json.dumps([r.identity() for r in cold], sort_keys=True)
            == json.dumps([r.identity() for r in warm], sort_keys=True))


def test_error_lanes_are_not_cached(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    engine = MatrixEngine(jobs=1, cache=cache, timeout_s=60.0)
    tasks = _tasks([(7, 2), (5, 0)], _DIVERGE)
    first = engine.run_cells(tasks)
    second = MatrixEngine(jobs=1, cache=cache, timeout_s=60.0).run_cells(tasks)
    assert first[1].verdict == "error"
    assert second[0].cached and not second[1].cached
    assert first[1].identity() == second[1].identity()
