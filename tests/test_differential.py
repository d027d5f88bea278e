"""Differential co-simulation: every flow against the reference interpreter.

Each compiling (workload, flow) cell is executed through the matrix
runner — in parallel, exactly as ``repro sweep`` runs it — and its full
simulated observable (return value, final globals, channel log) must
match the reference C interpreter bit for bit.  Rejections are fine
(that is the paper's Table 1 doing its job); silent divergence is not.
"""

import pytest

from repro.flows import COMPILABLE
from repro.runner import MISMATCH, OK, REJECTED, MatrixEngine, suite_tasks
from repro.runner.cells import canonical_observable
from repro.interp import run_source
from repro.workloads import WORKLOADS

_PAIRS = [(w.name, flow) for w in WORKLOADS for flow in COMPILABLE]


@pytest.fixture(scope="module")
def sweep():
    """One parallel sweep of the full matrix, shared by every test here."""
    engine = MatrixEngine(jobs=4)
    results = engine.run_cells(suite_tasks())
    return {(r.workload, r.flow): r for r in results}


@pytest.fixture(scope="module")
def opt_sweep():
    """The same matrix compiled through the opt_level=2 fixpoint mid-end."""
    engine = MatrixEngine(jobs=4)
    results = engine.run_cells(suite_tasks(opt_level=2))
    return {(r.workload, r.flow): r for r in results}


@pytest.mark.parametrize("workload,flow", _PAIRS,
                         ids=[f"{w}-{f}" for w, f in _PAIRS])
def test_cell_matches_reference_interpreter(sweep, workload, flow):
    cell = sweep[(workload, flow)]
    assert cell.verdict in (OK, REJECTED), (
        f"{workload} x {flow}: verdict {cell.verdict!r} — {cell.note(200)}"
    )
    if cell.verdict != OK:
        return
    spec = next(w for w in WORKLOADS if w.name == workload)
    golden = run_source(spec.source, function="main", args=tuple(spec.args))
    assert cell.observable == canonical_observable(golden.observable()), (
        f"{workload} x {flow} diverged from the reference interpreter"
    )
    assert cell.value == golden.value


def test_no_cell_mismatches(sweep):
    bad = [key for key, cell in sweep.items() if cell.verdict == MISMATCH]
    assert not bad


def test_matrix_is_fully_covered(sweep):
    assert set(sweep) == set(_PAIRS)


def test_every_workload_compiles_somewhere(sweep):
    for spec in WORKLOADS:
        oks = [f for f in COMPILABLE if sweep[(spec.name, f)].verdict == OK]
        assert oks, f"{spec.name} compiled under no flow at all"


@pytest.mark.parametrize("workload,flow", _PAIRS,
                         ids=[f"{w}-{f}" for w, f in _PAIRS])
def test_opt_level2_cell_is_equivalent_and_no_slower(sweep, opt_sweep,
                                                     workload, flow):
    """The fixpoint mid-end may only make cells faster, never different.

    Per cell: the verdict class must match the default sweep (an optimizer
    must not flip a rejection or break a compile), OK cells must stay bit
    identical to the reference interpreter, and the scheduled cycle count
    may only improve."""
    base = sweep[(workload, flow)]
    opt = opt_sweep[(workload, flow)]
    assert opt.verdict == base.verdict, (
        f"{workload} x {flow}: opt_level=2 turned {base.verdict!r} into "
        f"{opt.verdict!r} — {opt.note(200)}"
    )
    if base.verdict != OK:
        return
    spec = next(w for w in WORKLOADS if w.name == workload)
    golden = run_source(spec.source, function="main", args=tuple(spec.args))
    assert opt.observable == canonical_observable(golden.observable()), (
        f"{workload} x {flow} diverged from the reference at opt_level=2"
    )
    assert opt.value == golden.value
    assert opt.cycles <= base.cycles, (
        f"{workload} x {flow}: opt_level=2 regressed cycles "
        f"{base.cycles} -> {opt.cycles}"
    )


def test_opt_level2_matrix_is_fully_covered(opt_sweep):
    assert set(opt_sweep) == set(_PAIRS)


# Constant initializers outside their declared type: each variable holds
# the wrapped value, in the golden model and in every flow.  (Handel-C
# reads the local's constant in the state that latches it.)
_OVERFLOWING_INITS = {
    "array-int8": "int8 a[1] = {300}; int main() { return a[0]; }",
    "array-uint8": "uint8 a[1] = {-1}; int main() { return a[0]; }",
    "global-int8": "int8 g = 300; int main() { return g; }",
    "local-int8": "int main() { int8 x = 300; return x; }",
}
_INIT_CELLS = [(case, flow, engine) for case in _OVERFLOWING_INITS
               for flow in ("c2verilog", "handelc", "cones")
               for engine in ("interp", "compiled")]


@pytest.mark.parametrize("case,flow,engine", _INIT_CELLS,
                         ids=["-".join(cell) for cell in _INIT_CELLS])
def test_overflowing_initializer_matches_golden(case, flow, engine):
    from repro.api import SynthesisOptions, synthesize

    source = _OVERFLOWING_INITS[case]
    golden = run_source(source, function="main", args=())
    assert golden.value in (44, 255)
    run = synthesize(source, SynthesisOptions(flow=flow, sim_backend=engine)
                     ).run(args=())
    assert run.value == golden.value
