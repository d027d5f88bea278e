"""The compiled FSMD engine's register intervals are sound.

At specialisation the compiled engine proves, for every state of every
machine, an interval that each machine-private register lies in when the
state is entered, and drops the memory guards, signed wraps and
division fix-ups those intervals make unneeded.  This suite holds the
proof to what the reference engine (:mod:`repro.sim.fsmd_sim`) actually
does:

* the reference engine runs the suite under every FSMD flow at opt
  levels 0–3, both fuzz corpora and a few hundred fuzz-grammar programs,
  observed from the test side: before every state it evaluates, each
  private register must lie in the interval proven for that state;
* edge programs (an off-by-one read, a divisor that reaches 0, a
  negative dividend, shifts by variable amounts, a counter that wraps, a
  global another process writes) give the same value, error text and
  cycle on both engines;
* a bounded shift or quotient (:mod:`repro.ir.intervals`) needs no wrap.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import SynthesisOptions, synthesize
from repro.flows import COMPILABLE
from repro.flows.base import FlowError
from repro.fuzz import feature_mask
from repro.fuzz.grammar import generate_program
from repro.lang.errors import InterpError
from repro.sim import compile_system, simulate
from repro.sim import fsmd_sim
from repro.workloads import WORKLOADS

TESTS = Path(__file__).parent
LEVELS = (0, 1, 2, 3)
FUZZ_SEEDS = 25
MAX_CYCLES = 200_000


def _fsmd_flows():
    probe = "int main(int x) { return x + 1; }"
    return [flow for flow in COMPILABLE
            if synthesize(probe, SynthesisOptions(flow=flow)).design
            .artifact_kind == "fsmd-system"]


FSMD_FLOWS = _fsmd_flows()


_BACKENDS = ("interp", "compiled")


def _outcome(system, args, backend, max_cycles):
    try:
        run = simulate(system, args=args, max_cycles=max_cycles,
                       sim_backend=backend)
    except InterpError as failure:
        return ("error", type(failure).__name__, str(failure))
    return ("ok", run.value, run.cycles, run.globals, run.channel_log)


class _Observer:
    """Checks, before the reference engine evaluates a state, that every
    private register lies in the interval proven for it."""

    def __init__(self):
        self.proofs = {}            # id(fsmd) -> {state id: {sym: bounds}}
        self.checked = 0

    def prove(self, system):
        plan = compile_system(system)
        for fsmd, intervals in zip(system.fsmds, plan.state_intervals()):
            self.proofs[id(fsmd)] = intervals

    def before_state(self, machine, state):
        intervals = self.proofs.get(id(machine.fsmd))
        if intervals is None:
            return
        proven = intervals.get(state.id)
        assert proven is not None, (
            f"{machine.fsmd.name}: {state.label} entered, proven unreachable")
        for symbol, bounds in proven.items():
            value = machine.registers.get(symbol, 0)
            assert bounds is None or bounds[0] <= value <= bounds[1], (
                f"{machine.fsmd.name}: {symbol.unique_name} = {value} on"
                f" entry to {state.label}, proven {bounds}")
        self.checked += 1


@pytest.fixture
def observer(monkeypatch):
    watch = _Observer()
    evaluate = fsmd_sim._Machine.evaluate_state

    def observed(machine, state):
        watch.before_state(machine, state)
        return evaluate(machine, state)

    monkeypatch.setattr(fsmd_sim._Machine, "evaluate_state", observed)
    return watch


def _run_observed(watch, source, flow, args, level=1):
    """Compile, prove, then run the reference engine under observation;
    the compiled engine must agree with it.  Returns False when the flow
    rejects the program."""
    try:
        design = synthesize(
            source, SynthesisOptions(flow=flow, opt_level=level)).design
    except FlowError:
        return False
    if design.artifact_kind != "fsmd-system":
        return False
    watch.prove(design.system)
    outcomes = [_outcome(design.system, tuple(args), backend, MAX_CYCLES)
                for backend in _BACKENDS]
    assert outcomes[0] == outcomes[1], f"{flow}: engines disagree"
    return True


@pytest.mark.parametrize("flow", FSMD_FLOWS)
def test_suite_intervals_hold_on_the_reference_engine(flow, observer):
    ran = 0
    for workload in WORKLOADS:
        for level in LEVELS:
            ran += _run_observed(observer, workload.source, flow,
                                 workload.args, level)
    assert ran and observer.checked


def _corpus_entries():
    for path in sorted((TESTS / "corpus").glob("*/*.json")):
        entry = json.loads(path.read_text())
        yield entry["source"], entry["flow"], [entry["args"]]
    for path in sorted((TESTS / "batch_corpus").glob("*.json")):
        entry = json.loads(path.read_text())
        yield entry["source"], entry["flow"], entry["lanes"]


def test_corpus_intervals_hold_on_the_reference_engine(observer):
    ran = 0
    for source, flow, lanes in _corpus_entries():
        for args in lanes:
            ran += _run_observed(observer, source, flow, args)
    assert ran >= 10 and observer.checked


@pytest.mark.parametrize("flow", FSMD_FLOWS)
def test_fuzz_intervals_hold_on_the_reference_engine(flow, observer):
    mask = feature_mask(flow)
    ran = 0
    for seed in range(FUZZ_SEEDS):
        program = generate_program(seed, mask)
        ran += _run_observed(observer, program.source, flow, program.args)
    assert ran >= FUZZ_SEEDS // 2 and observer.checked


def test_enough_fuzz_programs():
    assert FUZZ_SEEDS * len(FSMD_FLOWS) >= 200


# ---------------------------------------------------------------------------
# Edge programs: where a proof that went wrong would show first
# ---------------------------------------------------------------------------

_OFF_BY_ONE = """
int a[8];
int main(int n) {
    int s = 0;
    for (int i = 0; i <= 8; i++) {
        a[i & 7] = i + n;
        s = s + a[i];
    }
    return s;
}
"""

_DIVISOR_REACHES_ZERO = """
int main(int n) {
    int s = 0;
    for (int d = n; d >= 0; d--) {
        s = s + 100 / d + 100 % d;
    }
    return s;
}
"""

_NEGATIVE_DIVIDEND = """
int main(int n) {
    int s = 0;
    for (int i = 1; i < 20; i++) {
        s = s + (n - i * 7) / i + (n - i * 5) % i;
    }
    return s;
}
"""

_VARIABLE_SHIFTS = """
int main(int n) {
    int s = 0;
    for (int i = 0; i < 40; i++) {
        s = s + ((n - i * 3) >> i) + ((i & 15) << (i & 3));
    }
    return s;
}
"""

_WRAPS_AT_MAX = """
int main(int n) {
    int8 c = 120;
    int s = 0;
    for (int i = 0; i < n; i++) {
        c = c + 1;
        s = s + c;
    }
    return s * 1000 + c;
}
"""

_GLOBAL_FROM_ANOTHER_PROCESS = """
chan<int> go;
int shared = 0;
process void writer() {
    int k = recv(go);
    shared = k * 3;
    delay(2);
    shared = shared + 7;
}
int main(int n) {
    int i = 0;
    int seen = 0;
    send(go, n);
    while (i < 6) {
        seen = seen + shared;
        i = i + 1;
    }
    return seen;
}
"""


_SCALAR_FLOWS = ("c2verilog", "handelc", "specc", "bachc")
_EDGES = [
    ("off-by-one", _OFF_BY_ONE, (3,), "out of bounds", _SCALAR_FLOWS),
    ("divisor-zero", _DIVISOR_REACHES_ZERO, (5,), "by zero", _SCALAR_FLOWS),
    ("negative-dividend", _NEGATIVE_DIVIDEND, (3,), None, _SCALAR_FLOWS),
    ("variable-shift", _VARIABLE_SHIFTS, (20,), None, _SCALAR_FLOWS),
    ("wrap-at-max", _WRAPS_AT_MAX, (20,), None, _SCALAR_FLOWS),
    ("foreign-global", _GLOBAL_FROM_ANOTHER_PROCESS, (4,), None,
     ("handelc", "specc", "bachc")),
]


@pytest.mark.parametrize("source,args,fault,flow", [
    pytest.param(source, args, fault, flow, id=f"{name}-{flow}")
    for name, source, args, fault, flows in _EDGES for flow in flows
])
def test_edge_outcomes_identical(source, args, fault, flow):
    """Same value, or same error on the same cycle, on both engines."""
    system = synthesize(source, SynthesisOptions(flow=flow)).design.system
    final = [_outcome(system, args, backend, MAX_CYCLES)
             for backend in _BACKENDS]
    assert final[0] == final[1]
    if final[0][0] == "ok":
        # Where the budget runs out mid-run, both engines agree too.
        budgets = (final[0][2] - 1, final[0][2])
    else:
        # The first budget at which the fault shows is its cycle.
        low, high = 1, MAX_CYCLES
        while low < high:
            middle = (low + high) // 2
            if _outcome(system, args, "interp", middle) == final[0]:
                high = middle
            else:
                low = middle + 1
        budgets = (low - 1, low, low + 1)
    for budget in budgets:
        outcomes = [_outcome(system, args, backend, budget)
                    for backend in _BACKENDS]
        assert outcomes[0] == outcomes[1], budget
    if fault is not None and flow != "handelc":
        assert final[0][0] == "error" and fault in final[0][2]


# ---------------------------------------------------------------------------
# What the shared interval rules let the generated code leave out
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source,args", [
    # A bounded value shifted by a bounded amount: [0, 120].
    ("int main(int n) { int k = n & 3; int m = n & 15; return m << k; }",
     (7,)),
    # A divisor in [2, 9] halves the quotient's range: |q| <= 256.
    ("int main(int n) { int d = (n & 7) + 2; int x = (n & 1023) - 512;"
     " return (x / d) * 8000000; }", (5,)),
], ids=["variable-shift", "bounded-divisor"])
def test_bounded_results_need_no_wrap(source, args):
    system = synthesize(source, SynthesisOptions(flow="c2verilog")).design.system
    assert "_w" not in compile_system(system).dump()
    outcomes = [_outcome(system, args, backend, MAX_CYCLES)
                for backend in _BACKENDS]
    assert outcomes[0] == outcomes[1]
