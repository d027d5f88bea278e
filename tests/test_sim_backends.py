"""Backend-equivalence suite: interp vs compiled FSMD simulation.

The compiled backend (:mod:`repro.sim.compiled`) must be a pure
performance transformation — bit-identical :class:`SimResult` contents,
identical error messages, identical profiler histograms — so the
simulator may pick either engine for a run (:func:`repro.sim.simulate`)
without changing its outcome.  This suite pins that contract three ways,
plus the rule that picks the engine:

* the full workload × flow matrix through the shared engine, where a
  cell's ``identity()`` (minus the backend tag itself) must not depend
  on the backend;
* targeted rendezvous, tolerant-memory, structural, and error-path
  programs where the general scheduler and the single-machine fast
  path each get exercised directly;
* the triaged fuzz corpus, whose divergence signatures must be
  backend-independent (a flow bug is a flow bug under either engine).
"""

import copy
import json
from pathlib import Path

import pytest

from repro.api import SIM_BACKENDS, SynthesisOptions, synthesize
from repro.flows import OcapiModule
from repro.fuzz import Corpus, CorpusEntry, replay_entry
from repro.runner import CellTask, MatrixEngine, suite_tasks
import repro.sim
from repro.sim import (
    SimProfile,
    SimulationError,
    compile_system,
    simulate,
)

CORPUS_DIR = Path(__file__).parent / "corpus"


@pytest.fixture(scope="module")
def engine():
    return MatrixEngine(jobs=1, cache=None, timeout_s=30.0, max_cycles=200_000)


def _neutral_identity(result):
    """A cell's identity — everything that must NOT depend on the
    backend (which the identity leaves out as provenance)."""
    identity = result.identity()
    assert "sim_backend" not in identity
    return identity


# ---------------------------------------------------------------------------
# The whole matrix, both backends
# ---------------------------------------------------------------------------


def test_suite_identity_is_backend_independent(engine):
    """Every (workload, flow) cell produces the same identity — value,
    cycles, observables, verdict, diagnostics, RTL hash — under both
    backends.  This is the acceptance criterion for the whole subsystem."""
    interp = engine.run_cells(suite_tasks(sim_backend="interp"))
    compiled = engine.run_cells(suite_tasks(sim_backend="compiled"))
    assert len(interp) == len(compiled) and interp
    for a, b in zip(interp, compiled):
        assert _neutral_identity(a) == _neutral_identity(b), (
            f"{a.workload}/{a.flow}: backends diverge"
        )


# ---------------------------------------------------------------------------
# Rendezvous programs (multi-machine general scheduler)
# ---------------------------------------------------------------------------

_PRODUCER_CONSUMER = """
chan<int> c;
chan<int> done;

process void producer() {
    int i;
    for (i = 1; i <= 8; i = i + 1) {
        send(c, i * i);
    }
}

process void consumer() {
    int i;
    int total = 0;
    for (i = 0; i < 8; i = i + 1) {
        total = total + recv(c);
    }
    send(done, total);
}

int main() {
    return recv(done);
}
"""

_STAGGERED = """
chan<int> c;
int seen = 0;

process void fast() {
    send(c, 7);
    send(c, 9);
}

process void slow() {
    delay(5);
    seen = recv(c);
    delay(3);
    seen = seen + recv(c);
}

int main() {
    delay(20);
    return 0;
}
"""


@pytest.mark.parametrize("flow", ["specc", "systemc"])
@pytest.mark.parametrize("source", [_PRODUCER_CONSUMER, _STAGGERED],
                         ids=["producer-consumer", "staggered-delay"])
def test_rendezvous_results_identical(flow, source):
    interp = synthesize(source, flow=flow, sim_backend="interp").run()
    compiled = synthesize(source, flow=flow, sim_backend="compiled").run()
    assert interp.observable() == compiled.observable()
    assert interp.cycles == compiled.cycles
    assert interp.channel_log == compiled.channel_log
    assert interp.globals == compiled.globals
    assert interp.stats.get("stall_cycles") == compiled.stats.get(
        "stall_cycles"
    )


def test_ocapi_structural_design_both_backends():
    def build():
        m = OcapiModule("accumulate")
        n = m.input("n")
        acc = m.register("acc")
        i = m.register("i")
        entry, loop, done = m.entry, m.state("loop"), m.state("done")
        entry.latch(acc, 0).latch(i, 0).goto(loop)
        next_i = loop.add(i, 1)
        loop.latch(acc, loop.add(acc, i)).latch(i, next_i)
        loop.branch(loop.lt(next_i, n), loop, done)
        done.done(done.read(acc))
        return m.build()

    interp = build().run(args=(10,), sim_backend="interp")
    compiled = build().run(args=(10,), sim_backend="compiled")
    assert interp.observable() == compiled.observable()
    assert (interp.value, interp.cycles) == (compiled.value, compiled.cycles)
    assert compiled.value == 45


def test_handelc_tolerant_memory_both_backends():
    source = """
    int lut[4] = {10, 20, 30, 40};
    int main(int i) {
        lut[i + 9] = 99;
        return lut[i + 9] + lut[i];
    }
    """
    interp = synthesize(source, flow="handelc",
                        sim_backend="interp").run(args=(2,))
    compiled = synthesize(source, flow="handelc",
                          sim_backend="compiled").run(args=(2,))
    assert interp.observable() == compiled.observable()
    assert interp.cycles == compiled.cycles


# ---------------------------------------------------------------------------
# Error-path parity (message-for-message)
# ---------------------------------------------------------------------------


def _error_from(design, **kwargs):
    with pytest.raises(SimulationError) as failure:
        design.run(**kwargs)
    return str(failure.value)


def _design(source, flow="specc"):
    return synthesize(source, flow=flow).design


def test_deadlock_message_identical():
    source = """
    chan<int> c;
    int main() {
        return recv(c);
    }
    """
    design = _design(source)
    interp = _error_from(design, sim_backend="interp")
    compiled = _error_from(design, sim_backend="compiled")
    assert interp == compiled
    assert "rendezvous deadlock" in compiled


def test_global_race_message_identical():
    source = """
    int shared = 0;
    process void a() { shared = 1; }
    process void b() { shared = 2; }
    int main() { delay(4); return shared; }
    """
    design = _design(source)
    interp = _error_from(design, sim_backend="interp")
    compiled = _error_from(design, sim_backend="compiled")
    assert interp == compiled
    assert "written by" in compiled and "same cycle" in compiled


def test_cycle_budget_message_identical():
    source = "int main() { while (1) { } return 0; }"
    design = _design(source, flow="c2verilog")
    interp = _error_from(design, max_cycles=500, sim_backend="interp")
    compiled = _error_from(design, max_cycles=500, sim_backend="compiled")
    assert interp == compiled == "cycle budget of 500 exhausted"


def test_unknown_backend_rejected():
    design = _design("int main() { return 3; }", flow="c2verilog")
    with pytest.raises(ValueError, match="unknown sim backend"):
        design.run(sim_backend="jit")


@pytest.mark.parametrize("backend", ["turbo", "batched", ""])
def test_option_sets_reject_unknown_backend_when_built(backend):
    """The API's option set, the one place an engine can be pinned,
    checks the name when it is built, not at the first ``run``."""
    assert SIM_BACKENDS == ("interp", "compiled")
    with pytest.raises(ValueError, match=r"\['interp', 'compiled'\]"):
        SynthesisOptions(sim_backend=backend)
    with pytest.raises(ValueError):
        SynthesisOptions().with_(sim_backend=backend)


@pytest.mark.parametrize("command", ["run", "sweep", "matrix", "fuzz"])
def test_cli_takes_no_engine(command, tmp_path, capsys):
    """The simulator picks the engine, so no command takes one."""
    from repro.__main__ import main

    path = tmp_path / "three.c"
    path.write_text("int main() { return 3; }")
    files = [str(path)] if command in ("run", "matrix") else []
    with pytest.raises(SystemExit) as usage:
        main([command, *files, "--sim-backend", "compiled"])
    assert usage.value.code == 2
    assert "--sim-backend" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Malformed machines: refused before either engine starts
# ---------------------------------------------------------------------------


def _two_block_machine(read_in_result):
    """Block A computes wire ``x``; block B reads it, in an op or straight
    in its result.  Entering B starts a block, so ``x`` is not there."""
    from repro.ir.ops import Const, Operation, OpKind, VReg
    from repro.lang.types import INT
    from repro.rtl.fsmd import FSMD, Done, FSMDSystem, NextState, State

    wire, total = VReg(INT, "x"), VReg(INT, "y")
    made = Operation(OpKind.BINARY, dest=wire, op="+",
                     operands=[Const(1, INT), Const(2, INT)])
    reads = Operation(OpKind.BINARY, dest=total, op="+",
                      operands=[wire, Const(1, INT)])
    second = (State(1, block_id=1, step_index=0, transition=Done(wire))
              if read_in_result else
              State(1, block_id=1, step_index=0, ops=[reads],
                    transition=Done(total)))
    first = State(0, block_id=0, step_index=0, ops=[made],
                  transition=NextState(1))
    machine = FSMD("main", states=[first, second], return_type=INT)
    return FSMDSystem(fsmds=[machine]), wire


@pytest.mark.parametrize("backend", [*SIM_BACKENDS, None],
                         ids=[*SIM_BACKENDS, "default"])
@pytest.mark.parametrize("read_in_result", [False, True],
                         ids=["op", "result"])
def test_wire_from_another_block_is_refused_by_every_engine(
        backend, read_in_result):
    system, wire = _two_block_machine(read_in_result)
    where = " (latch/transition)" if read_in_result else ""
    with pytest.raises(SimulationError) as refused:
        simulate(system, sim_backend=backend)
    assert str(refused.value) == (
        f"main: {wire} read before being computed{where}")
    # Refused again on a second run: only a passing check is cached.
    with pytest.raises(SimulationError):
        simulate(system, sim_backend=backend)


# ---------------------------------------------------------------------------
# The simulator's choice of engine
# ---------------------------------------------------------------------------

_SUM_TO = ("int main(int n) { int i; int s = 0;"
           " for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }")


def test_short_run_stays_on_the_reference_engine():
    system = _system(_SUM_TO, "c2verilog")
    profile = SimProfile()
    assert simulate(system, args=(10,), profile=profile).value == 45
    assert profile.cycles < repro.sim.INTERP_CYCLES
    assert profile.backend == "interp"
    assert getattr(system, "_compiled_plan", None) is None


def test_long_run_specialises_with_the_same_outcome():
    """A run past the budget starts again on the compiled engine: the
    same result, visit histogram and budget error as either engine."""
    n = repro.sim.INTERP_CYCLES
    runs = [_profiled(_SUM_TO, backend, "c2verilog", (n,))
            for backend in (*SIM_BACKENDS, None)]
    (interp, _), (_, compiled), (chosen, profile) = runs
    assert profile.backend == "compiled"
    assert profile.cycles > repro.sim.INTERP_CYCLES
    assert chosen.observable() == interp.observable()
    assert chosen.cycles == interp.cycles
    assert profile.state_visits == compiled.state_visits
    system = _system(_SUM_TO, "c2verilog")
    budget = repro.sim.INTERP_CYCLES + 5
    errors = {_outcome(system, (n,), backend, budget)
              for backend in (*SIM_BACKENDS, None)}
    assert errors == {("error", "SimulationError",
                       f"cycle budget of {budget} exhausted")}


def test_a_system_with_a_plan_runs_compiled_from_its_first_cycle():
    system = _system(_SUM_TO, "c2verilog")
    compile_system(system)
    profile = SimProfile()
    assert simulate(system, args=(3,), profile=profile).value == 3
    assert profile.backend == "compiled"
    assert profile.cycles < repro.sim.INTERP_CYCLES


# ---------------------------------------------------------------------------
# Compiled-plan cache and fast path
# ---------------------------------------------------------------------------


def test_plan_is_compiled_once_per_system():
    design = _design("int main(int n) { return n + 1; }", flow="c2verilog")
    system = design.system
    plan = compile_system(system)
    assert compile_system(system) is plan
    assert plan.fast  # one machine, no channels: fast path engages
    # The cached plan is reusable across runs with different arguments.
    assert simulate(system, args=(4,), sim_backend="compiled").value == 5
    assert simulate(system, args=(9,), sim_backend="compiled").value == 10
    assert system._compiled_plan is plan


def test_each_run_reports_the_specialisation_it_paid():
    system = _design("int main(int n) { return n + 1; }", flow="c2verilog").system
    profiles = [SimProfile() for _ in range(3)]
    for n, profile in enumerate(profiles):
        simulate(system, args=(n,), sim_backend="compiled", profile=profile)
    assert profiles[0].compile_s > 0
    # Later runs reuse the plan and its generated function.
    assert profiles[1].compile_s == profiles[2].compile_s == 0.0


def test_lone_machine_with_channels_uses_general_path():
    system = _design("""
    chan<int> c;
    int main() { return recv(c); }
    """).system
    assert not compile_system(system).fast


# ---------------------------------------------------------------------------
# Budget boundaries and fault ordering (the guard on block fusion)
# ---------------------------------------------------------------------------

# Handel-C gives every assignment its own state, so the loop body is a
# straight-line chain the compiled engine runs as one fused block.
_FUSED_CHAIN = """
int main(int n) {
    int s = 0;
    int h = n;
    for (int i = 0; i < n; i++) {
        h = h * 75 + 74;
        s = s ^ (h & 1023);
        s = s + (i & 3);
    }
    return s;
}
"""

_TOLERANT_MEMORY = """
int lut[8] = {5, 1, 4, 1, 5, 9, 2, 6};
int main(int k) {
    int s = 0;
    for (int i = 0; i < 12; i++) {
        lut[i + k] = lut[i] + i;
        s = s + lut[i + k];
    }
    return s;
}
"""

_SAME_CYCLE_GLOBALS = """
int a = 0;
int b = 0;
process void left() { a = 1; a = a + 2; a = a * 3; }
process void right() { b = 4; b = b + 5; b = b * 6; }
int main() { delay(8); return a + b; }
"""

# Divides by zero once i reaches n: the fault lands inside the chain.
_DIVIDES_BY_ZERO = """
int main(int n) {
    int s = 0;
    for (int i = 0; i < 9; i++) {
        s = s + 3;
        s = s + 100 / (n - i);
    }
    return s;
}
"""

# An if/else inside a loop: on c2verilog both arm heads have the branch
# as their one way in, so the compiled engine runs them in place.
_BRANCHY_LOOP = """
int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if ((i & 1) == 0) {
            s = s + i * 3;
        } else {
            s = s ^ (i + 5);
        }
    }
    return s;
}
"""

# A loop whose two arms take different numbers of cycles on c2verilog:
# its iteration's budget test is against the longer one, which can end
# the run.
_UNEVEN_ARMS = """
int main(int n) {
    int s = 1;
    int t = 0;
    int i = 0;
    while (i < 1000) {
        if ((i & 3) == 0) {
            s = s * 3 + i;
            t = t ^ (s >> 2);
            s = s + (t & 15);
            if (i >= n) {
                return s + t;
            }
        } else {
            s = s - 1;
        }
        i = i + 1;
    }
    return s;
}
"""

# The sim-long sort, shortened: on Handel-C its inner loop is entered at
# both the swap and the compare, so the layout splits one entry.
_SPLIT_SORT = """
int data[12];
int main(int seed) {
    int h = seed;
    for (int i = 0; i < 12; i++) {
        h = h * 1103515245 + 12345;
        data[i] = (h >> 8) & 1023;
    }
    for (int i = 0; i < 11; i++) {
        for (int j = 0; j < 11 - i; j++) {
            if (data[j] > data[j + 1]) {
                int t = data[j];
                data[j] = data[j + 1];
                data[j + 1] = t;
            }
        }
    }
    int checksum = 0;
    for (int k = 0; k < 12; k++) {
        checksum = checksum + data[k] * (k + 1);
    }
    return checksum;
}
"""

# The sim-long channel pipeline, shortened.
_STREAM = """
chan<int> ctl;
chan<int> raw;
chan<int> smooth;
process void producer() {
    int h = recv(ctl);
    for (int i = 0; i < 12; i++) {
        h = h * 1103515245 + 12345;
        send(raw, (h >> 12) & 255);
    }
}
process void filter() {
    int prev = 0;
    for (int i = 0; i < 12; i++) {
        int v = recv(raw);
        send(smooth, (v + prev) >> 1);
        prev = v;
    }
}
int main(int seed) {
    send(ctl, seed);
    int acc = 0;
    for (int i = 0; i < 12; i++) {
        int v = recv(smooth);
        acc = acc + v;
    }
    return acc;
}
"""


def _system(source, flow):
    from repro.api import SynthesisOptions

    return synthesize(source, SynthesisOptions(flow=flow)).design.system


#: Every engine value a run may name: the two pins and the simulator's
#: own choice.
_ENGINES = (*SIM_BACKENDS, None)


def _outcome(system, args, backend, max_cycles):
    """Everything a run shows: its observables, or its error.  The
    simulator's own choice (``backend`` None) is made afresh, on a copy
    of the system that holds no compiled plan."""
    from repro.lang.errors import InterpError

    if backend is None:
        system = copy.copy(system)
        vars(system).pop("_compiled_plan", None)
    try:
        run = simulate(system, args=args, max_cycles=max_cycles,
                       sim_backend=backend)
    except InterpError as failure:
        return ("error", type(failure).__name__, str(failure))
    return ("ok", run.value, run.cycles, run.stall_cycles, run.globals,
            run.channel_log, run.per_process_cycles)


def test_fused_chain_design_has_a_multi_state_block():
    import re

    system = _system(_FUSED_CHAIN, flow="handelc")
    fused = re.findall(r"cycle \+= (\d+)", compile_system(system).dump())
    assert max(int(k) for k in fused) > 1


def _targets(transition):
    from repro.rtl.fsmd import CondNext, NextState

    if isinstance(transition, CondNext):
        return _targets(transition.if_true) + _targets(transition.if_false)
    if isinstance(transition, NextState):
        return [transition.target]
    return [transition] if isinstance(transition, int) else []


def test_single_entry_arm_heads_run_in_place():
    """A branch arm whose target has no other way in runs that block where
    it stands: nothing ever sets ``state`` to the arm's head."""
    import re

    from repro.rtl.fsmd import CondNext

    system = _system(_BRANCHY_LOOP, flow="c2verilog")
    fsmd = system.root
    entries = {}
    for state in fsmd.states:
        for target in _targets(state.transition):
            entries.setdefault(target, []).append(state.transition)
    arm_heads = [
        target for target, ways in entries.items()
        if len(ways) == 1 and isinstance(ways[0], CondNext)
        and target != fsmd.entry
    ]
    assert len(arm_heads) == 4        # loop body and exit, both if arms
    source = compile_system(system).dump()
    for head in arm_heads:
        assert not re.search(rf"state = {head}$", source, re.M), head


def test_split_sort_runs_without_a_dispatch_tree():
    """Handel-C's bubble sort needs both kinds of node splitting: a copy
    of the swap makes the inner loop natural, and then the outer loop's
    latch is a join that the arm skipping the inner loop reaches other
    than by falling through, so it takes a copy too.  With both, no
    block is left to the dispatch tree; without the join's copy, the
    outer loop's blocks go through it (E15's ``sort/handelc`` then
    counts 5 dispatched blocks, not 0)."""
    from repro.sim.compiled import _arm_leaves
    from repro.sim.layout import BlockLayout

    system = _system(_SPLIT_SORT, flow="handelc")
    plan = compile_system(system)
    assert "state = " not in plan.dump()
    fsmd = system.root
    blocks = plan.compilers[0].blocks
    layout = BlockLayout(
        [chain[0] for chain in blocks], fsmd.entry,
        {chain[0]: list(_arm_leaves(fsmd.state(chain[-1]).transition))
         for chain in blocks},
        {chain[0]: len(chain) for chain in blocks}, 32,
    )
    assert layout.dispatched == {fsmd.entry}
    assert len(layout.copies) == 2


@pytest.mark.parametrize("source,flow,args,last", [
    (_FUSED_CHAIN, "handelc", (30,), 1),
    (_TOLERANT_MEMORY, "handelc", (2,), 1),
    (_PRODUCER_CONSUMER, "specc", (), 1),
    (_BRANCHY_LOOP, "c2verilog", (9,), None),
    (_UNEVEN_ARMS, "c2verilog", (13,), 16),
    (_DIVIDES_BY_ZERO, "c2verilog", (4,), 16),
    (_SPLIT_SORT, "handelc", (5,), 16),
    (_STREAM, "handelc", (5,), 16),
    (_STREAM, "specc", (5,), 16),
], ids=["fused-chain", "tolerant-memory", "rendezvous", "branch-arms",
        "uneven-arms", "divides-by-zero", "split-sort", "stream-handelc",
        "stream-specc"])
def test_budget_boundary_outcomes_identical(source, flow, args, last,
                                            monkeypatch):
    """Every budget from ``last`` cycles short of the end to one past it
    gives the same result, the same budget error or the same fault on
    every backend (``last`` None: every budget from 1 on, so the budget
    also runs out inside every block run in a branch arm).  The end is
    the finish, or the cycle a fault fires on.  Sixteen cycles cover
    the longest loop iteration of these designs, so the budget runs out
    at each state of the iteration that tests it once.  The simulator's
    own choice switches engines halfway through that range, so it is
    held to the same outcomes on both sides of the switch."""
    system = _system(source, flow=flow)
    final = _outcome(system, args, "interp", 100_000)
    if final[0] == "ok":
        end = final[2]
    else:
        end = next(budget for budget in range(1, 100_000)
                   if _outcome(system, args, "interp", budget) == final)
    budgets = range(1 if last is None else max(1, end - last), end + 2)
    monkeypatch.setattr(repro.sim, "INTERP_CYCLES",
                        (budgets.start + end) // 2)
    for budget in budgets:
        outcomes = [_outcome(system, args, backend, budget)
                    for backend in _ENGINES]
        assert all(o == outcomes[0] for o in outcomes), budget
        assert outcomes[0] == final if budget >= end else (
            outcomes[0][2].startswith("cycle budget")), budget


@pytest.mark.parametrize("flow", ["handelc", "c2verilog"])
def test_fault_fires_on_the_same_cycle(flow, monkeypatch):
    """A division by zero at cycle k: a budget of k - 1 ends in the budget
    error, k and k + 1 in the fault — on every backend, and when the
    simulator switches engines at cycle k - 1."""
    system = _system(_DIVIDES_BY_ZERO, flow=flow)
    args = (4,)
    fault = _outcome(system, args, "interp", 100_000)
    assert fault == ("error", "InterpError", "division by zero")
    k = next(budget for budget in range(1, 10_000)
             if _outcome(system, args, "interp", budget) == fault)
    assert k > 1
    monkeypatch.setattr(repro.sim, "INTERP_CYCLES", k - 1)
    for budget, expected in ((k - 1, "cycle budget"), (k, "division"),
                             (k + 1, "division")):
        outcomes = [_outcome(system, args, backend, budget)
                    for backend in _ENGINES]
        assert all(o == outcomes[0] for o in outcomes), budget
        assert outcomes[0][2].startswith(expected)


# Each global holds one wrapped result: one below MIN, one above MAX, and
# two products that overflow the type by many times its range.
_WRAPS = """
T below;
T above;
T product;
T square;
int main(T lo, T hi) {
    below = lo - 1;
    above = hi + 1;
    product = hi * (lo + 3);
    square = (hi - 2) * (hi - 2);
    return 0;
}
"""


@pytest.mark.parametrize("flow", ["c2verilog", "handelc"])
@pytest.mark.parametrize("width", [8, 16, 32, 64])
@pytest.mark.parametrize("signed", [True, False], ids=["int", "uint"])
def test_wrap_boundaries_identical(signed, width, flow):
    """Values one past either end of a type, and overflowing products,
    wrap the same way on every backend."""
    name = f"{'int' if signed else 'uint'}{width}"
    low = -(1 << (width - 1)) if signed else 0
    high = (1 << (width - 1)) - 1 if signed else (1 << width) - 1
    system = _system(_WRAPS.replace("T ", f"{name} "), flow=flow)
    outcomes = [_outcome(system, (low, high), backend, 10_000)
                for backend in SIM_BACKENDS]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "ok"
    values = outcomes[0][4]
    assert values["below"] == high and values["above"] == low
    span = high - low + 1
    for key, exact in (("product", high * (low + 3)),
                       ("square", (high - 2) ** 2)):
        assert low <= values[key] <= high
        assert (values[key] - exact) % span == 0


def test_deeply_nested_arms_compile_and_agree():
    """A long run of early returns nests each test in the last one's
    false arm; past the nesting cap the arms become dispatch cases again,
    and every exit still gives the interpreter's result."""
    tests = "".join(f"    if (n == {k}) return {k * 7};\n" for k in range(60))
    source = f"int main(int n) {{\n{tests}    return -1;\n}}\n"
    system = _system(source, flow="c2verilog")
    for n in (0, 17, 41, 59, 60):
        outcomes = [_outcome(system, (n,), backend, 10_000)
                    for backend in SIM_BACKENDS]
        assert outcomes[0] == outcomes[1], n
        assert outcomes[0][1] == (n * 7 if n < 60 else -1)


# ---------------------------------------------------------------------------
# Profiler parity
# ---------------------------------------------------------------------------


def _profiled(source, backend, flow="specc", args=()):
    profile = SimProfile()
    result = synthesize(source, flow=flow, sim_backend=backend).run(
        args=args, sim_profile=profile)
    return result, profile


@pytest.mark.parametrize("source,flow,args", [
    (_PRODUCER_CONSUMER, "specc", ()),
    ("int main(int n) { int i; int s = 0; for (i = 0; i < n; i = i + 1)"
     " { s = s + i; } return s; }", "c2verilog", (25,)),
    (_FUSED_CHAIN, "handelc", (40,)),
    (_SAME_CYCLE_GLOBALS, "specc", ()),
    (_TOLERANT_MEMORY, "handelc", (3,)),
], ids=["rendezvous", "single-machine", "fused-chain",
        "same-cycle-globals", "tolerant-memory"])
def test_profile_histograms_identical(source, flow, args):
    interp_result, interp_profile = _profiled(source, "interp", flow, args)
    compiled_result, compiled_profile = _profiled(source, "compiled", flow,
                                                  args)
    assert interp_result.observable() == compiled_result.observable()
    assert interp_profile.backend == "interp"
    assert compiled_profile.backend == "compiled"
    assert interp_profile.cycles == compiled_profile.cycles > 0
    assert interp_profile.state_visits == compiled_profile.state_visits
    assert compiled_profile.compile_s >= 0.0
    assert compiled_profile.execute_s > 0.0


def test_profile_render_mentions_hot_states():
    _, profile = _profiled(
        "int main(int n) { int i; int s = 0; for (i = 0; i < n; i = i + 1)"
        " { s = s + i; } return s; }", "compiled", "c2verilog", (25,))
    text = profile.render()
    assert "backend:" in text and "compiled" in text
    assert "cycles/sec" in text
    assert "hot states" in text


# ---------------------------------------------------------------------------
# Corpus replay and signature backend-independence
# ---------------------------------------------------------------------------

_corpus = Corpus(CORPUS_DIR)
_entries = {entry.name: entry for entry in _corpus.entries}


@pytest.mark.parametrize("entry_name", sorted(_entries))
def test_corpus_replays_under_compiled_backend(entry_name, engine):
    """Every triaged divergence reproduces identically under the compiled
    backend — fuzz findings are properties of the flows, not the engine."""
    entry = _entries[entry_name]
    reproduced, detail = replay_entry(entry, engine, sim_backend="compiled")
    assert reproduced, (
        f"{entry_name} reproduces under interp but not compiled: {detail}"
    )


def test_entries_with_recorded_options_replay_unchanged(engine):
    """Older campaigns recorded ``{"sim_backend": "interp"}`` on their
    entries; such an entry loads without the key and reproduces."""
    carrying = sorted(path for path in CORPUS_DIR.glob("*/*.json")
                      if "options" in json.loads(path.read_text()))
    assert len(carrying) == 2
    for path in carrying:
        assert json.loads(path.read_text())["options"] == {
            "sim_backend": "interp"}
        entry = CorpusEntry.from_json(path.read_text())
        assert entry.name in _entries
        reproduced, detail = replay_entry(entry, engine)
        assert reproduced, f"{entry.name}: {detail}"


def test_divergence_signatures_backend_independent(engine):
    """Property check: re-judging every corpus program through both
    backends yields identical verdicts, rules, and observables — so a
    campaign's divergence signatures cannot depend on --sim-backend."""
    for entry in _corpus.entries:
        tasks = [
            CellTask(workload=entry.signature.id, source=entry.source,
                     options=SynthesisOptions(flow=entry.flow,
                                              sim_backend=backend),
                     args=tuple(entry.args))
            for backend in ("interp", "compiled")
        ]
        interp, compiled = engine.run_cells(tasks)
        assert _neutral_identity(interp) == _neutral_identity(compiled), (
            f"{entry.signature.id}: signature depends on the backend"
        )


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_run_with_compiled_backend_and_profile(tmp_path, capsys,
                                                   monkeypatch):
    """``--profile`` names the engine the simulator picked: here the
    compiled one, with the budget set so every run specialises."""
    from repro.__main__ import main

    monkeypatch.setattr(repro.sim, "INTERP_CYCLES", 0)
    path = tmp_path / "loop.c"
    path.write_text(_SUM_TO)
    assert main(["run", str(path), "--args", "10", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "value      : 45" in out
    assert "backend:" in out and "compiled" in out
    assert "hot states" in out


def test_cli_matrix_backends_agree(tmp_path, capsys, monkeypatch):
    """The matrix table is the same whether every run stays on the
    reference engine or every run specialises."""
    from repro.__main__ import main

    path = tmp_path / "gcd.c"
    path.write_text(
        "int main(int a, int b) { while (a != b) {"
        " if (a > b) { a = a - b; } else { b = b - a; } } return a; }"
    )
    monkeypatch.setattr(repro.sim, "INTERP_CYCLES", 10 ** 9)
    assert main(["matrix", str(path), "--args", "48,36", "--no-cache"]) == 0
    interp_out = capsys.readouterr().out
    monkeypatch.setattr(repro.sim, "INTERP_CYCLES", 0)
    assert main(["matrix", str(path), "--args", "48,36", "--no-cache"]) == 0
    compiled_out = capsys.readouterr().out
    # Identical tables: same verdicts, values, cycles under both engines.
    strip = "\n".join(
        line for line in interp_out.splitlines() if "wall" not in line
    )
    strip_c = "\n".join(
        line for line in compiled_out.splitlines() if "wall" not in line
    )
    assert _table_cells(strip) == _table_cells(strip_c)


def _table_cells(text):
    """(flow, verdict, value, cycles) rows from a matrix table."""
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] in (
            "cones", "hardwarec", "transmogrifier", "systemc", "c2verilog",
            "cyber", "handelc", "specc", "bachc", "cash",
        ):
            rows.append(tuple(parts[:4]))
    return rows
