"""FSMD construction and cycle-accurate simulation tests."""

import pytest

from repro.analysis.pointer import plan_pointers
from repro.ir import build_function
from repro.ir.passes import inline_program, optimize_cdfg
from repro.interp import run_program
from repro.lang import parse
from repro.lang.types import ArrayType
from repro.rtl.fsmd import (
    CondNext,
    Done,
    FSMDSystem,
    NextState,
    fsmd_from_schedule,
)
from repro.scheduling import ResourceSet, list_schedule_function
from repro.sim import SimulationError, simulate


def synthesize(source, function="main", resources=None, clock_ns=5.0):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    fsmds = []
    for fn in inlined.functions:
        plan = plan_pointers(fn)
        cdfg = build_function(fn, info, plan)
        optimize_cdfg(cdfg)
        schedule = list_schedule_function(
            cdfg, resources or ResourceSet.typical(), clock_ns=clock_ns
        )
        fsmds.append(fsmd_from_schedule(schedule))
    fsmds.sort(key=lambda f: 0 if f.name == function else 1)
    system = FSMDSystem(
        fsmds=fsmds,
        channels=[c.symbol for c in program.channels],
        global_registers=[
            g.symbol for g in program.globals
            if not isinstance(g.var_type, ArrayType)
        ],
        global_arrays=[
            g.symbol for g in program.globals
            if isinstance(g.var_type, ArrayType)
        ],
        global_inits=dict(info.global_inits),
    )
    return system, program, info


def test_states_cover_every_scheduled_step():
    system, _, _ = synthesize(
        "int main(int a) { int x = a * a; wait(); return x + 1; }"
    )
    fsmd = system.root
    assert fsmd.n_states >= 3  # compute, barrier, return
    for state in fsmd.states:
        assert state.transition is not None


def test_every_block_final_state_latches():
    # The accumulator crosses the loop back edge, so its block must latch.
    system, _, _ = synthesize(
        "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }"
    )
    latching = [s for s in system.root.states if s.latches]
    assert latching
    # Latches sit only on the final state of each block.
    for state in latching:
        schedule = system.root.source_schedule
        block_schedule = schedule.blocks[state.block_id]
        assert state.step_index == block_schedule.n_steps - 1


def test_cycle_count_equals_states_visited():
    system, program, info = synthesize(
        "int main() { delay(3); return 7; }"
    )
    result = simulate(system)
    golden = run_program(program, info, "main")
    assert result.value == golden.value
    # The three idle delay states are the whole execution; the constant
    # return rides out on the final state's edge.
    assert result.cycles == 3


def test_wait_adds_exactly_one_cycle():
    base_system, _, _ = synthesize("int main(int a) { int x = a + 1; return x; }")
    wait_system, _, _ = synthesize("int main(int a) { int x = a + 1; wait(); return x; }")
    base = simulate(base_system, args=(1,)).cycles
    with_wait = simulate(wait_system, args=(1,)).cycles
    assert with_wait == base + 1


def test_conditional_next_state():
    system, program, info = synthesize(
        "int main(int a) { if (a > 3) { return 1; } return 2; }"
    )
    assert simulate(system, args=(5,)).value == 1
    assert simulate(system, args=(1,)).value == 2


def test_loop_cycles_scale_with_trip_count():
    system, _, _ = synthesize(
        "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }"
    )
    c4 = simulate(system, args=(4,)).cycles
    c8 = simulate(system, args=(8,)).cycles
    assert c8 > c4
    per_iteration = (c8 - c4) / 4
    assert per_iteration == pytest.approx((c8 - c4) / 4)


def test_globals_shared_and_reported():
    system, program, info = synthesize(
        "int g; int main(int a) { g = a * 2; return g + 1; }"
    )
    result = simulate(system, args=(21,))
    assert result.value == 43
    assert result.globals["g"] == 42


def test_global_arrays_initialized_from_inits():
    system, _, _ = synthesize(
        "int t[3] = {5, 6, 7}; int main(int i) { return t[i]; }"
    )
    assert simulate(system, args=(2,)).value == 7


def test_rendezvous_transfers_and_stalls():
    system, program, info = synthesize(
        """
        chan<int> c;
        process void producer() {
            for (int i = 0; i < 4; i++) { delay(3); send(c, i); }
        }
        int main() {
            int s = 0;
            for (int i = 0; i < 4; i++) { s += recv(c); }
            return s;
        }
        """
    )
    result = simulate(system)
    assert result.value == 6
    assert result.channel_log["c"] == [0, 1, 2, 3]
    assert result.stall_cycles > 0  # consumer waits on the slow producer


def test_rendezvous_deadlock_detected():
    system, _, _ = synthesize("chan<int> c; int main() { return recv(c); }")
    with pytest.raises(SimulationError) as excinfo:
        simulate(system)
    assert "deadlock" in str(excinfo.value)


def test_cycle_budget_enforced():
    system, _, _ = synthesize("int main() { while (true) { wait(); } return 0; }")
    with pytest.raises(SimulationError):
        simulate(system, max_cycles=500)


def test_same_cycle_global_write_race_detected():
    system, _, _ = synthesize(
        """
        int shared;
        process void a() { shared = 1; }
        process void b() { shared = 2; }
        int main() { delay(5); return shared; }
        """
    )
    with pytest.raises(SimulationError) as excinfo:
        simulate(system)
    assert "same cycle" in str(excinfo.value)


def test_next_state_condition_sees_pre_edge_registers():
    # The loop-exit test is combinational: it must use the registered i,
    # not the incremented value being latched on the same edge.
    system, program, info = synthesize(
        "int main() { int count = 0; for (int i = 0; i < 3; i++) { count++; } return count; }"
    )
    assert simulate(system).value == 3


def test_per_process_cycles_reported():
    system, _, _ = synthesize(
        """
        chan<int> c;
        process void p() { send(c, 9); }
        int main() { return recv(c); }
        """
    )
    result = simulate(system)
    assert set(result.per_process_cycles) == {"main", "p"}


def test_dump_is_readable():
    system, _, _ = synthesize("int main(int a) { return a + 1; }")
    text = system.root.dump()
    assert "fsmd main" in text
    assert "S0" in text
