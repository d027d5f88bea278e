"""Scheduler tests: list (chained), ASAP/ALAP, force-directed."""

import pytest

from repro.analysis.pointer import plan_pointers
from repro.ir import build_function
from repro.ir.ops import OpKind
from repro.ir.passes import inline_program, optimize_cdfg
from repro.lang import parse
from repro.scheduling import (
    ConstraintInfeasible,
    ResourceSet,
    ScheduleError,
    check_block_schedule,
    classify,
    force_directed_schedule,
    list_schedule_block,
    list_schedule_function,
    mobility,
    peak_usage,
    unit_alap,
    unit_asap,
    unit_latency,
)
from repro.scheduling.base import build_dependence_graph


def build(source):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    cdfg = build_function(inlined.function("main"), info)
    optimize_cdfg(cdfg)
    return cdfg


def biggest_block(cdfg):
    return max(cdfg.reachable_blocks(), key=lambda b: len(b.ops))


MULADD = """
int main(int a, int b, int c, int d) {
    return a * b + c * d + (a + c) * (b + d);
}
"""


# ---------------------------------------------------------------------------
# Dependence graph
# ---------------------------------------------------------------------------


def test_dependence_graph_flow_edges():
    cdfg = build("int main(int a) { return (a + 1) * 2; }")
    block = biggest_block(cdfg)
    graph = build_dependence_graph(block)
    assert graph.edge_count() >= 1  # + feeds *


def test_dependence_graph_orders_store_before_load():
    cdfg = build("int g[4]; int main(int i, int v) { g[i] = v; return g[i]; }")
    block = biggest_block(cdfg)
    graph = build_dependence_graph(block)
    store = next(op for op in block.ops if op.kind is OpKind.STORE)
    load = next(op for op in block.ops if op.kind is OpKind.LOAD)
    assert store.id in graph.predecessors(load)


def test_constant_addresses_disambiguate():
    cdfg = build("int g[4]; int main(int v) { g[0] = v; return g[1]; }")
    block = biggest_block(cdfg)
    graph = build_dependence_graph(block, disambiguate_memory=True)
    store = next(op for op in block.ops if op.kind is OpKind.STORE)
    load = next(op for op in block.ops if op.kind is OpKind.LOAD)
    assert store.id not in graph.predecessors(load)
    conservative = build_dependence_graph(block, disambiguate_memory=False)
    assert store.id in conservative.predecessors(load)


def test_barrier_is_a_full_fence():
    cdfg = build("int main(int a) { int x = a + 1; wait(); return x * 2; }")
    for block in cdfg.reachable_blocks():
        barrier = [op for op in block.ops if op.kind is OpKind.BARRIER]
        if not barrier:
            continue
        graph = build_dependence_graph(block)
        later = [op for op in block.ops if op.id > barrier[0].id]
        for op in later:
            assert barrier[0].id in graph.predecessors(op)


# ---------------------------------------------------------------------------
# List scheduling (chained)
# ---------------------------------------------------------------------------


def test_list_schedule_respects_resource_limits():
    cdfg = build(MULADD)
    block = biggest_block(cdfg)
    schedule = list_schedule_block(block, ResourceSet(multiplier=1, alu=1))
    check_block_schedule(schedule, ResourceSet(multiplier=1, alu=1))


def test_fewer_resources_never_shorten_schedule():
    cdfg = build(MULADD)
    block = biggest_block(cdfg)
    wide = list_schedule_block(block, ResourceSet.unlimited())
    narrow = list_schedule_block(block, ResourceSet.minimal())
    assert narrow.n_steps >= wide.n_steps


def test_chaining_packs_dependent_ops_when_clock_allows():
    cdfg = build("int main(int a) { return ((a + 1) + 2) + 3; }")
    block = biggest_block(cdfg)
    slow_clock = list_schedule_block(block, clock_ns=50.0)
    fast_clock = list_schedule_block(block, clock_ns=2.5)
    assert slow_clock.n_steps <= fast_clock.n_steps
    assert slow_clock.n_steps == 1  # three adds chain in 50 ns easily


def test_division_is_multi_cycle_at_fast_clock():
    cdfg = build("int main(int a, int b) { return a / (b + 1); }")
    block = biggest_block(cdfg)
    schedule = list_schedule_block(block, clock_ns=5.0)
    div = next(op for op in block.ops if op.kind is OpKind.BINARY and op.op == "/")
    # 22 ns divider at a 5 ns clock: the op spans ceil(22/5) = 5 states.
    assert schedule.n_steps >= 5


def test_channel_ops_get_exclusive_states():
    cdfg = build(
        "chan<int> c; int main(int a) { send(c, a + 1); send(c, a + 2); return 0; }"
    )
    schedule = list_schedule_function(cdfg)
    for block_schedule in schedule.blocks.values():
        for step_ops in block_schedule.step_ops():
            channel_ops = [
                op for op in step_ops if op.kind in (OpKind.SEND, OpKind.RECV)
            ]
            if channel_ops:
                assert len(step_ops) == 1


def test_delay_occupies_its_cycle_count():
    cdfg = build("int main() { delay(4); return 1; }")
    schedule = list_schedule_function(cdfg)
    assert schedule.total_steps() >= 4


def test_within_constraint_met_when_feasible():
    cdfg = build(
        "int main(int a) { int x = 0; within (2) { x = a + 1; x = x * 3; } return x; }"
    )
    schedule = list_schedule_function(cdfg, ResourceSet.typical())
    constraints = {c.group: c.cycles for c in cdfg.constraints}
    for block in cdfg.reachable_blocks():
        check_block_schedule(
            schedule.blocks[block.id], ResourceSet.typical(), constraints
        )


def test_within_constraint_infeasible_raises():
    # Five dependent multiplies cannot fit in 1 cycle at a 5 ns clock.
    source = """
    int main(int a) {
        int x = 0;
        within (1) {
            x = a * a;
            x = x * a;
            x = x * a;
            x = x * a;
            x = x * a;
        }
        return x;
    }
    """
    cdfg = build(source)
    with pytest.raises(ConstraintInfeasible):
        list_schedule_function(cdfg, ResourceSet.typical(), clock_ns=5.0)


def test_whole_function_schedules_every_block():
    cdfg = build(
        "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }"
    )
    schedule = list_schedule_function(cdfg)
    assert set(schedule.blocks) == {b.id for b in cdfg.reachable_blocks()}


# ---------------------------------------------------------------------------
# ASAP / ALAP / mobility
# ---------------------------------------------------------------------------


def test_asap_length_is_critical_path():
    cdfg = build("int main(int a) { return ((a * a) * a) * a; }")
    block = biggest_block(cdfg)
    asap = unit_asap(block)
    assert asap.n_steps == 3  # three dependent multiplies


def test_alap_within_asap_length_has_zero_critical_slack():
    # The multiply chain is the critical path; the lone add floats.
    cdfg = build("int main(int a, int b, int c, int d) { return ((a * b) * c) * d + (a + b); }")
    block = biggest_block(cdfg)
    slacks = mobility(block)
    assert min(slacks.values()) == 0
    assert any(s > 0 for s in slacks.values())  # off-critical ops float


def test_alap_rejects_impossible_length():
    cdfg = build("int main(int a) { return ((a * a) * a) * a; }")
    block = biggest_block(cdfg)
    with pytest.raises(ScheduleError):
        unit_alap(block, length=2)


def test_asap_and_alap_are_valid_schedules():
    cdfg = build(MULADD)
    block = biggest_block(cdfg)
    check_block_schedule(unit_asap(block))
    check_block_schedule(unit_alap(block))


# ---------------------------------------------------------------------------
# Force-directed
# ---------------------------------------------------------------------------


def test_fds_meets_target_length():
    cdfg = build(MULADD)
    block = biggest_block(cdfg)
    asap = unit_asap(block)
    fds = force_directed_schedule(block, length=asap.n_steps + 2)
    check_block_schedule(fds)
    assert fds.n_steps <= asap.n_steps + 2


def test_fds_flattens_resource_peaks_given_slack():
    cdfg = build(
        """
        int main(int a, int b, int c, int d) {
            int p = a * b;
            int q = c * d;
            int r = a * d;
            int s = b * c;
            return p + q + r + s;
        }
        """
    )
    block = biggest_block(cdfg)
    asap_peaks = peak_usage(unit_asap(block))
    fds = force_directed_schedule(block, length=unit_asap(block).n_steps + 3)
    fds_peaks = peak_usage(fds)
    assert fds_peaks.get("mul", 0) <= asap_peaks.get("mul", 0)
    assert fds_peaks.get("mul", 0) <= 2  # 4 muls spread over >= 2 steps


def test_unit_latency_model():
    cdfg = build("int main(int a, int b) { return a / b; }")
    div = next(
        op for op in cdfg.iter_ops()
        if op.kind is OpKind.BINARY and op.op == "/"
    )
    assert unit_latency(div) == 4
    cast_like = [op for op in cdfg.iter_ops() if op.kind is OpKind.CAST]
    for op in cast_like:
        assert unit_latency(op) == 0
