"""Binding and allocation tests."""

import pytest

from repro.binding import (
    allocate_registers,
    bind_functional_units,
    estimate_cost,
    left_edge_pack,
)
from repro.binding.register_alloc import Lifetime
from repro.ir import build_function
from repro.ir.ops import VReg
from repro.ir.passes import inline_program, optimize_cdfg
from repro.lang import parse
from repro.lang.types import INT
from repro.rtl.tech import DEFAULT_TECH
from repro.scheduling import ResourceSet, list_schedule_function


def schedule_of(source, resources=None, clock_ns=5.0):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    cdfg = build_function(inlined.function("main"), info)
    optimize_cdfg(cdfg)
    return list_schedule_function(cdfg, resources or ResourceSet.typical(),
                                  clock_ns=clock_ns)


MULHEAVY = """
int main(int a, int b, int c, int d) {
    int p = a * b;
    int q = c * d;
    int r = p * q;
    return r + p + q;
}
"""


def test_every_op_is_bound():
    schedule = schedule_of(MULHEAVY)
    binding = bind_functional_units(schedule)
    from repro.scheduling.resources import FREE, classify

    for block_schedule in schedule.blocks.values():
        for op in block_schedule.block.ops:
            if classify(op) != FREE:
                assert op.id in binding.op_unit


def test_same_step_ops_get_distinct_units():
    schedule = schedule_of(MULHEAVY, ResourceSet(multiplier=2, alu=2))
    binding = bind_functional_units(schedule)
    for block_schedule in schedule.blocks.values():
        for step_ops in block_schedule.step_ops():
            seen = {}
            for op in step_ops:
                unit = binding.op_unit.get(op.id)
                if unit is None:
                    continue
                assert unit not in seen, "unit double-booked in one step"
                seen[unit] = op


def test_unit_count_bounded_by_resource_limit():
    schedule = schedule_of(MULHEAVY, ResourceSet(multiplier=1, alu=1))
    binding = bind_functional_units(schedule)
    assert len(binding.units_of_class("mul")) == 1


def test_units_shared_across_blocks():
    schedule = schedule_of(
        """
        int main(int a, int b) {
            int x = 0;
            if (a > 0) { x = a * b; } else { x = a * a; }
            return x * b;
        }
        """,
        ResourceSet(multiplier=1, alu=1),
    )
    binding = bind_functional_units(schedule)
    muls = binding.units_of_class("mul")
    assert len(muls) == 1
    assert muls[0].op_count == 3


def test_left_edge_disjoint_lifetimes_share():
    lifetimes = [
        Lifetime(vreg=VReg(INT), block_id=1, start=0, end=1),
        Lifetime(vreg=VReg(INT), block_id=1, start=2, end=3),
        Lifetime(vreg=VReg(INT), block_id=1, start=4, end=6),
    ]
    carriers = left_edge_pack(lifetimes)
    assert len(carriers) == 1


def test_left_edge_overlapping_lifetimes_split():
    lifetimes = [
        Lifetime(vreg=VReg(INT), block_id=1, start=0, end=4),
        Lifetime(vreg=VReg(INT), block_id=1, start=1, end=3),
        Lifetime(vreg=VReg(INT), block_id=1, start=2, end=5),
    ]
    carriers = left_edge_pack(lifetimes)
    assert len(carriers) == 3


def test_left_edge_is_optimal_for_interval_graphs():
    # Max overlap is 2, so exactly 2 carriers suffice.
    lifetimes = [
        Lifetime(vreg=VReg(INT), block_id=1, start=0, end=2),
        Lifetime(vreg=VReg(INT), block_id=1, start=1, end=4),
        Lifetime(vreg=VReg(INT), block_id=1, start=3, end=6),
        Lifetime(vreg=VReg(INT), block_id=1, start=5, end=8),
    ]
    carriers = left_edge_pack(lifetimes)
    assert len(carriers) == 2


def test_lifetimes_from_different_blocks_share_freely():
    lifetimes = [
        Lifetime(vreg=VReg(INT), block_id=1, start=0, end=5),
        Lifetime(vreg=VReg(INT), block_id=2, start=0, end=5),
    ]
    carriers = left_edge_pack(lifetimes)
    assert len(carriers) == 1  # one FSM: the blocks never run concurrently


def test_allocation_covers_cross_step_values():
    schedule = schedule_of(MULHEAVY, ResourceSet(multiplier=1, alu=1))
    allocation = allocate_registers(schedule)
    # p and q must survive while r is computed: carriers exist.
    assert allocation.carriers or allocation.variable_registers
    for lifetime in allocation.lifetimes:
        assert lifetime.end > lifetime.start
        assert allocation.vreg_carrier[lifetime.vreg.id]


def test_cost_components_positive_and_summed():
    schedule = schedule_of(MULHEAVY)
    cost = estimate_cost(schedule)
    assert cost.fu_area_ge > 0
    assert cost.register_area_ge > 0
    assert cost.total_area_ge == pytest.approx(
        cost.fu_area_ge + cost.register_area_ge + cost.mux_area_ge
        + cost.memory_area_ge + cost.controller_area_ge
    )
    assert cost.clock_ns > 0
    assert cost.fmax_mhz == pytest.approx(1000.0 / cost.clock_ns)


def test_sharing_raises_mux_cost():
    shared = estimate_cost(schedule_of(MULHEAVY, ResourceSet(multiplier=1, alu=1)))
    wide = estimate_cost(schedule_of(MULHEAVY, ResourceSet(multiplier=4, alu=4)))
    assert shared.fu_area_ge <= wide.fu_area_ge
    assert shared.mux_area_ge >= wide.mux_area_ge


def test_memory_area_counted():
    schedule = schedule_of(
        "int g[64]; int main(int i) { return g[i & 63]; }"
    )
    cost = estimate_cost(schedule)
    assert cost.memory_area_ge > 0


def test_multicycle_divider_does_not_blow_clock_estimate():
    schedule = schedule_of(
        "int main(int a, int b) { return a / (b | 1); }", clock_ns=5.0
    )
    cost = estimate_cost(schedule)
    # The divider spans states; the clock stays near the 5 ns target, far
    # below the divider's 22 ns propagation time.
    assert cost.clock_ns < 10.0
