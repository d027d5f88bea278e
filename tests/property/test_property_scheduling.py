"""Property-based tests on scheduling and allocation invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.binding import allocate_registers, bind_functional_units, left_edge_pack
from repro.binding.register_alloc import Lifetime
from repro.ir import build_function
from repro.ir.ops import VReg
from repro.ir.passes import inline_program, optimize_cdfg
from repro.lang import parse
from repro.lang.types import INT
from repro.scheduling import (
    ResourceSet,
    check_block_schedule,
    list_schedule_block,
    list_schedule_function,
    unit_asap,
)
from repro.workloads import dataflow_source

_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def blocks_of(seed):
    source = dataflow_source(seed, statements=10, depth=3)
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    cdfg = build_function(inlined.function("main"), info)
    optimize_cdfg(cdfg)
    return cdfg


resource_sets = st.sampled_from([
    ResourceSet.unlimited(),
    ResourceSet.typical(),
    ResourceSet.minimal(),
    ResourceSet(alu=1, shifter=1, multiplier=2, divider=1),
])

clocks = st.sampled_from([2.5, 5.0, 10.0, 40.0])


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=5000), resources=resource_sets,
       clock=clocks)
def test_list_schedules_are_always_valid(seed, resources, clock):
    cdfg = blocks_of(seed)
    for block in cdfg.reachable_blocks():
        schedule = list_schedule_block(block, resources, clock_ns=clock)
        check_block_schedule(schedule, resources)


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=5000), clock=clocks)
def test_tighter_resources_never_shorten(seed, clock):
    cdfg = blocks_of(seed)
    for block in cdfg.reachable_blocks():
        wide = list_schedule_block(block, ResourceSet.unlimited(), clock_ns=clock)
        narrow = list_schedule_block(block, ResourceSet.minimal(), clock_ns=clock)
        assert narrow.n_steps >= wide.n_steps


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_slower_clock_never_lengthens(seed):
    cdfg = blocks_of(seed)
    for block in cdfg.reachable_blocks():
        fast = list_schedule_block(block, clock_ns=2.5)
        slow = list_schedule_block(block, clock_ns=40.0)
        assert slow.n_steps <= fast.n_steps


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_asap_is_a_lower_bound_for_unit_like_schedules(seed):
    cdfg = blocks_of(seed)
    for block in cdfg.reachable_blocks():
        if not block.ops:
            continue
        asap = unit_asap(block)
        assert asap.n_steps >= 1
        for op in block.ops:
            assert asap.op_step[op.id] >= 0


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=5000), resources=resource_sets)
def test_binding_never_double_books_a_unit(seed, resources):
    cdfg = blocks_of(seed)
    schedule = list_schedule_function(cdfg, resources)
    binding = bind_functional_units(schedule)
    for block_schedule in schedule.blocks.values():
        for step_ops in block_schedule.step_ops():
            units = [
                binding.op_unit[op.id]
                for op in step_ops
                if op.id in binding.op_unit
            ]
            assert len(units) == len(set(units))


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_register_allocation_covers_all_crossers(seed):
    cdfg = blocks_of(seed)
    schedule = list_schedule_function(cdfg, ResourceSet.minimal())
    allocation = allocate_registers(schedule)
    for lifetime in allocation.lifetimes:
        assert lifetime.vreg.id in allocation.vreg_carrier


# ---------------------------------------------------------------------------
# Left-edge invariants on synthetic interval sets
# ---------------------------------------------------------------------------

intervals = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=1, max_value=10)),
    min_size=1, max_size=40,
)


@given(intervals)
def test_left_edge_never_overlaps_within_a_carrier(spans):
    lifetimes = [
        Lifetime(vreg=VReg(INT), block_id=0, start=s, end=s + d)
        for s, d in spans
    ]
    carriers = left_edge_pack(lifetimes)
    for carrier in carriers:
        mine = sorted(
            (lt.start, lt.end) for lt in carrier.occupants if lt.block_id == 0
        )
        for (s1, e1), (s2, e2) in zip(mine, mine[1:]):
            assert e1 < s2 or s2 > e1 - 1  # strictly disjoint: end < next start
            assert s2 > e1


@given(intervals)
def test_left_edge_is_optimal(spans):
    lifetimes = [
        Lifetime(vreg=VReg(INT), block_id=0, start=s, end=s + d)
        for s, d in spans
    ]
    carriers = left_edge_pack(lifetimes)
    # Optimal register count for an interval graph = max clique = max
    # number of intervals alive at one point.  A value is alive on
    # [start+1, end] (it is latched at the end of `start`).
    points = set()
    for lt in lifetimes:
        points.update(range(lt.start, lt.end + 1))
    max_overlap = 0
    for p in points:
        alive = sum(1 for lt in lifetimes if lt.start <= p <= lt.end)
        max_overlap = max(max_overlap, alive)
    assert len(carriers) == max_overlap


@given(intervals)
def test_left_edge_preserves_every_lifetime(spans):
    lifetimes = [
        Lifetime(vreg=VReg(INT), block_id=0, start=s, end=s + d)
        for s, d in spans
    ]
    carriers = left_edge_pack(lifetimes)
    packed = [lt for c in carriers for lt in c.occupants]
    assert sorted(id(lt) for lt in packed) == sorted(id(lt) for lt in lifetimes)
