"""Modulo-scheduling (loop pipelining) tests — the E3 substrate."""

import pytest

from repro.ir import build_function
from repro.ir.passes import inline_program, optimize_cdfg
from repro.lang import parse
from repro.scheduling import (
    ResourceSet,
    find_pipelineable_loops,
    loop_carried_dependences,
    modulo_schedule,
    recurrence_mii,
    resource_mii,
)


def loops_of(source):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    cdfg = build_function(inlined.function("main"), info)
    optimize_cdfg(cdfg)
    return find_pipelineable_loops(cdfg)


REGULAR_LOOP = """
int a[64];
int b[64];
int main(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc = acc + a[i & 63] * b[i & 63];
    }
    return acc;
}
"""

GCD_LOOP = "int main(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }"

HISTOGRAM_LOOP = """
int bins[16];
int data[64];
int main(int n) {
    for (int i = 0; i < n; i++) {
        bins[data[i & 63] & 15] = bins[data[i & 63] & 15] + 1;
    }
    return bins[0];
}
"""


def test_two_block_loops_are_fused_and_found():
    loops = loops_of(REGULAR_LOOP)
    assert len(loops) == 1
    assert loops[0].ops  # fused head+body has real work


def test_regular_loop_has_trivial_recurrence():
    (loop,) = loops_of(REGULAR_LOOP)
    # The accumulator is a single add: RecMII is the add's latency (1).
    assert recurrence_mii(loop) == 1


def test_gcd_recurrence_includes_division_latency():
    (loop,) = loops_of(GCD_LOOP)
    assert recurrence_mii(loop) >= 4  # the divider sits on the cycle


def test_histogram_memory_recurrence():
    (loop,) = loops_of(HISTOGRAM_LOOP)
    carried = loop_carried_dependences(loop)
    memory_carried = [d for d in carried if d.src.is_memory() or d.dst.is_memory()]
    assert memory_carried
    assert recurrence_mii(loop) >= 3  # load -> add -> store around the edge


def test_resource_mii_scales_with_limits():
    (loop,) = loops_of(REGULAR_LOOP)
    tight = resource_mii(loop, ResourceSet(alu=1, multiplier=1))
    loose = resource_mii(loop, ResourceSet(alu=8, multiplier=4))
    assert tight >= loose
    assert loose >= 1


def test_regular_loop_pipelines_well_with_resources():
    (loop,) = loops_of(REGULAR_LOOP)
    result = modulo_schedule(loop, ResourceSet(alu=4, multiplier=2))
    assert result.achieved_ii is not None
    assert result.achieved_ii <= 2
    assert result.speedup() > 1.5


def test_gcd_does_not_pipeline():
    (loop,) = loops_of(GCD_LOOP)
    result = modulo_schedule(loop, ResourceSet.typical())
    assert result.achieved_ii is None or result.achieved_ii >= result.sequential_steps
    assert result.speedup() <= 1.05


def test_achieved_ii_at_least_mii():
    for source in (REGULAR_LOOP, HISTOGRAM_LOOP):
        (loop,) = loops_of(source)
        result = modulo_schedule(loop, ResourceSet.typical())
        if result.achieved_ii is not None:
            assert result.achieved_ii >= result.mii


def test_modulo_placement_respects_mrt():
    (loop,) = loops_of(REGULAR_LOOP)
    resources = ResourceSet(alu=2, multiplier=1)
    result = modulo_schedule(loop, resources)
    assert result.achieved_ii is not None
    from repro.scheduling.resources import FREE, classify

    slots = {}
    by_id = {op.id: op for op in loop.ops}
    for op_id, step in result.op_step.items():
        resource = classify(by_id[op_id])
        if resource == FREE:
            continue
        key = (resource, step % result.achieved_ii)
        slots[key] = slots.get(key, 0) + 1
    for (resource, _), used in slots.items():
        limit = resources.limit(resource)
        if limit is not None:
            assert used <= limit


def test_speedup_accounts_for_prologue():
    (loop,) = loops_of(REGULAR_LOOP)
    result = modulo_schedule(loop, ResourceSet(alu=4, multiplier=2))
    few = result.speedup(iterations=2)
    many = result.speedup(iterations=10_000)
    assert many >= few  # pipeline fill cost amortizes


def test_self_loop_block_found_directly():
    # do-while bodies fuse into single self-looping blocks after optimize.
    loops = loops_of(
        "int main(int n) { int s = 0; int i = 0; do { s += i; i++; } while (i < n); return s; }"
    )
    assert len(loops) == 1
