"""Asynchronous dataflow simulator tests (the CASH timing model)."""

import pytest

from repro.ir import build_function
from repro.ir.passes import inline_program, optimize_cdfg
from repro.interp import run_program
from repro.lang import parse
from repro.rtl.tech import DEFAULT_TECH
from repro.sim.async_sim import AsyncSimulator


def build(source):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    cdfg = build_function(inlined.function("main"), info)
    optimize_cdfg(cdfg)
    return cdfg, program, info


def run_async(source, args=()):
    cdfg, program, info = build(source)
    return AsyncSimulator(cdfg, args=args).run(), program, info


def test_functional_result_matches_interpreter():
    source = "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i * i; } return s; }"
    result, program, info = run_async(source, (7,))
    golden = run_program(program, info, "main", (7,))
    assert result.value == golden.value


def test_completion_time_positive_and_ops_counted():
    result, _, _ = run_async("int main(int a, int b) { return a * b + 1; }", (2, 3))
    assert result.value == 7
    assert result.completion_ns > 0
    assert result.ops_fired >= 2


def test_independent_ops_overlap_in_time():
    # Two independent multiplies: completion is far less than their summed
    # delays (they fire concurrently), so average parallelism exceeds 1.
    result, _, _ = run_async(
        """
        int main(int a, int b, int c, int d) {
            return (a * b) + (c * d);
        }
        """,
        (2, 3, 4, 5),
    )
    assert result.value == 26
    assert result.average_parallelism > 1.0


def test_dependent_chain_serializes():
    chain, _, _ = run_async(
        "int main(int a) { return ((a * a) * a) * a; }", (2,)
    )
    flat, _, _ = run_async(
        "int main(int a) { return (a * a) * (a * a); }", (2,)
    )
    assert chain.value == flat.value == 16
    # Tree evaluation finishes strictly earlier than the linear chain.
    assert flat.completion_ns < chain.completion_ns


def test_memory_operations_serialize_per_memory():
    # Two loads from one memory must queue on its single port.
    one_memory, _, _ = run_async(
        "int g[4]; int main(int i) { return g[i] + g[i + 1]; }", (0,)
    )
    two_memories, _, _ = run_async(
        "int g[4]; int h[4]; int main(int i) { return g[i] + h[i + 1]; }", (0,)
    )
    assert two_memories.completion_ns < one_memory.completion_ns


def test_control_transfers_cost_handshakes():
    looped, _, _ = run_async(
        "int main() { int s = 0; for (int i = 0; i < 8; i++) { s += 1; } return s; }"
    )
    straight, _, _ = run_async(
        "int main() { return 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1; }"
    )
    assert looped.value == straight.value == 8
    assert looped.completion_ns > straight.completion_ns


def test_registers_and_memories_reported():
    result, _, _ = run_async(
        "int g[2]; int main(int a) { g[0] = a; g[1] = a * 2; return g[1]; }", (3,)
    )
    assert any(v == [3, 6] for v in result.memories.values())


def test_block_budget_enforced():
    cdfg, _, _ = build("int main() { while (true) { } return 0; }")
    from repro.lang.errors import InterpError

    with pytest.raises(InterpError):
        AsyncSimulator(cdfg, max_blocks=100).run()


def test_latch_is_atomic_across_variables():
    # Classic swap-in-one-block: both registers must read pre-latch values.
    result, program, info = run_async(
        """
        int main(int a, int b) {
            for (int i = 0; i < 3; i++) {
                int t = a + b;
                a = b;
                b = t;
            }
            return a * 1000 + b;
        }
        """,
        (1, 1),
    )
    golden = run_program(program, info, "main", (1, 1))
    assert result.value == golden.value
