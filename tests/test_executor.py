"""CDFG reference-executor tests (beyond the builder's equivalence checks)."""

import pytest

from repro.interp import run_program
from repro.lang import InterpError, parse
from repro.ir import build_function
from repro.ir.passes import inline_program, optimize_cdfg
from tests.cdfg_oracle import CDFGExecutor, execute


def build(source):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    cdfg = build_function(inlined.function("main"), info)
    optimize_cdfg(cdfg)
    return cdfg, program, info


def test_register_init_overrides_zero():
    cdfg, _, _ = build("int g; int main() { return g + 1; }")
    g = next(s for s in cdfg.registers if s.name == "g")
    assert execute(cdfg).value == 1
    assert execute(cdfg, register_init={g: 41}).value == 42


def test_memory_init_populates_arrays():
    cdfg, _, _ = build("int t[4]; int main(int i) { return t[i]; }")
    t = next(a for a in cdfg.arrays if a.name == "t")
    result = execute(cdfg, args=(2,), memory_init={t: [9, 8, 7, 6]})
    assert result.value == 7


def test_argument_count_checked():
    cdfg, _, _ = build("int main(int a, int b) { return a + b; }")
    with pytest.raises(InterpError):
        execute(cdfg, args=(1,))


def test_block_budget_enforced():
    cdfg, _, _ = build("int main() { while (true) { } return 0; }")
    with pytest.raises(InterpError) as excinfo:
        CDFGExecutor(cdfg, max_blocks=50).run()
    assert "budget" in str(excinfo.value)


def test_out_of_bounds_load_reports_array_and_index():
    cdfg, _, _ = build("int t[4]; int main(int i) { return t[i]; }")
    with pytest.raises(InterpError) as excinfo:
        execute(cdfg, args=(9,))
    assert "t" in str(excinfo.value) and "9" in str(excinfo.value)


def test_counters_reported():
    cdfg, _, _ = build(
        "int main() { int s = 0; for (int i = 0; i < 5; i++) { s += i; } return s; }"
    )
    result = execute(cdfg)
    assert result.blocks_executed > 5
    assert result.ops_executed > 5


def test_channel_callbacks_script_a_partner():
    cdfg, program, info = build(
        "chan<int> c; int main() { send(c, 5); return recv(c) + recv(c); }"
    )
    sent = []
    feed = iter([10, 20])
    result = execute(
        cdfg,
        on_send=lambda chan, v: sent.append((chan.name, v)),
        on_recv=lambda chan: next(feed),
    )
    assert sent == [("c", 5)]
    assert result.value == 30


def test_channel_ops_without_callbacks_raise():
    cdfg, _, _ = build("chan<int> c; int main() { return recv(c); }")
    with pytest.raises(InterpError):
        execute(cdfg)


def test_final_state_snapshot():
    cdfg, program, info = build(
        "int g; int t[2]; int main() { g = 3; t[1] = 9; return 0; }"
    )
    result = execute(cdfg)
    assert result.registers["g"] == 3
    assert result.memories["t"] == [0, 9]


def test_matches_interpreter_including_globals():
    source = """
    int acc;
    int log[4];
    int main(int n) {
        for (int i = 0; i < n; i++) {
            acc += i * i;
            log[i & 3] = acc;
        }
        return acc;
    }
    """
    cdfg, program, info = build(source)
    golden = run_program(program, info, "main", (7,))
    result = execute(cdfg, args=(7,))
    assert result.value == golden.value
    assert result.registers["acc"] == golden.globals["acc"]
    assert result.memories["log"] == golden.globals["log"]
