"""Regression tests for flow-level subtleties found during development."""

import pytest

from repro.api import synthesize
from repro.interp import run_source


def test_chain_scheduler_splits_same_memory_raw():
    # A store followed by a load of the SAME memory in one block cannot
    # share a state (synchronous RAMs commit at the edge).  Regression for
    # a silent wrong-value bug: the checksum read output[n] right after
    # writing it.
    source = """
    int buf[4];
    int main(int v) {
        buf[1] = v * 3;
        int readback = buf[1];
        return readback + 1;
    }
    """
    golden = run_source(source, args=(5,)).value
    for flow in ("transmogrifier", "systemc"):
        result = synthesize(source, flow=flow).run(args=(5,))
        assert result.value == golden, flow
        assert result.cycles >= 2  # the split costs a state


def test_chain_scheduler_keeps_distinct_memories_together():
    source = """
    int a[4];
    int b[4];
    int main(int v) {
        a[0] = v;
        int other = b[0];
        return other;
    }
    """
    result = synthesize(source, flow="transmogrifier").run(args=(9,))
    assert result.value == 0
    assert result.cycles == 1  # different memories: one state suffices


def test_handelc_staggers_conflicting_channel_ops_in_par():
    # Two branches both doing channel ops in the same par slot: the
    # compiler staggers the second by a cycle instead of rejecting.
    source = """
    chan<int> a;
    chan<int> b;
    process void feeder_a() { send(a, 11); }
    process void feeder_b() { send(b, 22); }
    int main() {
        int x;
        int y;
        par {
            x = recv(a);
            y = recv(b);
        }
        return x * 100 + y;
    }
    """
    golden = run_source(source)
    result = synthesize(source, flow="handelc").run()
    assert result.value == golden.value == 1122


def test_handelc_tolerant_memory_on_speculative_conditions():
    # The guard i < 4 is evaluated together with t[i] in the predecessor
    # state; at i == 4 the load is speculative and must read harmless 0.
    source = """
    int t[4] = {5, 6, 7, 8};
    int main() {
        int s = 0;
        for (int i = 0; i < 4; i++) {
            if (t[i] > 5) { s += t[i]; }
        }
        return s;
    }
    """
    golden = run_source(source).value
    assert synthesize(source, flow="handelc").run().value == golden


def test_scheduled_flows_keep_strict_memory_bounds():
    # Unlike Handel-C, a scheduled flow evaluates lazily: a genuine
    # out-of-bounds access is a bug and must trap loudly.
    from repro.sim import SimulationError

    source = "int t[4]; int main(int i) { return t[i]; }"
    design = synthesize(source, flow="c2verilog").design
    with pytest.raises(SimulationError):
        design.run(args=(7,))


def test_within_constraint_with_send_inside():
    source = """
    chan<int> c;
    process void sink() { int v = recv(c); }
    int main(int a) {
        int x = 0;
        within (3) {
            x = a + 1;
            send(c, x);
        }
        return x;
    }
    """
    golden = run_source(source, args=(4,))
    result = synthesize(source, flow="hardwarec").run(args=(4,))
    assert result.value == golden.value
    assert result.channel_log == golden.channel_log


def test_narrowed_designs_match_unmarrowed_across_inputs():
    source = """
    int main(int x) {
        int acc = 0;
        for (int i = 0; i < 12; i++) {
            acc += ((x >> i) & 7) * (i & 3);
        }
        return acc;
    }
    """
    wide = synthesize(source, flow="c2verilog", opt_level=2).design
    slim = synthesize(source, flow="c2verilog", opt_level=3).design
    for value in (0, 1, -1, 12345, -98765, 2**31 - 1):
        assert wide.run(args=(value,)).value == slim.run(args=(value,)).value


def test_transmogrifier_rotation_preserves_continue_semantics():
    # Loops containing `continue` are not rotated; verify correctness.
    source = """
    int main() {
        int s = 0;
        for (int i = 0; i < 10; i++) {
            if (i % 2 == 0) { continue; }
            s += i;
        }
        return s;
    }
    """
    golden = run_source(source).value
    assert synthesize(source, flow="transmogrifier").run().value == golden


def test_zero_trip_loops_across_flows():
    source = "int main(int n) { int s = 7; for (int i = 0; i < n; i++) { s = 0; } return s; }"
    for flow in ("c2verilog", "handelc", "transmogrifier", "bachc", "cash"):
        assert synthesize(source, flow=flow).run(args=(0,)).value == 7, flow


def test_empty_function_body_synthesizes():
    source = "int main() { return 42; }"
    for flow in ("c2verilog", "handelc", "transmogrifier", "cash", "cones"):
        assert synthesize(source, flow=flow).run().value == 42, flow


def test_deeply_nested_control_flow():
    source = """
    int main(int a) {
        int r = 0;
        for (int i = 0; i < 3; i++) {
            for (int j = 0; j < 3; j++) {
                if (i == j) {
                    if (a > 0) { r += i * 10; } else { r -= j; }
                } else {
                    while (r > 50) { r = r - 7; }
                }
            }
        }
        return r;
    }
    """
    golden = run_source(source, args=(1,)).value
    for flow in ("c2verilog", "handelc", "transmogrifier", "systemc", "cash"):
        assert synthesize(source, flow=flow).run(args=(1,)).value == golden, flow
