"""Technology-model tests: the cost axioms every comparison relies on."""

import pytest

from repro.rtl import tech as T
from repro.rtl.tech import DEFAULT_TECH, Technology


def test_every_class_has_delay_and_area():
    for op_class in (T.ADD, T.COMPARE, T.LOGIC, T.SHIFT, T.MULTIPLY,
                     T.DIVIDE, T.SELECT, T.CAST, T.MEM_READ, T.MEM_WRITE,
                     T.REGISTER, T.CHANNEL):
        assert DEFAULT_TECH.delay_ns(op_class, 32) >= 0.0
        assert DEFAULT_TECH.area_ge(op_class, 32) >= 0.0


def test_relative_delay_ordering():
    t = DEFAULT_TECH
    assert t.delay_ns(T.LOGIC) < t.delay_ns(T.ADD)
    assert t.delay_ns(T.ADD) < t.delay_ns(T.MULTIPLY)
    assert t.delay_ns(T.MULTIPLY) < t.delay_ns(T.DIVIDE)


def test_relative_area_ordering():
    t = DEFAULT_TECH
    assert t.area_ge(T.LOGIC) < t.area_ge(T.ADD)
    assert t.area_ge(T.ADD) < t.area_ge(T.MULTIPLY)
    assert t.area_ge(T.MULTIPLY) < t.area_ge(T.DIVIDE)


def test_width_scaling_monotone():
    t = DEFAULT_TECH
    for op_class in (T.ADD, T.MULTIPLY, T.COMPARE, T.SHIFT):
        assert t.delay_ns(op_class, 8) <= t.delay_ns(op_class, 32)
        assert t.delay_ns(op_class, 32) <= t.delay_ns(op_class, 64)
        assert t.area_ge(op_class, 8) <= t.area_ge(op_class, 32)


def test_multiplier_area_is_quadratic():
    t = DEFAULT_TECH
    ratio = t.area_ge(T.MULTIPLY, 64) / t.area_ge(T.MULTIPLY, 32)
    assert ratio == pytest.approx(4.0)


def test_adder_area_is_linear():
    t = DEFAULT_TECH
    ratio = t.area_ge(T.ADD, 64) / t.area_ge(T.ADD, 32)
    assert ratio == pytest.approx(2.0)


def test_cast_is_free():
    assert DEFAULT_TECH.delay_ns(T.CAST, 64) == 0.0
    assert DEFAULT_TECH.area_ge(T.CAST, 64) == 0.0


def test_memory_area_scales_with_words_bits_and_ports():
    t = DEFAULT_TECH
    base = t.memory_area_ge(16, 32, 1)
    assert t.memory_area_ge(32, 32, 1) > base
    assert t.memory_area_ge(16, 64, 1) > base
    assert t.memory_area_ge(16, 32, 2) > base


def test_mux_costs_grow_with_inputs():
    t = DEFAULT_TECH
    assert t.mux_area_ge(1, 32) == 0.0
    assert t.mux_delay_ns(1, 32) == 0.0
    assert t.mux_area_ge(4, 32) > t.mux_area_ge(2, 32)
    assert t.mux_delay_ns(8, 32) > t.mux_delay_ns(2, 32)


def test_mux_delay_is_logarithmic_in_inputs():
    t = DEFAULT_TECH
    assert t.mux_delay_ns(8, 32) == pytest.approx(3 * t.mux_delay_ns(2, 32))


def test_register_area_scales_with_width():
    t = DEFAULT_TECH
    assert t.register_area_ge(64) == pytest.approx(2 * t.register_area_ge(32))


def test_custom_technology_overrides():
    slow = Technology(name="slow", base_delay_ns={**T._BASE_DELAY, T.ADD: 10.0})
    assert slow.delay_ns(T.ADD) == pytest.approx(10.0)
    assert slow.delay_ns(T.LOGIC) == DEFAULT_TECH.delay_ns(T.LOGIC)


def test_custom_technology_flows_through_a_design():
    from repro.api import synthesize

    source = "int main(int a, int b) { return a * b; }"
    default = synthesize(source, flow="c2verilog").design.cost()
    fat_mul = Technology(
        base_area_ge={**T._BASE_AREA, T.MULTIPLY: 36000.0}
    )
    fat = synthesize(source, flow="c2verilog").design.cost(fat_mul)
    assert fat.area_ge > default.area_ge
