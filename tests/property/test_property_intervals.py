"""Property tests for the shared interval domain (:mod:`repro.ir.intervals`).

Bit-width narrowing and the specialising FSMD engine both trust these
functions, so each is held once to brute force over small types:

* every binary and unary transfer function, over every pair of values
  in two drawn intervals, must contain the result before its wrap (the
  engine drops the wrap when that interval fits) and, after :func:`fit`,
  the result C's wrap semantics give (:mod:`repro.interp.machine`).  An
  unknown side (None) stands for every value in a wider range;
* :func:`refine` keeps every pair that satisfies the comparison, for
  both truth values, and returns None only when no pair does;
* :func:`widen` contains both of its arguments.
"""

from hypothesis import given, strategies as st

from repro.interp.machine import (
    BINARY_OPS, _c_div, _c_mod, eval_binary, eval_unary,
)
from repro.ir import intervals
from repro.lang.errors import InterpError
from repro.lang.types import IntType

# Result types small enough to enumerate; operands may lie outside them.
TYPES = [IntType(4, signed=True), IntType(4, signed=False),
         IntType(3, signed=True), IntType(1, signed=False)]
# What an unknown operand (None) ranges over in the brute force.
ANYTHING = (-40, 40)
COMPARISONS = sorted(intervals.NEGATED)


@st.composite
def ranges(draw, low=-20, high=20):
    a = draw(st.integers(low, high))
    b = draw(st.integers(low, high))
    return min(a, b), max(a, b)


operands = st.one_of(st.none(), ranges())


def _values(bounds):
    low, high = ANYTHING if bounds is None else bounds
    return range(low, high + 1)


def _unwrapped(op, x, y, width):
    """``x op y`` as the engine computes it before a wrap."""
    if op == "/":
        return _c_div(x, y)
    if op == "%":
        return _c_mod(x, y)
    if op in ("<<", ">>"):
        if y < 0:
            raise InterpError("negative shift amount")
        y = min(y, width)
        return x << y if op == "<<" else x >> y
    return eval_binary(op, x, y, IntType(128))


def _contains(bounds, value):
    return bounds is None or bounds[0] <= value <= bounds[1]


@given(st.sampled_from(sorted(BINARY_OPS)), st.sampled_from(TYPES),
       operands, operands)
def test_binary_transfer_contains_every_result(op, result_type, a, b):
    limits = intervals.int_range(result_type)
    raw = intervals.binary(op, a, b, limits)
    wrapped = intervals.fit(raw, limits)
    for x in _values(a):
        for y in _values(b):
            try:
                value = _unwrapped(op, x, y, result_type.width)
            except InterpError:
                continue            # raises: no value to contain
            assert _contains(raw, value), (op, a, b, x, y, value, raw)
            result = eval_binary(op, x, y, result_type)
            assert wrapped[0] <= result <= wrapped[1], (op, x, y, wrapped)


@given(st.sampled_from(["-", "~", "!"]), st.sampled_from(TYPES), operands)
def test_unary_transfer_contains_every_result(op, result_type, a):
    limits = intervals.int_range(result_type)
    raw = intervals.unary(op, a)
    wrapped = intervals.fit(raw, limits)
    for x in _values(a):
        value = {"-": -x, "~": ~x, "!": int(x == 0)}[op]
        assert _contains(raw, value), (op, a, x, raw)
        result = eval_unary(op, x, result_type)
        assert wrapped[0] <= result <= wrapped[1], (op, x, wrapped)


@given(st.sampled_from(COMPARISONS), st.booleans(), ranges(), ranges())
def test_refine_keeps_every_pair_that_satisfies(op, truth, a, b):
    held = intervals.refine(op, a, b, truth)
    pairs = [(x, y) for x in _values(a) for y in _values(b)
             if bool(eval_binary(op, x, y, IntType(32))) == truth]
    if held is None:
        assert not pairs, (op, truth, a, b, pairs[:3])
        return
    (alo, ahi), (blo, bhi) = held
    assert alo <= ahi and blo <= bhi
    for x, y in pairs:
        assert alo <= x <= ahi and blo <= y <= bhi, (op, truth, x, y, held)


@given(st.sampled_from(COMPARISONS), st.booleans(), ranges())
def test_refine_narrows_nothing_it_does_not_know(op, truth, a):
    assert intervals.refine(op, a, None, truth) == (a, None)
    assert intervals.refine(op, None, a, truth) == (None, a)


@given(ranges(), ranges(), st.sets(st.integers(-30, 30), max_size=6),
       st.sampled_from(TYPES + [IntType(8, signed=True)]))
def test_widen_contains_both_arguments(old, new, constants, value_type):
    top = intervals.int_range(value_type)
    old, new = intervals.fit(old, top), intervals.fit(new, top)
    widened = intervals.widen(old, new, top,
                              intervals.thresholds(constants))
    if widened is None:
        return                      # unknown: contains everything
    for bounds in (old, new):
        assert widened[0] <= bounds[0] and bounds[1] <= widened[1]
    assert top[0] <= widened[0] and widened[1] <= top[1]


def test_widening_reaches_the_type_within_its_cap():
    # A value that grows by one on every change, past 400 constants: the
    # head joins exactly, then jumps threshold by threshold, then goes
    # to the type's end, however many constants the program names.
    top = intervals.int_range(IntType(16, signed=True))
    constants = range(0, 2800, 7)
    policy = intervals.Widening({0: 0}, [(0, 0)], constants)
    bounds, changes = (0, 0), 0
    while bounds[1] < top[1]:
        grown = (0, bounds[1] + 1)
        changes += 1
        stops = policy.stops(0)
        if stops is not None:
            grown = intervals.widen(bounds, grown, top, stops)
        assert grown[0] <= bounds[0] and bounds[1] < grown[1]
        bounds = grown
    assert changes <= intervals.WIDEN_AFTER + intervals.WIDEN_JUMPS + 1
    assert changes < len(constants)


@given(ranges(), ranges())
def test_hull_contains_both(a, b):
    low, high = intervals.hull(a, b)
    assert low <= min(a[0], b[0]) and max(a[1], b[1]) <= high
    assert intervals.hull(a, None) is None
