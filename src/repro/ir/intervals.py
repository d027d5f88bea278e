"""The interval domain: where a fixed-width C value can lie.

*"Bit vectors are natural in hardware, yet C only supports four sizes."*
Two parts of the system win back the widths C's types throw away by
proving an inclusive ``(low, high)`` interval for each value (``None``:
nothing is known): bit-width narrowing (:mod:`repro.ir.passes.narrow`)
retypes values, and the compiled FSMD engine (:mod:`repro.sim.compiled`)
drops the wraps and guards its proofs make unneeded.  Both compute here,
with :mod:`repro.interp.machine`'s arithmetic: results wrap into their
type, division truncates toward zero, a zero divisor or negative shift
amount raises, and a shift amount saturates at the result's width.

:func:`binary` and :func:`unary` give a result's interval before its
wrap, and :func:`fit` wraps it; :func:`refine` narrows both sides of a
comparison; :func:`widen` jumps a moving end to the next constant the
program names (:func:`thresholds`), so a loop counter stops at its guard.
Both users widen loop heads by one :class:`Widening` policy.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..interp.machine import _as_int_type, _c_div
from ..lang.errors import InterpError
from ..lang.types import Type

Range = Tuple[int, int]
# An interval, or None: the value may be anything.
Bounds = Optional[Range]

#: The comparison that holds where ``a op b`` does not.
NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
_TRUTH = frozenset(NEGATED) | {"&&", "||"}


def int_range(value_type: Type) -> Range:
    """Every value of ``value_type``; InterpError if it is no integer."""
    rt = _as_int_type(value_type)
    return rt.min_value, rt.max_value


def type_range(value_type: Type) -> Bounds:
    """:func:`int_range`, or None for a type that is not an integer."""
    try:
        return int_range(value_type)
    except InterpError:
        return None


def within(bounds: Bounds, limits: Range) -> bool:
    return (bounds is not None and limits[0] <= bounds[0]
            and bounds[1] <= limits[1])


def fit(bounds: Bounds, limits: Range) -> Range:
    """Where ``bounds`` lies once wrapped into a type ranging ``limits``."""
    return bounds if within(bounds, limits) else limits


def hull(a: Bounds, b: Bounds) -> Bounds:
    if a is None or b is None:
        return None
    return min(a[0], b[0]), max(a[1], b[1])


# -- transfer functions -------------------------------------------------------

def binary(op: str, a: Bounds, b: Bounds, limits: Range) -> Bounds:
    """``a op b`` before it wraps into a type ranging ``limits``; None if
    unknown, or if every pair raises."""
    if op in _TRUTH:
        return 0, 1
    if op in ("&", "|", "^"):
        return _bitwise(op, a, b, limits)
    if op == "%":
        return _remainder(a, b)
    if a is None:
        return None
    if op == "/":
        return _quotient(a, b)
    if op == "<<" or op == ">>":
        return _shift(op, a, b, (limits[1] - limits[0]).bit_length())
    if b is None:
        return None
    if op == "+":
        return a[0] + b[0], a[1] + b[1]
    if op == "-":
        return a[0] - b[1], a[1] - b[0]
    if op == "*":
        products = [x * y for x in a for y in b]
        return min(products), max(products)
    return None


def _bitwise(op: str, a: Bounds, b: Bounds, limits: Range) -> Bounds:
    if op == "&":
        # x & m lies in [0, m] for any x once m >= 0.
        masks = [side[1] for side in (a, b)
                 if side is not None and side[0] >= 0]
        if masks:
            return 0, min(masks)
    elif a is not None and b is not None and a[0] >= 0 and b[0] >= 0:
        # No bit above the larger operand's top bit gets set.
        return 0, (1 << max(a[1], b[1]).bit_length()) - 1
    # Two operands in the result's range keep it in range.
    return limits if within(a, limits) and within(b, limits) else None


def _remainder(a: Bounds, b: Bounds) -> Bounds:
    """The dividend's sign; in magnitude at most the dividend and below
    the divisor."""
    if b is None:
        return None if a is None else (min(a[0], 0), max(a[1], 0))
    below = max(-b[0], b[1]) - 1
    if below < 0:
        return None                 # the divisor is 0
    if a is None:
        return -below, below
    return (0 if a[0] >= 0 else max(a[0], -below),
            0 if a[1] <= 0 else min(a[1], below))


def _quotient(a: Range, b: Bounds) -> Bounds:
    """Monotone in each operand for a divisor of one sign: the corners."""
    if b is None:
        top = max(-a[0], a[1])      # |a / b| <= |a|
        return -top, top
    corners = []
    for low, high in ((b[0], min(b[1], -1)), (max(b[0], 1), b[1])):
        if low <= high:
            corners += [_c_div(x, y) for x in a for y in (low, high)]
    if not corners:
        return None                 # the divisor is 0
    return min(corners), max(corners)


def _shift(op: str, a: Range, b: Bounds, width: int) -> Bounds:
    """Monotone in ``a`` and in the amount (saturated at ``width``): the
    corners."""
    if b is None:
        low, high = 0, width
    elif b[1] < 0:
        return None                 # every amount is negative
    else:
        low, high = min(max(b[0], 0), width), min(b[1], width)
    ends = [x << s if op == "<<" else x >> s for x in a for s in (low, high)]
    return min(ends), max(ends)


def unary(op: str, a: Bounds) -> Bounds:
    """``op a`` before it wraps, or None."""
    if op == "!":
        return 0, 1
    if a is None:
        return None
    if op == "-":
        return -a[1], -a[0]
    if op == "~":
        return -a[1] - 1, -a[0] - 1
    return None


# -- comparisons --------------------------------------------------------------

def refine(op: str, a: Bounds, b: Bounds, truth: bool = True):
    """``(a, b)`` narrowed to the values for which ``a op b`` is
    ``truth``, or None when it never is.  An unknown side stays unknown
    and narrows nothing."""
    if a is None or b is None:
        return a, b
    if not truth:
        op = NEGATED[op]
    (alo, ahi), (blo, bhi) = a, b
    if op == "<":
        ahi, blo = min(ahi, bhi - 1), max(blo, alo + 1)
    elif op == "<=":
        ahi, blo = min(ahi, bhi), max(blo, alo)
    elif op == ">":
        alo, bhi = max(alo, blo + 1), min(bhi, ahi - 1)
    elif op == ">=":
        alo, bhi = max(alo, blo), min(bhi, ahi)
    elif op == "==":
        alo = blo = max(alo, blo)
        ahi = bhi = min(ahi, bhi)
    elif op == "!=":
        # Only a point can be cut from an interval, and only at its end.
        if blo == bhi:
            alo, ahi = alo + (alo == blo), ahi - (ahi == blo)
        if a[0] == a[1]:
            blo, bhi = blo + (blo == a[0]), bhi - (bhi == a[0])
    if alo > ahi or blo > bhi:
        return None
    return (alo, ahi), (blo, bhi)


# -- widening -----------------------------------------------------------------

#: A loop head's entry joins exactly for its first ``WIDEN_AFTER``
#: changes, then widens to the next threshold for ``WIDEN_JUMPS`` more,
#: then to its type, so a fixpoint's length does not grow with the
#: number of constants a program names.
WIDEN_AFTER = 2
WIDEN_JUMPS = 16


class Widening:
    """The loop-head widening both users share, on a graph of ``edges``
    whose nodes ``rank`` orders.  Every cycle takes an edge against the
    order: its target is a loop head.  ``constants`` give the
    thresholds."""

    def __init__(self, rank: Dict[int, int], edges: Iterable[Tuple[int, int]],
                 constants: Iterable[int]):
        self.steps = thresholds(constants)
        self.grown = {head: 0 for tail, head in edges
                      if rank[head] <= rank[tail]}

    def stops(self, node: int) -> Optional[Sequence[int]]:
        """Called when ``node``'s entry, already reached, grows: None to
        keep the hull, else the ``steps`` to :func:`widen` it with."""
        if node not in self.grown:
            return None
        self.grown[node] += 1
        jumps = self.grown[node] - WIDEN_AFTER
        if jumps <= 0:
            return None
        return self.steps if jumps <= WIDEN_JUMPS else ()


def thresholds(constants: Iterable[int]) -> List[int]:
    """Where :func:`widen` may stop: 0, each constant and its negation
    (so ``n - k`` stops too), give or take 1."""
    return sorted({s * c + d for c in {0, *constants} for s in (1, -1)
                   for d in (-1, 0, 1)})


def widen(old: Bounds, new: Bounds, top: Bounds,
          steps: Sequence[int]) -> Bounds:
    """The hull of ``old`` and ``new``, each end that moved past ``old``
    jumped to the next of ``steps``, or else to ``top``'s end (the type's
    values).  None if either is unknown or the hull leaves ``top``."""
    if new == old or new is None:
        return new
    if old is None or top is None:
        return None
    low, high = hull(old, new)
    if not (top[0] <= low and high <= top[1]):
        return None
    if low < old[0]:
        below = bisect_right(steps, low) - 1
        low = max(steps[below], top[0]) if below >= 0 else top[0]
    if high > old[1]:
        above = bisect_left(steps, high)
        high = min(steps[above], top[1]) if above < len(steps) else top[1]
    return low, high
