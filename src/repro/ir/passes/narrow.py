"""Bit-width narrowing by value-range analysis.

The paper's opening complaint about C as a hardware language: *"Bit vectors
are natural in hardware, yet C only supports four sizes."*  A C program
computes everything in 32-bit ints even when eight bits would do, and a
naive translation pays for 32-bit adders, multipliers, and registers.

This pass recovers the widths C's type system threw away:

1. **Interval analysis** — a forward abstract interpretation over the
   CFG, in the interval domain of :mod:`repro.ir.intervals`: each op's
   range is its transfer function wrapped into its type; a branch on a
   comparison refines each side that reads a variable, which is what
   bounds loop counters.  Iteration starts from zero-initialized locals
   and full-range parameters/globals and joins by hull; a worklist runs
   the blocks in reverse postorder, and a loop head's entry widens by
   the shared :class:`~repro.ir.intervals.Widening` policy (to the next
   constant the function names, in the end to its type), so the
   iteration always converges.

2. **Narrowing** — a value whose range fits a smaller integer type is
   retyped: wrap at the smaller width is the identity on the range, so
   semantics are untouched (the property tests check this against the
   interpreter).  A shift's result keeps at least as many bits as its
   largest amount, since the machine saturates the amount at the
   result's width.  Narrowed are pure-op results, constants, and *local*
   scalar registers; parameters and globals keep their declared interface
   widths.

The E12 benchmark measures what this buys: quadratic-area multipliers and
per-bit registers shrink to the widths the program actually needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Optional

from ...lang.symtab import Symbol, SymbolKind
from ...lang.types import BoolType, IntType, make_int
from .. import intervals
from ..cdfg import FunctionCDFG
from ..intervals import Bounds, Range, type_range
from ..ops import Branch, Const, Jump, Operand, Operation, OpKind, VReg, VarRead


def minimal_type(range_: Range, signed_hint: bool) -> IntType:
    """The narrowest IntType containing ``range_``, of at most 128 bits."""
    lo, hi = range_
    if lo >= 0 and not signed_hint:
        return make_int(min(max(hi.bit_length(), 1), 128), signed=False)
    # A sign bit above the magnitude bits of either end.
    width = 1 + max((x if x >= 0 else ~x).bit_length() for x in range_)
    return make_int(min(width, 128), signed=True)


@dataclass
class NarrowReport:
    vregs_narrowed: int = 0
    constants_narrowed: int = 0
    registers_narrowed: int = 0
    bits_saved: int = 0


State = Dict[Symbol, Bounds]


class _Narrower:
    def __init__(self, cdfg: FunctionCDFG):
        self.cdfg = cdfg
        self.blocks = cdfg.reachable_blocks()
        # Per-block entry state: var -> range.  None = not yet reached.
        self.entry_state: Dict[int, Optional[State]] = dict.fromkeys(
            b.id for b in self.blocks)
        # The final, program-wide range per variable (union over blocks).
        self.var_range: Dict[Symbol, Bounds] = {}
        self.report = NarrowReport()

    # -- transfer functions --------------------------------------------------

    @staticmethod
    def _operand_range(operand: Operand, state: State,
                       vreg_range: Dict[VReg, Bounds]) -> Bounds:
        if isinstance(operand, Const):
            return (operand.value, operand.value)
        if isinstance(operand, VarRead):
            var = operand.var
            return state[var] if var in state else type_range(var.type)
        if operand in vreg_range:
            return vreg_range[operand]
        return type_range(operand.type)

    def _op_range(self, op: Operation, state: State,
                  vreg_range: Dict[VReg, Bounds]) -> Bounds:
        assert op.dest is not None
        if op.kind is OpKind.LOAD:
            assert op.array is not None
            return type_range(op.array.type.element)  # type: ignore[union-attr]
        limits = type_range(op.dest.type)
        if limits is None:
            return None
        ranges = [self._operand_range(o, state, vreg_range) for o in op.operands]
        raw: Bounds = None
        if op.kind is OpKind.BINARY:
            raw = intervals.binary(op.op, ranges[0], ranges[1], limits)
        elif op.kind is OpKind.UNARY:
            raw = intervals.unary(op.op, ranges[0])
        elif op.kind is OpKind.CAST:
            raw = ranges[0]
        elif op.kind is OpKind.SELECT:
            raw = intervals.hull(ranges[1], ranges[2])
        return intervals.fit(raw, limits)

    def _execute_block(self, block, state: State):
        """Returns (exit_state, vreg ranges)."""
        vreg_range: Dict[VReg, Bounds] = {}
        for op in block.ops:
            if op.dest is not None:
                vreg_range[op.dest] = self._op_range(op, state, vreg_range)
        exit_state = dict(state)
        for var, value in block.var_writes.items():
            raw = self._operand_range(value, state, vreg_range)
            limits = type_range(var.type)
            exit_state[var] = limits and intervals.fit(raw, limits)
        return exit_state, vreg_range

    def _edges(self, block, state: State, exit_state: State,
               vreg_range: Dict[VReg, Bounds]):
        """Each successor with the state on the edge to it; an edge the
        branch's comparison rules out is left out."""
        terminator = block.terminator
        if isinstance(terminator, Jump):
            yield terminator.target, exit_state
            return
        if not isinstance(terminator, Branch):
            return
        test = next((op for op in block.ops if op.dest is terminator.cond
                     and op.kind is OpKind.BINARY
                     and op.op in intervals.NEGATED), None)
        for successor, taken in ((terminator.if_true, True),
                                 (terminator.if_false, False)):
            if test is None:
                yield successor, exit_state
                continue
            held = intervals.refine(test.op, *[
                self._operand_range(o, state, vreg_range)
                for o in test.operands], truth=taken)
            if held is None:
                continue
            edge = dict(exit_state)
            for operand, bounds in zip(test.operands, held):
                # A variable the block writes leaves it holding another
                # value than the one compared.
                if isinstance(operand, VarRead) \
                        and operand.var not in block.var_writes:
                    edge[operand.var] = bounds
            yield successor, edge

    # -- fixpoint --------------------------------------------------------------

    def _initial_state(self) -> State:
        # Interface symbols hold anything; registers power up at zero.
        return {symbol: type_range(symbol.type) if self._interface(symbol)
                else (0, 0) for symbol in self.cdfg.registers}

    def _interface(self, symbol: Symbol) -> bool:
        return symbol in self.cdfg.params or symbol.kind is SymbolKind.GLOBAL

    @staticmethod
    def _join(a: Optional[State], b: State) -> State:
        out = dict(a or {})
        for var, range_ in b.items():
            out[var] = intervals.hull(out[var], range_) if var in out else range_
        return out

    def analyze(self) -> Dict[VReg, Bounds]:
        if not self.blocks:
            return {}
        position = {block.id: index for index, block in enumerate(self.blocks)}
        widening = intervals.Widening(position, (
            (block.id, successor.id) for block in self.blocks
            for successor in block.successors()), (
            operand.value for block in self.blocks for op in block.ops
            for operand in op.operands if isinstance(operand, Const)))
        self.entry_state[self.blocks[0].id] = self._initial_state()
        work = [0]
        while work:
            block = self.blocks[heappop(work)]
            state = self.entry_state[block.id]
            for successor, edge_state in self._edges(
                    block, state, *self._execute_block(block, state)):
                before = self.entry_state[successor.id]
                joined = self._join(before, edge_state)
                if joined == before:
                    continue
                stops = None if before is None \
                    else widening.stops(successor.id)
                if stops is not None:
                    joined = {var: intervals.widen(before[var], range_,
                                                   type_range(var.type), stops)
                              if var in before else range_
                              for var, range_ in joined.items()}
                self.entry_state[successor.id] = joined
                if position[successor.id] not in work:
                    heappush(work, position[successor.id])
        # At the fixpoint: vreg ranges, and program-wide variable ranges
        # as the union over block entries and exits.
        final_vregs: Dict[VReg, Bounds] = {}
        for block in self.blocks:
            state = self.entry_state[block.id]
            if state is None:
                continue
            exit_state, vreg_range = self._execute_block(block, state)
            final_vregs.update(vreg_range)
            self.var_range = self._join(self._join(self.var_range, state),
                                        exit_state)
        for symbol in self.cdfg.registers:
            self.var_range.setdefault(symbol, type_range(symbol.type))
        return final_vregs

    def apply(self) -> NarrowReport:
        vreg_range = self.analyze()
        # Narrow pure-op results.
        for block in self.cdfg.blocks:
            for op in block.ops:
                if op.dest is None or vreg_range.get(op.dest) is None \
                        or op.kind in (OpKind.LOAD, OpKind.RECV):
                    continue  # a load's or receive's width is its interface's
                current = op.dest.type
                if not isinstance(current, (IntType, BoolType)):
                    continue
                signed_hint = isinstance(current, IntType) and current.signed
                narrow = minimal_type(vreg_range[op.dest], signed_hint)
                if op.kind is OpKind.BINARY and op.op in ("<<", ">>"):
                    # The amount saturates at the result's width: keep
                    # every amount the shift may see within it.
                    amount = self._operand_range(
                        op.operands[1], self.var_range, vreg_range)
                    top = current.bit_width if amount is None else amount[1]
                    narrow = make_int(min(max(narrow.bit_width, top),
                                          current.bit_width), narrow.signed)
                if narrow.bit_width < current.bit_width:
                    self.report.vregs_narrowed += 1
                    self.report.bits_saved += current.bit_width - narrow.bit_width
                    object.__setattr__(op.dest, "type", narrow)
                # Constants: retype to their own minimal width.
                for index, c in enumerate(op.operands):
                    if isinstance(c, Const) and isinstance(c.type, IntType):
                        tight = minimal_type((c.value, c.value), c.type.signed)
                        if tight.bit_width < c.type.bit_width:
                            op.operands[index] = Const(c.value, tight)
                            self.report.constants_narrowed += 1
        # Narrow local scalar registers (never interface symbols).
        for symbol in self.cdfg.registers:
            if self._interface(symbol):
                continue
            current = symbol.type
            if not isinstance(current, IntType) \
                    or self.var_range[symbol] is None:
                continue
            narrow = minimal_type(self.var_range[symbol], current.signed)
            if narrow.bit_width < current.bit_width:
                self.report.registers_narrowed += 1
                self.report.bits_saved += current.bit_width - narrow.bit_width
                symbol.type = narrow
        return self.report

def narrow_widths(cdfg: FunctionCDFG) -> NarrowReport:
    """Run value-range bit-width narrowing on a built (ideally optimized)
    CDFG.  Mutates VReg/Const/local-register types in place; semantics are
    preserved because every narrowed value's range fits its new type."""
    return _Narrower(cdfg).apply()
