"""Constant folding and algebraic simplification on the CDFG.

Folds pure operations whose operands are all constants (using the shared
machine arithmetic, so folding can never disagree with simulation), applies
the usual algebraic identities, and converts branches on constants into
jumps so that :mod:`.simplify` can prune the dead arm.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...interp.machine import eval_binary, eval_unary, wrap
from ...lang.errors import InterpError
from ..cdfg import BasicBlock, FunctionCDFG
from ..ops import Branch, Const, Jump, Operand, Operation, OpKind, Ret, VReg


def algebraic(op: str, a: Operand, b: Operand, result_type) -> Optional[Operand]:
    """The operand ``a <op> b`` reduces to by an algebraic identity, if
    any (shared with Cones' netlist construction)."""
    a_const = a.value if isinstance(a, Const) else None
    b_const = b.value if isinstance(b, Const) else None

    def same_type(x: Operand) -> bool:
        return x.type == result_type

    if op == "+":
        if a_const == 0 and same_type(b):
            return b
        if b_const == 0 and same_type(a):
            return a
    elif op == "-":
        if b_const == 0 and same_type(a):
            return a
    elif op == "*":
        if a_const == 1 and same_type(b):
            return b
        if b_const == 1 and same_type(a):
            return a
        if a_const == 0 or b_const == 0:
            return Const(0, result_type)
    elif op == "&":
        if a_const == 0 or b_const == 0:
            return Const(0, result_type)
    elif op in ("|", "^"):
        if a_const == 0 and same_type(b):
            return b
        if b_const == 0 and same_type(a):
            return a
    elif op in ("<<", ">>"):
        if b_const == 0 and same_type(a):
            return a
    return None


_BINARY, _UNARY, _CAST, _SELECT = (
    OpKind.BINARY, OpKind.UNARY, OpKind.CAST, OpKind.SELECT)
#: The operators :func:`algebraic` has identities for.
ALGEBRAIC_OPS = frozenset(("+", "-", "*", "&", "|", "^", "<<", ">>"))


def _fold_block(block: BasicBlock) -> Tuple[int, bool]:
    """Fold one block; returns the simplification count and whether the
    block changed (a select rewritten to a cast changes it uncounted)."""
    folded = 0
    rewritten = False
    replacements: Dict[VReg, Operand] = {}
    kept = []
    for op in block.ops:
        operands = op.operands
        if replacements:
            op.operands = operands = [
                replacements.get(o, o) if type(o) is VReg else o
                for o in operands
            ]
        dest = op.dest
        kind = op.kind
        if dest is None:
            kept.append(op)
        elif kind is _BINARY or kind is _UNARY or kind is _CAST:
            for o in operands:
                if type(o) is not Const:
                    break
            else:
                if not operands:
                    kept.append(op)
                    continue
                try:
                    if kind is _BINARY:
                        value = eval_binary(op.op, operands[0].value,
                                            operands[1].value, dest.type)
                    elif kind is _UNARY:
                        value = eval_unary(op.op, operands[0].value, dest.type)
                    else:
                        value = wrap(operands[0].value, dest.type)
                except InterpError:
                    # Folding would trap (e.g. division by zero); leave it
                    # for runtime.
                    kept.append(op)
                    continue
                replacements[dest] = Const(value, dest.type)
                folded += 1
                continue
            if (kind is _BINARY and op.op in ALGEBRAIC_OPS
                    and len(operands) == 2):
                simplified = algebraic(op.op, operands[0], operands[1],
                                       dest.type)
                if simplified is not None:
                    replacements[dest] = simplified
                    folded += 1
                    continue
            kept.append(op)
        elif kind is _SELECT and type(operands[0]) is Const:
            chosen = operands[1] if operands[0].value else operands[2]
            if chosen.type == dest.type:
                replacements[dest] = chosen
                folded += 1
                continue
            kept.append(Operation(
                kind=_CAST, dest=dest, operands=[chosen],
                constraint=op.constraint,
            ))
            rewritten = True
        else:
            kept.append(op)
    block.ops = kept
    if replacements:
        block.var_writes = {
            var: replacements.get(value, value) if type(value) is VReg else value
            for var, value in block.var_writes.items()
        }
    terminator = block.terminator
    if isinstance(terminator, Branch):
        cond = terminator.cond
        if type(cond) is VReg:
            terminator.cond = cond = replacements.get(cond, cond)
        if type(cond) is Const:
            target = terminator.if_true if cond.value else terminator.if_false
            block.terminator = Jump(target)
            folded += 1
    elif isinstance(terminator, Ret) and type(terminator.value) is VReg:
        terminator.value = replacements.get(terminator.value, terminator.value)
    return folded, rewritten or folded > 0


def fold_constants(cdfg: FunctionCDFG) -> int:
    """Fold constants throughout; returns the number of simplifications."""
    return sum(_fold_block(block)[0] for block in cdfg.blocks)
