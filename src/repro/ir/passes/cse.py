"""Common-subexpression elimination within basic blocks.

Pure operations (arithmetic, casts, selects) with identical operands are
merged.  Loads participate too, versioned by the store/fence history of
their memory: two loads from the same address with no intervening store to
that memory (or fence) collapse into one — the basic memory-reuse
optimization an HLS compiler needs for array-heavy kernels.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..cdfg import BasicBlock, FunctionCDFG
from ..ops import Branch, Const, Operand, OpKind, Ret, VReg, VarRead


def _operand_key(operand: Operand) -> Tuple:
    if isinstance(operand, Const):
        return ("const", operand.value, str(operand.type))
    if isinstance(operand, VarRead):
        return ("var", operand.var.unique_name)
    return ("vreg", operand.id)


_BINARY, _UNARY, _CAST, _SELECT, _LOAD, _STORE = (
    OpKind.BINARY, OpKind.UNARY, OpKind.CAST, OpKind.SELECT, OpKind.LOAD,
    OpKind.STORE)


def _cse_block(block: BasicBlock) -> Tuple[int, bool]:
    """CSE one block; returns the eliminated count and whether the block
    changed."""
    eliminated = 0
    # Pure-op keys and load keys live in separate tables, so a fence
    # drops every memoized load at once.  Operand keys inline
    # ``_operand_key``'s identity: a VReg by itself, a VarRead by its
    # register, a Const by value and type.
    table: Dict[Tuple, VReg] = {}
    loads: Dict[Tuple, VReg] = {}
    replacements: Dict[VReg, VReg] = {}
    memory_version: Dict[str, int] = {}
    type_names: Dict[int, str] = {}
    kept = []

    for op in block.ops:
        operands = op.operands
        if replacements:
            op.operands = operands = [
                replacements.get(o, o) if type(o) is VReg else o
                for o in operands
            ]
        kind = op.kind
        dest = op.dest
        is_load = kind is _LOAD and op.array is not None
        if dest is not None and (
                is_load or kind is _BINARY or kind is _UNARY
                or kind is _CAST or kind is _SELECT):
            keys = []
            for o in operands:
                cls = type(o)
                if cls is VReg:
                    keys.append(o)
                elif cls is VarRead:
                    keys.append(o.var.unique_name)
                else:
                    name = type_names.get(id(o.type))
                    if name is None:
                        name = type_names[id(o.type)] = str(o.type)
                    keys.append((o.value, name))
            dest_type = dest.type
            dest_name = type_names.get(id(dest_type))
            if dest_name is None:
                dest_name = type_names[id(dest_type)] = str(dest_type)
            if is_load:
                array = op.array.unique_name
                key = (array, memory_version.get(array, 0), dest_name,
                       tuple(keys))
                memo = loads
            else:
                key = (kind, op.op, dest_name, tuple(keys))
                memo = table
            existing = memo.get(key)
            if existing is not None and (existing.type is dest_type
                                         or existing.type == dest_type):
                replacements[dest] = existing
                eliminated += 1
                continue
            memo[key] = dest
        elif kind is _STORE and op.array is not None:
            array = op.array.unique_name
            memory_version[array] = memory_version.get(array, 0) + 1
        elif op.is_fence():
            for name in list(memory_version):
                memory_version[name] += 1
            # Fences also invalidate every memoized load (conservative).
            loads = {}
        kept.append(op)

    if not eliminated:
        return 0, False
    block.ops = kept
    block.var_writes = {
        var: replacements.get(value, value) if type(value) is VReg else value
        for var, value in block.var_writes.items()
    }
    terminator = block.terminator
    if isinstance(terminator, Branch) and type(terminator.cond) is VReg:
        terminator.cond = replacements.get(terminator.cond, terminator.cond)
    elif isinstance(terminator, Ret) and type(terminator.value) is VReg:
        terminator.value = replacements.get(terminator.value, terminator.value)
    return eliminated, True


def eliminate_common_subexpressions(cdfg: FunctionCDFG) -> int:
    """Run block-local CSE; returns the number of operations removed."""
    return sum(_cse_block(block)[0] for block in cdfg.blocks)
