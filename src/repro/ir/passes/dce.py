"""Dead-code elimination.

Two levels:

* **operation level** — a pure operation whose result feeds nothing
  (transitively) is deleted;
* **register level** — a scalar variable that is never read anywhere in the
  function, is not a global, and is not the return value, has its latches
  deleted, which in turn exposes more dead operations.

Both levels run as one reference-counted worklist: every VReg (within its
block) and every variable carries a count of the reads still standing,
and deleting an item drops the counts it held, so each op and latch is
visited a constant number of times.  Items that only feed each other
(``x <- x + 1`` with no other read of ``x``) keep their counts and stay,
as a repeated whole-function sweep would also leave them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Set, Tuple

from ...lang.symtab import Symbol, SymbolKind
from ..cdfg import BasicBlock, FunctionCDFG
from ..ops import Branch, Operand, Operation, Ret, VReg, VarRead


def _terminator_operands(block: BasicBlock) -> List[Operand]:
    terminator = block.terminator
    if isinstance(terminator, Branch):
        return [terminator.cond]
    if isinstance(terminator, Ret) and terminator.value is not None:
        return [terminator.value]
    return []


def eliminate_dead_code(cdfg: FunctionCDFG) -> int:
    """Remove dead operations and dead register latches; returns the total
    number of items deleted."""
    # A VReg is a wire local to its block, so its uses and its defining
    # ops are keyed by (block id, vreg); variables are function-wide.
    wire_uses: Counter = Counter()
    var_reads: Counter = Counter()
    defs: Dict[Tuple[int, VReg], List[Operation]] = {}
    writers: Dict[Symbol, List[BasicBlock]] = {}

    def count(block: BasicBlock, operand: Operand, step: int) -> None:
        if isinstance(operand, VReg):
            wire_uses[block.id, operand] += step
        elif isinstance(operand, VarRead):
            var_reads[operand.var] += step

    pure: List[Tuple[BasicBlock, Operation]] = []
    for block in cdfg.blocks:
        for op in block.ops:
            for operand in op.operands:
                count(block, operand, 1)
            if not op.has_side_effect():
                pure.append((block, op))
                if op.dest is not None:
                    defs.setdefault((block.id, op.dest), []).append(op)
        for operand in _terminator_operands(block):
            count(block, operand, 1)
        for var, value in block.var_writes.items():
            count(block, value, 1)
            writers.setdefault(var, []).append(block)

    kept = {s for s in cdfg.registers if s.kind is SymbolKind.GLOBAL}
    kept.update(cdfg.params)
    dead_ops = [(block, op) for block, op in pure
                if op.dest is None or not wire_uses[block.id, op.dest]]
    dead_vars = [var for var in writers
                 if var not in kept and not var_reads[var]]

    def release(block: BasicBlock, operand: Operand) -> None:
        count(block, operand, -1)
        if isinstance(operand, VReg):
            if not wire_uses[block.id, operand]:
                dead_ops.extend((block, op)
                                for op in defs.get((block.id, operand), ()))
        elif isinstance(operand, VarRead):
            var = operand.var
            if not var_reads[var] and var not in kept and var in writers:
                dead_vars.append(var)

    deleted: Set[int] = set()
    latches = 0
    while dead_ops or dead_vars:
        if dead_vars:
            var = dead_vars.pop()
            for block in writers.pop(var, ()):
                latches += 1
                release(block, block.var_writes.pop(var))
            continue
        block, op = dead_ops.pop()
        if id(op) not in deleted:
            deleted.add(id(op))
            for operand in op.operands:
                release(block, operand)
    for block in cdfg.blocks:
        block.ops = [op for op in block.ops if id(op) not in deleted]
    written = {var for block in cdfg.blocks for var in block.var_writes}
    cdfg.registers = [
        s
        for s in cdfg.registers
        if var_reads[s] or s.kind is SymbolKind.GLOBAL
        or s in cdfg.params or s in written
    ]
    return latches + len(deleted)
