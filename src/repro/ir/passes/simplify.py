"""Control-flow graph cleanup.

* removes blocks that became unreachable (e.g. after a branch folded);
* threads jumps through empty blocks;
* collapses branches whose arms coincide;
* merges straight-line block pairs (single successor / single predecessor),
  rewriting VarReads in the merged tail to the head's latched values so the
  latch-at-exit semantics are preserved.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ...lang.symtab import Symbol
from ..cdfg import BasicBlock, FunctionCDFG
from ..ops import Branch, Jump, Operand, Ret, VReg, VarRead


def _is_trivial(block: BasicBlock) -> bool:
    return not block.ops and not block.var_writes and isinstance(block.terminator, Jump)


def _thread_target(block: BasicBlock) -> BasicBlock:
    """Follow chains of trivial blocks (with cycle protection)."""
    seen = set()
    current = block
    while _is_trivial(current) and current.id not in seen:
        seen.add(current.id)
        assert isinstance(current.terminator, Jump)
        target = current.terminator.target
        if not isinstance(target, BasicBlock) or target is current:
            break
        current = target
    return current


def _retarget(cdfg: FunctionCDFG) -> int:
    changed = 0
    for block in cdfg.blocks:
        terminator = block.terminator
        if isinstance(terminator, Jump):
            threaded = _thread_target(terminator.target)
            if threaded is not terminator.target:
                terminator.target = threaded
                changed += 1
        elif isinstance(terminator, Branch):
            threaded_true = _thread_target(terminator.if_true)
            threaded_false = _thread_target(terminator.if_false)
            if threaded_true is not terminator.if_true:
                terminator.if_true = threaded_true
                changed += 1
            if threaded_false is not terminator.if_false:
                terminator.if_false = threaded_false
                changed += 1
            if terminator.if_true is terminator.if_false:
                block.terminator = Jump(terminator.if_true)
                changed += 1
    if cdfg.entry is not None:
        threaded = _thread_target(cdfg.entry)
        if threaded is not cdfg.entry:
            cdfg.entry = threaded
            changed += 1
    return changed


def _merge_pairs(cdfg: FunctionCDFG, touched: Optional[Set[int]]) -> int:
    merged = 0
    pred_count: Dict[int, int] = {b.id: 0 for b in cdfg.blocks}
    for block in cdfg.blocks:
        for successor in block.successors():
            pred_count[successor.id] = pred_count.get(successor.id, 0) + 1
    removed: set = set()
    for block in cdfg.blocks:
        if block.id in removed:
            continue
        # Chase the whole straight-line chain hanging off this block.
        while True:
            terminator = block.terminator
            if not isinstance(terminator, Jump):
                break
            successor = terminator.target
            if (
                not isinstance(successor, BasicBlock)
                or successor is block
                or successor is cdfg.entry
                or successor.id in removed
                or pred_count.get(successor.id, 0) != 1
            ):
                break
            _merge_into(block, successor)
            removed.add(successor.id)
            merged += 1
            if touched is not None:
                touched.update((block.id, successor.id))
    if removed:
        cdfg.blocks = [b for b in cdfg.blocks if b.id not in removed]
    return merged


def _merge_into(head: BasicBlock, tail: BasicBlock) -> None:
    """Append ``tail`` to ``head``.  Tail VarReads of variables the head
    latched must see the head's latched value (block-entry semantics)."""
    substitution: Dict[Symbol, Operand] = dict(head.var_writes)

    def rewrite(operand: Operand) -> Operand:
        if isinstance(operand, VarRead) and operand.var in substitution:
            return substitution[operand.var]
        return operand

    for op in tail.ops:
        op.operands = [rewrite(o) for o in op.operands]
        head.ops.append(op)
    new_writes = dict(head.var_writes)
    for var, value in tail.var_writes.items():
        new_writes[var] = rewrite(value)
    head.var_writes = new_writes
    terminator = tail.terminator
    if isinstance(terminator, Branch):
        terminator.cond = rewrite(terminator.cond)
    elif isinstance(terminator, Ret) and terminator.value is not None:
        terminator.value = rewrite(terminator.value)
    head.terminator = terminator


def _prune(cdfg: FunctionCDFG, touched: Optional[Set[int]]) -> None:
    before = cdfg.blocks
    cdfg.prune_unreachable()
    if touched is not None and len(cdfg.blocks) != len(before):
        kept = {b.id for b in cdfg.blocks}
        touched.update(b.id for b in before if b.id not in kept)


def simplify_cfg(cdfg: FunctionCDFG,
                 touched: Optional[Set[int]] = None) -> int:
    """Clean the CFG; returns the number of structural changes made.

    ``touched``, if given, collects the ids of the blocks whose contents
    changed (merge heads) and of the blocks removed (merged tails and
    pruned unreachable blocks).
    Retargeting a terminator changes no block's ops, latches or branch
    condition."""
    changed = _retarget(cdfg)
    _prune(cdfg, touched)
    changed += _merge_pairs(cdfg, touched)
    _prune(cdfg, touched)
    return changed
