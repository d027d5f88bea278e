"""Backward liveness analysis over the CDFG.

Scalar variables live in registers; every :class:`~repro.ir.ops.VarRead`
yields the value the register held at *block entry* (the builder rewrites
intra-block read-after-write into direct VReg uses), and every entry in
``var_writes`` latches at *block exit*.  That makes block-level gen/kill
sets trivial to compute:

* ``USE[B]`` — every variable appearing as a ``VarRead`` anywhere in the
  block (operation operands, latch values, the terminator).  All such
  reads are upward-exposed by construction.
* ``DEF[B]`` — the keys of ``var_writes``: the registers the block
  overwrites at exit.

The classic backward dataflow then iterates to a fixed point over the
reachable blocks in reverse-postorder:

    live_out[B] = union(live_in[S] for S in succ(B))
    live_in[B]  = USE[B] | (live_out[B] - DEF[B])

Per-operation def/use helpers are exported for passes that reason at
operation granularity (a pass deleting an op can ask exactly which
registers and wires it touched).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set

from ..lang.symtab import Symbol
from .cdfg import BasicBlock, FunctionCDFG
from .ops import Branch, Operand, Operation, Ret, Terminator, VReg, VarRead


def op_def(op: Operation) -> Optional[VReg]:
    """The wire an operation defines, if any."""
    return op.dest


def op_vreg_uses(op: Operation) -> Set[VReg]:
    """Wires an operation reads."""
    return {o for o in op.operands if isinstance(o, VReg)}


def op_var_uses(op: Operation) -> Set[Symbol]:
    """Registers an operation reads (always the block-entry value)."""
    return {o.var for o in op.operands if isinstance(o, VarRead)}


def _terminator_operands(terminator: Optional[Terminator]):
    if isinstance(terminator, Branch):
        yield terminator.cond
    elif isinstance(terminator, Ret) and terminator.value is not None:
        yield terminator.value


def block_use_def(block: BasicBlock) -> "tuple[Set[Symbol], Set[Symbol]]":
    """Block-level (USE, DEF) register sets."""
    use: Set[Symbol] = set()

    def note(operand: Operand) -> None:
        if isinstance(operand, VarRead):
            use.add(operand.var)

    for op in block.ops:
        for operand in op.operands:
            note(operand)
    for value in block.var_writes.values():
        note(value)
    for operand in _terminator_operands(block.terminator):
        note(operand)
    return use, set(block.var_writes)


@dataclass
class LivenessInfo:
    """Per-block live-variable sets, keyed by block id.

    Only blocks reachable from entry are analyzed; unreachable blocks have
    no entry in the maps (treat them as "everything live" or — better —
    prune them first).
    """

    live_in: Dict[int, FrozenSet[Symbol]] = field(default_factory=dict)
    live_out: Dict[int, FrozenSet[Symbol]] = field(default_factory=dict)
    use: Dict[int, FrozenSet[Symbol]] = field(default_factory=dict)
    defs: Dict[int, FrozenSet[Symbol]] = field(default_factory=dict)
    iterations: int = 0

    def pressure(self) -> int:
        """Peak number of simultaneously live variables at block borders:
        how many architectural registers the design needs at once."""
        borders = list(self.live_in.values()) + list(self.live_out.values())
        return max((len(live) for live in borders), default=0)


def compute_liveness(cdfg: FunctionCDFG) -> LivenessInfo:
    """Backward dataflow to a fixed point over the reachable blocks."""
    blocks = cdfg.reachable_blocks()
    info = LivenessInfo()
    use: Dict[int, Set[Symbol]] = {}
    defs: Dict[int, Set[Symbol]] = {}
    live_in: Dict[int, Set[Symbol]] = {}
    live_out: Dict[int, Set[Symbol]] = {}
    for block in blocks:
        use[block.id], defs[block.id] = block_use_def(block)
        live_in[block.id] = set(use[block.id])
        live_out[block.id] = set()

    # Reverse-postorder backwards converges in O(loop depth) sweeps.
    changed = True
    while changed:
        changed = False
        info.iterations += 1
        for block in reversed(blocks):
            out: Set[Symbol] = set()
            for succ in block.successors():
                out |= live_in.get(succ.id, set())
            inn = use[block.id] | (out - defs[block.id])
            if out != live_out[block.id] or inn != live_in[block.id]:
                live_out[block.id] = out
                live_in[block.id] = inn
                changed = True

    for block in blocks:
        info.live_in[block.id] = frozenset(live_in[block.id])
        info.live_out[block.id] = frozenset(live_out[block.id])
        info.use[block.id] = frozenset(use[block.id])
        info.defs[block.id] = frozenset(defs[block.id])
    return info
