"""Control/data-flow graph structures.

A :class:`FunctionCDFG` holds basic blocks; each :class:`BasicBlock` holds a
DAG of :class:`~repro.ir.ops.Operation` plus the scalar register updates that
latch at block exit (``var_writes``).  This is the classic high-level
synthesis representation: schedulers assign each block's operations to
control steps, binding maps them onto shared functional units, and the FSMD
backend turns (blocks × steps) into a finite-state machine with a datapath.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..lang.errors import SourceLocation
from ..lang.symtab import Symbol
from ..lang.types import IntType, Type
from .ops import Branch, Const, Jump, Operand, Operation, OpKind, Ret, Terminator, VReg, VarRead


class BasicBlock:
    """A straight-line region: a list of operations plus one terminator."""

    _ids = itertools.count()

    def __init__(self, label: str = ""):
        self.id = next(BasicBlock._ids)
        self.label = label or f"bb{self.id}"
        self.ops: List[Operation] = []
        self.terminator: Optional[Terminator] = None
        # Scalar register updates latched at block exit: var -> value operand.
        self.var_writes: Dict[Symbol, Operand] = {}

    def append(self, op: Operation) -> Operation:
        self.ops.append(op)
        return op

    def successors(self) -> List["BasicBlock"]:
        if self.terminator is None:
            return []
        return [b for b in self.terminator.successors() if isinstance(b, BasicBlock)]

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label} ({len(self.ops)} ops)>"

    def dump(self) -> str:
        lines = [f"{self.label}:"]
        for op in self.ops:
            lines.append(f"  {op}")
        for var, value in sorted(self.var_writes.items(), key=lambda kv: kv[0].unique_name):
            lines.append(f"  ${var.unique_name} <- {value}")
        lines.append(f"  {self.terminator}")
        return "\n".join(lines)


@dataclass
class TimingConstraint:
    """A HardwareC-style ``within`` constraint: the tagged operations must be
    scheduled into at most ``cycles`` control steps."""

    group: int
    cycles: int


class FunctionCDFG:
    """The CDFG of one function (or one concurrent process)."""

    def __init__(self, name: str, return_type: Type):
        self.name = name
        self.return_type = return_type
        self.entry: Optional[BasicBlock] = None
        self.blocks: List[BasicBlock] = []
        # Scalar storage (locals, params, and referenced globals) that become
        # datapath registers, and arrays that become memories.
        self.registers: List[Symbol] = []
        self.params: List[Symbol] = []
        self.arrays: List[Symbol] = []
        self.globals_read: Set[Symbol] = set()
        self.globals_written: Set[Symbol] = set()
        # First source site of each global access, for race diagnostics.
        self.global_read_sites: Dict[Symbol, "SourceLocation"] = {}
        self.global_write_sites: Dict[Symbol, "SourceLocation"] = {}
        self.constraints: List[TimingConstraint] = []

    def new_block(self, label: str = "") -> BasicBlock:
        block = BasicBlock(label)
        self.blocks.append(block)
        return block

    def iter_ops(self) -> Iterator[Operation]:
        for block in self.blocks:
            yield from block.ops

    def reachable_blocks(self) -> List[BasicBlock]:
        """Blocks reachable from entry, in reverse-postorder."""
        if self.entry is None:
            return []
        seen: Set[int] = set()
        order: List[BasicBlock] = []

        stack: List[Tuple[BasicBlock, Iterator[BasicBlock]]] = []
        seen.add(self.entry.id)
        stack.append((self.entry, iter(self.entry.successors())))
        postorder: List[BasicBlock] = []
        while stack:
            block, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ.id not in seen:
                    seen.add(succ.id)
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                postorder.append(block)
                stack.pop()
        order = list(reversed(postorder))
        return order

    def prune_unreachable(self) -> None:
        reachable = {b.id for b in self.reachable_blocks()}
        self.blocks = [b for b in self.blocks if b.id in reachable]

    def predecessors(self) -> Dict[int, List[BasicBlock]]:
        preds: Dict[int, List[BasicBlock]] = {b.id: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds.setdefault(succ.id, []).append(block)
        return preds

    def op_count(self) -> int:
        return sum(len(b.ops) for b in self.blocks)

    def dump(self) -> str:
        header = [f"function {self.name}:"]
        if self.params:
            header.append("  params: " + ", ".join(p.unique_name for p in self.params))
        if self.registers:
            header.append(
                "  registers: " + ", ".join(r.unique_name for r in self.registers)
            )
        if self.arrays:
            header.append("  arrays: " + ", ".join(a.unique_name for a in self.arrays))
        body = [b.dump() for b in self.reachable_blocks() or self.blocks]
        return "\n".join(header + body)


@dataclass
class ModuleCDFG:
    """All CDFGs of a program plus shared metadata."""

    functions: Dict[str, FunctionCDFG] = field(default_factory=dict)
    channels: List[Symbol] = field(default_factory=list)
    global_symbols: List[Symbol] = field(default_factory=list)
    global_inits: Dict[str, object] = field(default_factory=dict)

    def function(self, name: str) -> FunctionCDFG:
        if name not in self.functions:
            raise KeyError(f"no CDFG for function {name!r}")
        return self.functions[name]


def operand_vregs(operand: Operand) -> List[VReg]:
    return [operand] if isinstance(operand, VReg) else []


def defs_and_uses(block: BasicBlock) -> Tuple[Set[VReg], Set[VReg]]:
    """VRegs defined and used in a block (for sanity checks)."""
    defs: Set[VReg] = set()
    uses: Set[VReg] = set()
    for op in block.ops:
        if op.dest is not None:
            defs.add(op.dest)
        for operand in op.operands:
            uses.update(operand_vregs(operand))
    if block.terminator is not None:
        if isinstance(block.terminator, Branch):
            uses.update(operand_vregs(block.terminator.cond))
        elif isinstance(block.terminator, Ret) and block.terminator.value is not None:
            uses.update(operand_vregs(block.terminator.value))
    for value in block.var_writes.values():
        uses.update(operand_vregs(value))
    return defs, uses


def _outside(const: Const) -> bool:
    """Whether an integer constant lies outside its own type's range."""
    kind = const.type
    return isinstance(kind, IntType) and kind.wrap(const.value) != const.value


def validate(cdfg: FunctionCDFG) -> None:
    """Structural sanity checks; raises ValueError on malformed graphs.

    Invariants: every block has a terminator; every VReg used in a block is
    defined earlier in the same block (VRegs are block-local wires); every
    integer constant lies in its own type's range.
    """
    for block in cdfg.blocks:
        terminator = block.terminator
        if terminator is None:
            raise ValueError(f"{cdfg.name}/{block.label}: missing terminator")
        defined: Set[VReg] = set()
        for op in block.ops:
            for operand in op.operands:
                if isinstance(operand, Const) and _outside(operand):
                    raise ValueError(
                        f"{cdfg.name}/{block.label}: constant"
                        f" {operand.value} is outside its type {operand.type}"
                    )
                for vreg in operand_vregs(operand):
                    if vreg not in defined:
                        raise ValueError(
                            f"{cdfg.name}/{block.label}: {op} uses {vreg}"
                            " before definition"
                        )
            if op.dest is not None:
                defined.add(op.dest)
        tail = list(block.var_writes.values())
        if isinstance(terminator, Branch):
            tail.append(terminator.cond)
        elif isinstance(terminator, Ret) and terminator.value is not None:
            tail.append(terminator.value)
        for operand in tail:
            if isinstance(operand, Const) and _outside(operand):
                raise ValueError(
                    f"{cdfg.name}/{block.label}: constant {operand.value}"
                    f" is outside its type {operand.type}"
                )
        _, uses = defs_and_uses(block)
        stray = uses - defined
        if stray:
            raise ValueError(
                f"{cdfg.name}/{block.label}: terminator or latch uses"
                f" undefined vregs {sorted(str(v) for v in stray)}"
            )
