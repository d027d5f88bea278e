"""IR operations and operands.

A function is lowered into a control/data-flow graph (CDFG): basic blocks of
dataflow operations connected by control-flow terminators.  Operands are:

* :class:`Const` — an immediate;
* :class:`VReg` — a value computed earlier in the *same* block (a wire);
* :class:`VarRead` — the value a scalar variable's register held at *block
  entry* (the builder rewrites intra-block read-after-write into direct VReg
  uses, so VarRead is always the entry value).

Scalar variable updates are collected per block in ``var_writes`` and latch
at block exit, which is exactly the register-transfer semantics the FSMD
backend implements.
"""

from __future__ import annotations

import enum
import itertools
from _thread import _local
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..lang.errors import SourceLocation
from ..lang.symtab import Symbol
from ..lang.types import Type


class OpKind(enum.Enum):
    BINARY = "binary"      # attr op: + - * / % & | ^ << >> == != < <= > >= && ||
    UNARY = "unary"        # attr op: - ~ !
    CAST = "cast"          # wrap operand into dest's type (free in hardware)
    SELECT = "select"      # operands: cond, if_true, if_false
    LOAD = "load"          # operands: index; attr array
    STORE = "store"        # operands: index, value; attr array
    CALL = "call"          # operands: args; attr callee
    SEND = "send"          # operands: value; attr channel
    RECV = "recv"          # attr channel
    BARRIER = "barrier"    # wait(): forces a control-step boundary
    DELAY = "delay"        # attr cycles: forces N idle control steps
    NOP = "nop"


@dataclass(frozen=True)
class Const:
    """An immediate operand."""

    value: int
    type: Type

    def __str__(self) -> str:
        return f"#{self.value}"


class _Numbering(_local):
    """The value-id counter of the compile running on this thread.
    (``_thread._local`` is ``threading.local``; a compile already has
    ``_thread`` loaded, not ``threading``.)  Outside any compile (a VReg
    built by hand) ids come from the shared class default."""

    ids: Iterator[int] = itertools.count()


_numbering = _Numbering()


@contextmanager
def numbering() -> Iterator[None]:
    """Number the values made inside from ``%0``, so a compile's IR text
    does not depend on what the process compiled before.  The counter
    belongs to the calling thread: compiles on other threads keep their
    own, and a nested compile leaves the enclosing one's count alone."""
    outer = _numbering.ids
    _numbering.ids = itertools.count()
    try:
        yield
    finally:
        _numbering.ids = outer


@dataclass(frozen=True, eq=False)
class VReg:
    """A block-local value (a wire between operations).

    VRegs that a schedule splits across control steps are materialized as
    carrier registers by the binding stage.
    """

    type: Type
    hint: str = ""
    id: int = field(default_factory=lambda: next(_numbering.ids))

    def __str__(self) -> str:
        suffix = f".{self.hint}" if self.hint else ""
        return f"%{self.id}{suffix}"

    def __hash__(self) -> int:
        return self.id

    def __eq__(self, other: object) -> bool:
        return self is other


@dataclass(frozen=True)
class VarRead:
    """The value of a scalar variable's register at block entry."""

    var: Symbol

    @property
    def type(self) -> Type:
        return self.var.type

    def __str__(self) -> str:
        return f"${self.var.unique_name}"


Operand = Union[Const, VReg, VarRead]


_op_ids = itertools.count()


@dataclass(eq=False)
class Operation:
    """One dataflow operation inside a basic block."""

    kind: OpKind
    dest: Optional[VReg] = None
    operands: List[Operand] = field(default_factory=list)
    op: str = ""                      # BINARY/UNARY operator spelling
    array: Optional[Symbol] = None    # LOAD/STORE target memory
    channel: Optional[Symbol] = None  # SEND/RECV channel
    callee: str = ""                  # CALL target
    cycles: int = 0                   # DELAY count
    constraint: Optional[int] = None  # `within` group id, if any
    location: Optional[SourceLocation] = None  # source statement, if known
    id: int = field(default_factory=lambda: next(_op_ids))

    def __hash__(self) -> int:
        return self.id

    @property
    def result_type(self) -> Optional[Type]:
        return self.dest.type if self.dest is not None else None

    def uses(self) -> List[Operand]:
        return list(self.operands)

    def is_memory(self) -> bool:
        return self.kind in (OpKind.LOAD, OpKind.STORE)

    def is_fence(self) -> bool:
        """Fences pin program order: synchronization and timing ops."""
        return self.kind in (OpKind.SEND, OpKind.RECV, OpKind.BARRIER,
                             OpKind.DELAY, OpKind.CALL)

    def has_side_effect(self) -> bool:
        return self.kind in (OpKind.STORE, OpKind.SEND, OpKind.RECV,
                             OpKind.BARRIER, OpKind.DELAY, OpKind.CALL)

    def __str__(self) -> str:
        parts: List[str] = []
        if self.dest is not None:
            parts.append(f"{self.dest} = ")
        name = self.kind.value
        if self.kind is OpKind.BINARY or self.kind is OpKind.UNARY:
            name = self.op
        elif self.kind is OpKind.LOAD:
            name = f"load {self.array.unique_name if self.array else '?'}"
        elif self.kind is OpKind.STORE:
            name = f"store {self.array.unique_name if self.array else '?'}"
        elif self.kind is OpKind.CALL:
            name = f"call {self.callee}"
        elif self.kind in (OpKind.SEND, OpKind.RECV):
            name = f"{self.kind.value} {self.channel.unique_name if self.channel else '?'}"
        elif self.kind is OpKind.DELAY:
            name = f"delay {self.cycles}"
        operand_text = ", ".join(str(o) for o in self.operands)
        suffix = f" [within#{self.constraint}]" if self.constraint is not None else ""
        return "".join(parts) + f"{name}({operand_text})" + suffix


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


@dataclass
class Jump:
    target: "object"  # BasicBlock; typed loosely to avoid a circular import

    def successors(self) -> List["object"]:
        return [self.target]

    def __str__(self) -> str:
        return f"jump {getattr(self.target, 'label', '?')}"


@dataclass
class Branch:
    cond: Operand
    if_true: "object"
    if_false: "object"

    def successors(self) -> List["object"]:
        return [self.if_true, self.if_false]

    def __str__(self) -> str:
        return (
            f"branch {self.cond} ? {getattr(self.if_true, 'label', '?')}"
            f" : {getattr(self.if_false, 'label', '?')}"
        )


@dataclass
class Ret:
    value: Optional[Operand] = None

    def successors(self) -> List["object"]:
        return []

    def __str__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret"


Terminator = Union[Jump, Branch, Ret]
