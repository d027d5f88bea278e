"""Resource classes and constraint sets for scheduling and binding.

Operations are classified into functional-unit classes.  A
:class:`ResourceSet` limits how many operations of each class may execute in
one control step — the knob the E9 scheduler ablation sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..ir.ops import Operation, OpKind
from ..rtl import tech as T

# Scheduler resource-class names.
ALU = "alu"          # add/sub/compare/logic, selects
SHIFTER = "shifter"
MULTIPLIER = "mul"
DIVIDER = "div"
MEMORY_PREFIX = "mem:"   # one class per memory: "mem:<array unique name>"
CHANNEL_PREFIX = "chan:"
FREE = "free"        # casts: wires only


def classify(op: Operation) -> str:
    """The resource class an operation competes in."""
    if op.kind is OpKind.BINARY:
        if op.op == "*":
            return MULTIPLIER
        if op.op in ("/", "%"):
            return DIVIDER
        if op.op in ("<<", ">>"):
            return SHIFTER
        return ALU
    if op.kind is OpKind.UNARY:
        return ALU
    if op.kind is OpKind.SELECT:
        return ALU
    if op.kind is OpKind.CAST:
        return FREE
    if op.kind in (OpKind.LOAD, OpKind.STORE):
        assert op.array is not None
        return MEMORY_PREFIX + op.array.unique_name
    if op.kind in (OpKind.SEND, OpKind.RECV):
        assert op.channel is not None
        return CHANNEL_PREFIX + op.channel.unique_name
    return FREE  # BARRIER/DELAY/NOP consume no functional unit


def tech_class(op: Operation) -> str:
    """The technology pricing class for an operation's delay/area."""
    if op.kind is OpKind.BINARY:
        if op.op in ("+", "-"):
            return T.ADD
        if op.op == "*":
            return T.MULTIPLY
        if op.op in ("/", "%"):
            return T.DIVIDE
        if op.op in ("<<", ">>"):
            return T.SHIFT
        if op.op in ("==", "!=", "<", "<=", ">", ">="):
            return T.COMPARE
        return T.LOGIC
    if op.kind is OpKind.UNARY:
        return T.ADD if op.op == "-" else T.LOGIC
    if op.kind is OpKind.SELECT:
        return T.SELECT
    if op.kind is OpKind.CAST:
        return T.CAST
    if op.kind is OpKind.LOAD:
        return T.MEM_READ
    if op.kind is OpKind.STORE:
        return T.MEM_WRITE
    if op.kind in (OpKind.SEND, OpKind.RECV):
        return T.CHANNEL
    return T.CAST


def op_width(op: Operation) -> int:
    """The width the technology model prices this operation at."""
    width = op.dest.type.bit_width if op.dest is not None else None
    for operand in op.operands:
        operand_type = operand.type
        if operand_type is not None:
            bits = operand_type.bit_width
            if width is None or bits > width:
                width = bits
    return 32 if width is None else width


def op_delay_ns(op: Operation, technology: T.Technology = T.DEFAULT_TECH) -> float:
    return technology.delay_ns(tech_class(op), op_width(op))


def op_area_ge(op: Operation, technology: T.Technology = T.DEFAULT_TECH) -> float:
    return technology.area_ge(tech_class(op), op_width(op))


@dataclass
class ResourceSet:
    """Per-step operation limits.

    ``None`` means unlimited.  Memory classes default to ``memory_ports``
    per distinct memory (1 models a single-port RAM — the monolithic-memory
    experiment's bottleneck); channel classes are always 1 (a rendezvous
    port serializes by nature).
    """

    alu: Optional[int] = None
    shifter: Optional[int] = None
    multiplier: Optional[int] = None
    divider: Optional[int] = None
    memory_ports: int = 1
    extra: Dict[str, Optional[int]] = field(default_factory=dict)

    def limit(self, resource_class: str) -> Optional[int]:
        if resource_class in self.extra:
            return self.extra[resource_class]
        if resource_class == ALU:
            return self.alu
        if resource_class == SHIFTER:
            return self.shifter
        if resource_class == MULTIPLIER:
            return self.multiplier
        if resource_class == DIVIDER:
            return self.divider
        if resource_class.startswith(MEMORY_PREFIX):
            return self.memory_ports
        if resource_class.startswith(CHANNEL_PREFIX):
            return 1
        return None  # FREE

    @staticmethod
    def unlimited() -> "ResourceSet":
        """No functional-unit limits; memories still have one port each
        (a RAM's ports are physical, not schedulable)."""
        return ResourceSet()

    @staticmethod
    def typical() -> "ResourceSet":
        """A mid-sized datapath: 2 ALUs, 1 multiplier, 1 divider, 1 shifter."""
        return ResourceSet(alu=2, shifter=1, multiplier=1, divider=1)

    @staticmethod
    def minimal() -> "ResourceSet":
        """The smallest sensible datapath: one of everything."""
        return ResourceSet(alu=1, shifter=1, multiplier=1, divider=1)
