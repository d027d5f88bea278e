"""Combinational netlists — the Cones artifact.

A :class:`CombinationalNetlist` is a pure dataflow: a topologically ordered
list of side-effect-free operations over input symbols and constants.
Arrays have been dissolved into per-element values ("arrays treated as bit
vectors", as the paper says of Cones), loops unrolled, calls inlined,
control flow if-converted — so evaluation is a single pass, and cost is
just the sum of operators (area) and the longest delay path (delay).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..interp.machine import eval_binary, eval_unary, wrap
from ..lang.errors import InterpError
from ..lang.symtab import Symbol
from ..ir.ops import Const, Operand, Operation, OpKind, VReg, VarRead
from ..scheduling.resources import op_width, tech_class
from .tech import DEFAULT_TECH, Technology


@dataclass
class CombinationalNetlist:
    """A flattened, two-level-style combinational block."""

    name: str
    # Scalar inputs (function parameters) in declaration order.
    inputs: List[Symbol] = field(default_factory=list)
    # Per-element inputs for array parameters / initialized global arrays:
    # pseudo-symbols named "arr[i]".
    element_inputs: Dict[Symbol, List[Symbol]] = field(default_factory=dict)
    ops: List[Operation] = field(default_factory=list)
    output: Optional[Operand] = None
    global_outputs: Dict[Symbol, Operand] = field(default_factory=dict)
    array_outputs: Dict[Symbol, List[Operand]] = field(default_factory=dict)
    # Default input values (global initializers) used when the caller
    # supplies none.
    input_defaults: Dict[str, int] = field(default_factory=dict)

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def area_ge(self, tech: Technology = DEFAULT_TECH) -> float:
        price = _priced(tech.area_ge)
        return sum(price(op) for op in self.ops)

    def critical_path_ns(self, tech: Technology = DEFAULT_TECH) -> float:
        delay = _priced(tech.delay_ns)
        finish: Dict[int, float] = {}
        worst = 0.0
        for op in self.ops:
            ready = 0.0
            for operand in op.operands:
                if type(operand) is VReg:
                    arrival = finish.get(operand.id)
                    if arrival is not None and arrival > ready:
                        ready = arrival
            done = ready + delay(op)
            if op.dest is not None:
                finish[op.dest.id] = done
            if done > worst:
                worst = done
        return worst

    def depth(self) -> int:
        """Logic depth in operator levels (CASTs are wires)."""
        level: Dict[int, int] = {}
        worst = 0
        for op in self.ops:
            ready = 0
            for operand in op.operands:
                if isinstance(operand, VReg) and operand.id in level:
                    ready = max(ready, level[operand.id])
            cost = 0 if op.kind is OpKind.CAST else 1
            done = ready + cost
            if op.dest is not None:
                level[op.dest.id] = done
            worst = max(worst, done)
        return worst


def _priced(cost: Callable[[str, int], float]) -> Callable[[Operation], float]:
    """``cost`` per operation, memoized for one walk: an operator's price
    depends only on its kind, operator and width."""
    memo: Dict[Tuple[OpKind, str, int], float] = {}

    def price(op: Operation) -> float:
        width = op_width(op)
        key = (op.kind, op.op, width)
        value = memo.get(key)
        if value is None:
            value = memo[key] = cost(tech_class(op), width)
        return value

    return price


@dataclass
class CombResult:
    value: Optional[int]
    globals: Dict[str, object] = field(default_factory=dict)


def evaluate(
    netlist: CombinationalNetlist,
    args: Sequence[int] = (),
    inputs: Optional[Dict[str, int]] = None,
) -> CombResult:
    """Evaluate the netlist once.

    ``args`` binds the scalar inputs positionally; ``inputs`` overrides any
    input (including array elements, by their "arr[i]" names).
    """
    values: Dict[int, int] = {}
    bound: Dict[str, int] = dict(netlist.input_defaults)
    if len(args) > len(netlist.inputs):
        raise InterpError(
            f"{netlist.name} has {len(netlist.inputs)} inputs,"
            f" got {len(args)} arguments"
        )
    for symbol, value in zip(netlist.inputs, args):
        bound[symbol.unique_name] = wrap(value, symbol.type)
    if inputs:
        bound.update(inputs)

    def read(operand: Operand) -> int:
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, VarRead):
            return bound.get(operand.var.unique_name, 0)
        if operand.id not in values:
            raise InterpError(f"{operand} used before definition")
        return values[operand.id]

    for op in netlist.ops:
        if op.kind is OpKind.BINARY:
            assert op.dest is not None
            values[op.dest.id] = eval_binary(
                op.op, read(op.operands[0]), read(op.operands[1]), op.dest.type
            )
        elif op.kind is OpKind.UNARY:
            assert op.dest is not None
            values[op.dest.id] = eval_unary(op.op, read(op.operands[0]), op.dest.type)
        elif op.kind is OpKind.CAST:
            assert op.dest is not None
            values[op.dest.id] = wrap(read(op.operands[0]), op.dest.type)
        elif op.kind is OpKind.SELECT:
            assert op.dest is not None
            chosen = (
                read(op.operands[1]) if read(op.operands[0]) else read(op.operands[2])
            )
            values[op.dest.id] = wrap(chosen, op.dest.type)
        else:
            raise InterpError(
                f"combinational netlist contains sequential op {op.kind}"
            )

    result = CombResult(
        value=read(netlist.output) if netlist.output is not None else None
    )
    for symbol, operand in netlist.global_outputs.items():
        result.globals[symbol.name] = wrap(read(operand), symbol.type)
    for symbol, elements in netlist.array_outputs.items():
        element_type = symbol.type.element  # type: ignore[union-attr]
        result.globals[symbol.name] = [
            wrap(read(e), element_type) for e in elements
        ]
    return result
