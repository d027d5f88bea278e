"""Ocapi (Schaumont et al., IMEC, 1998).

Table 1: *"Algorithmic structural descriptions."*  In Ocapi, *"the user's
C++ program runs to generate a data structure that represents hardware"* —
the host language is a metaprogram whose execution *builds* the design from
supplied datapath/FSM classes.

The faithful reproduction is therefore not a C-to-hardware compiler but a
**structural construction API in the host language** (here, Python): the
user's Python program instantiates registers, memories, and states, wires
transitions, and obtains the same simulatable/priceable FSMD artifact every
other flow produces.

Example::

    m = OcapiModule("accumulate")
    n = m.input("n")
    acc, i = m.register("acc"), m.register("i")
    loop, done = m.state("loop"), m.state("done")
    m.entry.latch(acc, m.entry.const(0)).latch(i, m.entry.const(0)).goto(loop)
    loop.latch(acc, loop.add(acc, i)).latch(i, loop.add(i, loop.const(1)))
    loop.branch(loop.lt(i, n), loop, done)
    done.done(done.read(acc))
    design = m.build()
    design.run(args=(10,))

``OcapiFlow.compile`` intentionally refuses C input: Ocapi never parsed C.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..lang import ast_nodes as ast
from ..lang.semantic import SemanticInfo
from ..lang.symtab import Symbol, SymbolKind
from ..lang.types import ArrayType, BOOL, INT, IntType, Type, make_int
from ..ir.ops import Const, Operand, Operation, OpKind, VReg, VarRead
from ..rtl.fsmd import CondNext, Done, FSMD, FSMDSystem, NextState, State
from .base import CompiledDesign, Flow, FlowError, FlowMetadata
from .direct import DirectDesign

_KEY = "ocapi"

Value = Union[Operand, Symbol, int]


class OcapiState:
    """One FSM state under construction.  Arithmetic helpers emit datapath
    operations into this state and return wires usable as operands."""

    def __init__(self, module: "OcapiModule", state: State):
        self.module = module
        self._state = state

    # -- operand coercion ----------------------------------------------------

    def _value(self, value: Value, width: int = 32) -> Operand:
        if isinstance(value, Symbol):
            return VarRead(value)
        if isinstance(value, int):
            return Const(make_int(width, True).wrap(value), make_int(width, True))
        return value

    def const(self, value: int, width: int = 32, signed: bool = True) -> Const:
        int_type = make_int(width, signed)
        return Const(int_type.wrap(value), int_type)

    def read(self, register: Symbol) -> VarRead:
        return VarRead(register)

    # -- datapath operations ---------------------------------------------------

    def _binary(self, op: str, a: Value, b: Value, result_type: Type) -> VReg:
        left, right = self._value(a), self._value(b)
        dest = VReg(result_type)
        self._state.ops.append(
            Operation(kind=OpKind.BINARY, dest=dest, operands=[left, right], op=op)
        )
        return dest

    def add(self, a: Value, b: Value) -> VReg:
        return self._binary("+", a, b, self._result_type(a, b))

    def sub(self, a: Value, b: Value) -> VReg:
        return self._binary("-", a, b, self._result_type(a, b))

    def mul(self, a: Value, b: Value) -> VReg:
        return self._binary("*", a, b, self._result_type(a, b))

    def div(self, a: Value, b: Value) -> VReg:
        return self._binary("/", a, b, self._result_type(a, b))

    def mod(self, a: Value, b: Value) -> VReg:
        return self._binary("%", a, b, self._result_type(a, b))

    def band(self, a: Value, b: Value) -> VReg:
        return self._binary("&", a, b, self._result_type(a, b))

    def bor(self, a: Value, b: Value) -> VReg:
        return self._binary("|", a, b, self._result_type(a, b))

    def bxor(self, a: Value, b: Value) -> VReg:
        return self._binary("^", a, b, self._result_type(a, b))

    def shl(self, a: Value, b: Value) -> VReg:
        return self._binary("<<", a, b, self._result_type(a, b))

    def shr(self, a: Value, b: Value) -> VReg:
        return self._binary(">>", a, b, self._result_type(a, b))

    def eq(self, a: Value, b: Value) -> VReg:
        return self._binary("==", a, b, BOOL)

    def ne(self, a: Value, b: Value) -> VReg:
        return self._binary("!=", a, b, BOOL)

    def lt(self, a: Value, b: Value) -> VReg:
        return self._binary("<", a, b, BOOL)

    def le(self, a: Value, b: Value) -> VReg:
        return self._binary("<=", a, b, BOOL)

    def gt(self, a: Value, b: Value) -> VReg:
        return self._binary(">", a, b, BOOL)

    def ge(self, a: Value, b: Value) -> VReg:
        return self._binary(">=", a, b, BOOL)

    def select(self, cond: Value, if_true: Value, if_false: Value) -> VReg:
        operands = [self._value(cond), self._value(if_true), self._value(if_false)]
        dest = VReg(operands[1].type)
        self._state.ops.append(
            Operation(kind=OpKind.SELECT, dest=dest, operands=operands)
        )
        return dest

    def load(self, memory: Symbol, index: Value) -> VReg:
        assert isinstance(memory.type, ArrayType)
        dest = VReg(memory.type.element)
        self._state.ops.append(
            Operation(kind=OpKind.LOAD, dest=dest,
                      operands=[self._value(index)], array=memory)
        )
        return dest

    def store(self, memory: Symbol, index: Value, value: Value) -> "OcapiState":
        self._state.ops.append(
            Operation(kind=OpKind.STORE,
                      operands=[self._value(index), self._value(value)],
                      array=memory)
        )
        return self

    def _result_type(self, a: Value, b: Value) -> Type:
        for value in (a, b):
            if isinstance(value, Symbol):
                return value.type
            if isinstance(value, (VReg, Const, VarRead)):
                return value.type
        return INT

    # -- sequential behaviour ----------------------------------------------

    def latch(self, register: Symbol, value: Value) -> "OcapiState":
        self._state.latches[register] = self._value(value)
        return self

    def goto(self, target: "OcapiState") -> "OcapiState":
        self._state.transition = NextState(target._state.id)
        return self

    def branch(
        self, cond: Value, if_true: "OcapiState", if_false: "OcapiState"
    ) -> "OcapiState":
        self._state.transition = CondNext(
            cond=self._value(cond),
            if_true=if_true._state.id,
            if_false=if_false._state.id,
        )
        return self

    def done(self, value: Optional[Value] = None) -> "OcapiState":
        self._state.transition = Done(
            self._value(value) if value is not None else None
        )
        return self


class OcapiModule:
    """A hardware module under construction (Ocapi's datapath+FSM pair)."""

    def __init__(self, name: str, return_width: int = 32):
        self.name = name
        self._fsmd = FSMD(name=name, return_type=make_int(return_width, True))
        self._entry: Optional[OcapiState] = None

    # -- storage -----------------------------------------------------------

    def input(self, name: str, width: int = 32, signed: bool = True) -> Symbol:
        symbol = Symbol(name, make_int(width, signed), SymbolKind.PARAM)
        self._fsmd.params.append(symbol)
        self._fsmd.registers.append(symbol)
        return symbol

    def register(self, name: str, width: int = 32, signed: bool = True) -> Symbol:
        symbol = Symbol(name, make_int(width, signed), SymbolKind.LOCAL)
        self._fsmd.registers.append(symbol)
        return symbol

    def memory(self, name: str, size: int, width: int = 32,
               signed: bool = True) -> Symbol:
        symbol = Symbol(
            name, ArrayType(make_int(width, signed), size), SymbolKind.LOCAL
        )
        self._fsmd.arrays.append(symbol)
        return symbol

    # -- control -------------------------------------------------------------

    @property
    def entry(self) -> OcapiState:
        if self._entry is None:
            self._entry = self.state("entry")
            self._fsmd.entry = self._entry._state.id
        return self._entry

    def state(self, label: str = "") -> OcapiState:
        state = State(
            id=len(self._fsmd.states),
            block_id=len(self._fsmd.states),
            step_index=0,
            label=label or f"s{len(self._fsmd.states)}",
        )
        self._fsmd.states.append(state)
        return OcapiState(self, state)

    # -- elaboration -----------------------------------------------------------

    def build(self) -> DirectDesign:
        """Elaborate: running the construction program has produced the
        hardware data structure; wrap it for simulation and costing."""
        if not self._fsmd.states:
            raise FlowError(_KEY, "module has no states")
        for state in self._fsmd.states:
            if state.transition is None:
                raise FlowError(
                    _KEY, f"state {state.label!r} has no transition"
                    " (call goto/branch/done)"
                )
        system = FSMDSystem(fsmds=[self._fsmd])
        return DirectDesign(_KEY, self.name, system)


class OcapiFlow(Flow):
    metadata = FlowMetadata(
        key=_KEY,
        title="Ocapi",
        year=1998,
        note="Algorithmic structural descriptions",
        concurrency="structural",
        concurrency_detail="the host program instantiates parallel structure",
        timing="structural",
        timing_detail="the designer assigns each FSM state a cycle",
        artifact="api",
        reference="Schaumont et al., DAC 1998",
    )

    def compile(
        self,
        program: ast.Program,
        info: SemanticInfo,
        function: str = "main",
        opt_level: int = 1,
        trace=None,
    ) -> CompiledDesign:
        raise FlowError(
            _KEY,
            "Ocapi is not a C compiler: the host program *constructs*"
            " hardware.  Use repro.flows.ocapi.OcapiModule to build a"
            " design structurally.",
        )
