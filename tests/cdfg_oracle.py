"""Reference executor for CDFGs, kept as a test oracle.

Runs a :class:`~repro.ir.cdfg.FunctionCDFG` with the register-transfer
semantics the FSMD backend implements (register latches at block exit,
memories with word addressing), but without any notion of clock cycles.
It is the bridge in the validation chain::

    interpreter (language semantics)
        == CDFG executor (lowered semantics)       <- this module
        == FSMD simulator (scheduled hardware)
        == dataflow simulator (asynchronous hardware)

Channel operations are delegated to caller-provided callbacks so tests can
script a rendezvous partner; designs without channels need none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.interp.machine import eval_binary, eval_unary, wrap
from repro.ir.cdfg import BasicBlock, FunctionCDFG
from repro.ir.ops import (
    Branch, Const, Jump, Operand, Operation, OpKind, Ret, VReg, VarRead)
from repro.lang.errors import InterpError
from repro.lang.symtab import Symbol
from repro.lang.types import ArrayType


@dataclass
class CDFGResult:
    value: Optional[int]
    registers: Dict[str, int]
    memories: Dict[str, List[int]]
    blocks_executed: int = 0
    ops_executed: int = 0


class CDFGExecutor:
    def __init__(
        self,
        cdfg: FunctionCDFG,
        args: Sequence[int] = (),
        register_init: Optional[Dict[Symbol, int]] = None,
        memory_init: Optional[Dict[Symbol, List[int]]] = None,
        on_send: Optional[Callable[[Symbol, int], None]] = None,
        on_recv: Optional[Callable[[Symbol], int]] = None,
        max_blocks: int = 1_000_000,
    ):
        self.cdfg = cdfg
        self.max_blocks = max_blocks
        self.on_send = on_send
        self.on_recv = on_recv
        self.registers: Dict[Symbol, int] = {s: 0 for s in cdfg.registers}
        self.memories: Dict[Symbol, List[int]] = {}
        for array in cdfg.arrays:
            assert isinstance(array.type, ArrayType)
            self.memories[array] = [0] * array.type.size
        if register_init:
            for symbol, value in register_init.items():
                self.registers[symbol] = wrap(value, symbol.type)
        if memory_init:
            for symbol, values in memory_init.items():
                words = self.memories.setdefault(
                    symbol, [0] * (symbol.type.size if isinstance(symbol.type, ArrayType) else len(values))
                )
                for i, v in enumerate(values):
                    words[i] = v
        scalar_params = [
            p for p in cdfg.params if not isinstance(p.type, ArrayType)
        ]
        if len(args) != len(scalar_params):
            raise InterpError(
                f"{cdfg.name} expects {len(scalar_params)} scalar arguments,"
                f" got {len(args)}"
            )
        for symbol, value in zip(scalar_params, args):
            self.registers[symbol] = wrap(value, symbol.type)

    # ------------------------------------------------------------------

    def _operand(self, operand: Operand, values: Dict[VReg, int]) -> int:
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, VarRead):
            if operand.var not in self.registers:
                self.registers[operand.var] = 0
            return self.registers[operand.var]
        return values[operand]

    def _exec_op(self, op: Operation, values: Dict[VReg, int],
                 entry_registers: Dict[Symbol, int]) -> None:
        def operand(i: int) -> int:
            o = op.operands[i]
            if isinstance(o, VarRead):
                return entry_registers.get(o.var, 0)
            return self._operand(o, values)

        if op.kind is OpKind.BINARY:
            assert op.dest is not None
            values[op.dest] = eval_binary(op.op, operand(0), operand(1), op.dest.type)
        elif op.kind is OpKind.UNARY:
            assert op.dest is not None
            values[op.dest] = eval_unary(op.op, operand(0), op.dest.type)
        elif op.kind is OpKind.CAST:
            assert op.dest is not None
            values[op.dest] = wrap(operand(0), op.dest.type)
        elif op.kind is OpKind.SELECT:
            assert op.dest is not None
            chosen = operand(1) if operand(0) else operand(2)
            values[op.dest] = wrap(chosen, op.dest.type)
        elif op.kind is OpKind.LOAD:
            assert op.dest is not None and op.array is not None
            memory = self.memories[op.array]
            index = operand(0)
            if not 0 <= index < len(memory):
                raise InterpError(
                    f"load from {op.array.unique_name}[{index}] out of bounds"
                    f" (size {len(memory)})"
                )
            values[op.dest] = memory[index]
        elif op.kind is OpKind.STORE:
            assert op.array is not None
            memory = self.memories[op.array]
            index = operand(0)
            if not 0 <= index < len(memory):
                raise InterpError(
                    f"store to {op.array.unique_name}[{index}] out of bounds"
                    f" (size {len(memory)})"
                )
            memory[index] = operand(1)
        elif op.kind is OpKind.SEND:
            if self.on_send is None:
                raise InterpError("SEND executed without a channel callback")
            assert op.channel is not None
            self.on_send(op.channel, operand(0))
        elif op.kind is OpKind.RECV:
            if self.on_recv is None:
                raise InterpError("RECV executed without a channel callback")
            assert op.dest is not None and op.channel is not None
            values[op.dest] = wrap(self.on_recv(op.channel), op.dest.type)
        elif op.kind in (OpKind.BARRIER, OpKind.DELAY, OpKind.NOP):
            pass
        else:
            raise InterpError(f"executor cannot run {op.kind}")

    def run(self) -> CDFGResult:
        block = self.cdfg.entry
        assert block is not None
        blocks_executed = 0
        ops_executed = 0
        while True:
            blocks_executed += 1
            if blocks_executed > self.max_blocks:
                raise InterpError(
                    f"block budget of {self.max_blocks} exceeded in {self.cdfg.name}"
                )
            values: Dict[VReg, int] = {}
            entry_registers = dict(self.registers)
            for op in block.ops:
                self._exec_op(op, values, entry_registers)
                ops_executed += 1
            # Latch register updates at block exit.
            for var, value in block.var_writes.items():
                raw = (
                    entry_registers.get(value.var, 0)
                    if isinstance(value, VarRead)
                    else self._operand(value, values)
                )
                self.registers[var] = wrap(raw, var.type)
            terminator = block.terminator
            if isinstance(terminator, Jump):
                block = terminator.target
            elif isinstance(terminator, Branch):
                cond = (
                    entry_registers.get(terminator.cond.var, 0)
                    if isinstance(terminator.cond, VarRead)
                    else self._operand(terminator.cond, values)
                )
                block = terminator.if_true if cond else terminator.if_false
            elif isinstance(terminator, Ret):
                value = None
                if terminator.value is not None:
                    raw = (
                        entry_registers.get(terminator.value.var, 0)
                        if isinstance(terminator.value, VarRead)
                        else self._operand(terminator.value, values)
                    )
                    value = wrap(raw, self.cdfg.return_type) if self.cdfg.return_type.bit_width else raw
                return CDFGResult(
                    value=value,
                    registers={s.unique_name: v for s, v in self.registers.items()},
                    memories={s.unique_name: list(v) for s, v in self.memories.items()},
                    blocks_executed=blocks_executed,
                    ops_executed=ops_executed,
                )
            else:
                raise InterpError(f"block {block.label} has no terminator")


def execute(cdfg: FunctionCDFG, args: Sequence[int] = (), **kwargs) -> CDFGResult:
    """Convenience wrapper around :class:`CDFGExecutor`."""
    return CDFGExecutor(cdfg, args=args, **kwargs).run()
