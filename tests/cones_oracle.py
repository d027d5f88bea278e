"""The Cones pipeline before symbolic execution, kept as a test oracle.

It fully unrolls every loop on the AST (:func:`try_full_unroll`), lowers
the unrolled function, runs the mid-end on it and if-converts the acyclic
CDFG block by block in topological order (``_Flattener``).  The flow now
evaluates the rolled CDFG instead; ``tests/test_cones_oracle.py`` checks
it against this pipeline at every compile, and ``tests/test_passes.py``
runs this pipeline to feed the unrolled CDFGs to the mid-end.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.lint.diagnostics import (
    RULE_COMB_CYCLE,
    RULE_PROCESS,
    RULE_STRUCTURE,
    RULE_UNBOUNDED_LOOP,
)
from repro.analysis.pointer import plan_pointers
from repro.flows.base import FlowError, UnsupportedFeature, _roots_of
from repro.ir import build_function
from repro.ir.astutils import fresh_symbol
from repro.ir.cdfg import BasicBlock, FunctionCDFG
from repro.ir.ops import (
    Branch, Const, Jump, Operand, Operation, OpKind, Ret, VReg, VarRead)
from repro.ir.passes import inline_program, try_full_unroll
from repro.ir.passes.fixpoint import optimize_cdfg
from repro.lang.symtab import Symbol, SymbolKind
from repro.lang.types import ArrayType, BOOL, IntType
from repro.rtl.combinational import CombinationalNetlist

_KEY = "cones"
_INDEX = IntType(32, signed=False)


def _oracle_cones(flow, program, info, function="main", max_unroll=4096,
                  opt_level=1):
    """(netlist, loops unrolled) from the unroll-then-flatten pipeline,
    or the FlowError it raises."""
    flow.check_features(info, _roots_of(program, function))
    if program.processes:
        raise UnsupportedFeature(
            _KEY, "Cones has no processes", rule=RULE_PROCESS,
            location=program.processes[0].location)
    inlined, _stats = inline_program(program, info, roots=[function])
    fn, unrolled, resisted = try_full_unroll(
        inlined.function(function), max_iterations=max_unroll)
    if resisted:
        raise FlowError(
            _KEY,
            f"{resisted} loop(s) have bounds the compiler cannot"
            " evaluate; Cones unrolls every loop at compile time",
            rule=RULE_UNBOUNDED_LOOP,
        )
    cdfg = build_function(fn, info, plan_pointers(fn))
    optimize_cdfg(cdfg, opt_level=opt_level)
    return _Flattener(cdfg, info.global_inits).flatten(), unrolled


class _Flattener:
    """If-converts an acyclic CDFG into one combinational netlist."""

    def __init__(self, cdfg: FunctionCDFG, global_inits: Dict[str, object]):
        self.cdfg = cdfg
        self.global_inits = global_inits
        self.netlist = CombinationalNetlist(name=cdfg.name)
        self.ops = self.netlist.ops

    # -- op emission ---------------------------------------------------------

    def _emit(self, kind: OpKind, dest_type, operands: List[Operand], **attrs) -> VReg:
        dest = VReg(dest_type)
        self.ops.append(Operation(kind=kind, dest=dest, operands=operands, **attrs))
        return dest

    def _and(self, a: Operand, b: Operand) -> Operand:
        if isinstance(a, Const):
            return b if a.value else a
        if isinstance(b, Const):
            return a if b.value else b
        return self._emit(OpKind.BINARY, BOOL, [a, b], op="&&")

    def _or(self, a: Operand, b: Operand) -> Operand:
        if isinstance(a, Const):
            return a if a.value else b
        if isinstance(b, Const):
            return b if b.value else a
        return self._emit(OpKind.BINARY, BOOL, [a, b], op="||")

    def _not(self, a: Operand) -> Operand:
        if isinstance(a, Const):
            return Const(int(not a.value), BOOL)
        return self._emit(OpKind.UNARY, BOOL, [a], op="!")

    def _select(self, cond: Operand, a: Operand, b: Operand, result_type) -> Operand:
        if isinstance(cond, Const):
            return a if cond.value else b
        if a is b:
            return a
        return self._emit(OpKind.SELECT, result_type, [cond, a, b])

    # -- environments ----------------------------------------------------------

    def flatten(self) -> CombinationalNetlist:
        order = self.cdfg.reachable_blocks()
        position = {block.id: i for i, block in enumerate(order)}
        for block in order:
            for successor in block.successors():
                if position[successor.id] <= position[block.id]:
                    raise FlowError(
                        _KEY,
                        f"loop survived unrolling ({block.label} ->"
                        f" {successor.label}); Cones requires statically"
                        " bounded loops",
                        rule=RULE_COMB_CYCLE,
                    )
        entry_env, entry_arrays = self._initial_environment()
        # Per block: (path_cond, var env, array env) after merging preds.
        incoming: Dict[int, List[Tuple[Operand, Dict, Dict]]] = {order[0].id: [
            (Const(1, BOOL), entry_env, entry_arrays)
        ]}
        result: Optional[Operand] = None
        result_cond: Optional[Operand] = None
        final_envs: List[Tuple[Operand, Dict, Dict]] = []
        for block in order:
            merged_cond, env, arrays = self._merge(incoming.get(block.id, []))
            env, arrays, values = self._execute_block(block, merged_cond, env, arrays)

            def read_out(operand):
                if isinstance(operand, VReg):
                    return values[operand]
                return self._read(operand, env)

            terminator = block.terminator
            if isinstance(terminator, Jump):
                incoming.setdefault(terminator.target.id, []).append(
                    (merged_cond, env, arrays)
                )
            elif isinstance(terminator, Branch):
                cond = read_out(terminator.cond)
                taken = self._and(merged_cond, self._bool(cond))
                not_taken = self._and(merged_cond, self._not(self._bool(cond)))
                incoming.setdefault(terminator.if_true.id, []).append(
                    (taken, env, arrays)
                )
                incoming.setdefault(terminator.if_false.id, []).append(
                    (not_taken, env, arrays)
                )
            elif isinstance(terminator, Ret):
                if terminator.value is not None:
                    value = read_out(terminator.value)
                    if result is None:
                        result = value
                        result_cond = merged_cond
                    else:
                        result = self._select(
                            merged_cond, value, result, self.cdfg.return_type
                        )
                final_envs.append((merged_cond, env, arrays))
        self.netlist.output = result
        self._merge_outputs(final_envs)
        return self.netlist

    def _bool(self, operand: Operand) -> Operand:
        if isinstance(operand.type, type(BOOL)):
            return operand
        return self._emit(
            OpKind.BINARY, BOOL, [operand, Const(0, operand.type)], op="!="
        )

    def _initial_environment(self) -> Tuple[Dict, Dict]:
        env: Dict[Symbol, Operand] = {}
        arrays: Dict[Symbol, List[Operand]] = {}
        for symbol in self.cdfg.registers:
            if symbol in self.cdfg.params:
                self.netlist.inputs.append(symbol)
                env[symbol] = VarRead(symbol)
            elif symbol.kind is SymbolKind.GLOBAL:
                env[symbol] = VarRead(symbol)
                init = self.global_inits.get(symbol.name, 0)
                self.netlist.input_defaults[symbol.unique_name] = (
                    init if isinstance(init, int) else 0
                )
            else:
                env[symbol] = Const(0, symbol.type)
        for array in self.cdfg.arrays:
            assert isinstance(array.type, ArrayType)
            if array.kind is SymbolKind.GLOBAL or array in self.cdfg.params:
                elements: List[Operand] = []
                element_symbols: List[Symbol] = []
                init = self.global_inits.get(array.name)
                for i in range(array.type.size):
                    element = fresh_symbol(
                        f"{array.name}[{i}]", array.type.element
                    )
                    element_symbols.append(element)
                    elements.append(VarRead(element))
                    default = 0
                    if isinstance(init, list) and i < len(init):
                        default = init[i]
                    self.netlist.input_defaults[element.unique_name] = default
                self.netlist.element_inputs[array] = element_symbols
                arrays[array] = elements
            else:
                arrays[array] = [
                    Const(0, array.type.element) for _ in range(array.type.size)
                ]
        return env, arrays

    def _merge(self, sources: List[Tuple[Operand, Dict, Dict]]):
        if not sources:
            # Unreachable block in a pruned CDFG: dead environment.
            return Const(0, BOOL), {}, {}
        cond, env, arrays = sources[0]
        env = dict(env)
        arrays = {k: list(v) for k, v in arrays.items()}
        for other_cond, other_env, other_arrays in sources[1:]:
            # Order-preserving unions: Symbol hashing is identity-based, so
            # a set union here would make netlist op order (and hence the
            # emitted RTL) vary run to run.
            for symbol in [*env, *(s for s in other_env if s not in env)]:
                a = env.get(symbol, Const(0, symbol.type))
                b = other_env.get(symbol, Const(0, symbol.type))
                env[symbol] = self._select(other_cond, b, a, symbol.type)
            for array in [*arrays,
                          *(a for a in other_arrays if a not in arrays)]:
                element_type = array.type.element  # type: ignore[union-attr]
                current = arrays.get(array, [])
                incoming = other_arrays.get(array, current)
                arrays[array] = [
                    self._select(other_cond, b, a, element_type)
                    for a, b in zip(current, incoming)
                ]
            cond = self._or(cond, other_cond)
        return cond, env, arrays

    def _read(self, operand: Operand, env: Dict[Symbol, Operand]) -> Operand:
        if isinstance(operand, VarRead):
            return env.get(operand.var, Const(0, operand.var.type))
        return operand

    def _execute_block(self, block: BasicBlock, path_cond, env, arrays):
        env = dict(env)
        arrays = {k: list(v) for k, v in arrays.items()}
        values: Dict[VReg, Operand] = {}

        def read(operand: Operand) -> Operand:
            if isinstance(operand, VReg):
                return values[operand]
            return self._read(operand, env)

        for op in block.ops:
            if op.kind in (OpKind.BINARY, OpKind.UNARY, OpKind.CAST, OpKind.SELECT):
                operands = [read(o) for o in op.operands]
                if op.kind is OpKind.BINARY and op.op in ("/", "%"):
                    # Gate the divisor so untaken paths cannot trap.
                    operands[1] = self._select(
                        path_cond, operands[1], Const(1, operands[1].type),
                        operands[1].type,
                    )
                assert op.dest is not None
                values[op.dest] = self._emit(
                    op.kind, op.dest.type, operands, op=op.op
                )
            elif op.kind is OpKind.LOAD:
                assert op.dest is not None and op.array is not None
                index = read(op.operands[0])
                elements = arrays[op.array]
                values[op.dest] = self._mux_tree(index, elements, op.dest.type)
            elif op.kind is OpKind.STORE:
                assert op.array is not None
                index = read(op.operands[0])
                value = read(op.operands[1])
                elements = arrays[op.array]
                element_type = op.array.type.element  # type: ignore[union-attr]
                if isinstance(index, Const):
                    if 0 <= index.value < len(elements):
                        elements[index.value] = self._select(
                            path_cond, value, elements[index.value], element_type
                        )
                else:
                    for k in range(len(elements)):
                        hit = self._emit(
                            OpKind.BINARY, BOOL, [index, Const(k, _INDEX)], op="=="
                        )
                        guarded = self._and(path_cond, hit)
                        elements[k] = self._select(
                            guarded, value, elements[k], element_type
                        )
            else:
                raise UnsupportedFeature(
                    _KEY,
                    f"{op.kind.value} has no combinational equivalent",
                    rule=RULE_STRUCTURE,
                    location=op.location,
                )
        for symbol, value in block.var_writes.items():
            new_value = read(value)
            old_value = env.get(symbol, Const(0, symbol.type))
            env[symbol] = self._select(path_cond, new_value, old_value, symbol.type)
        return env, arrays, values

    def _mux_tree(self, index: Operand, elements: List[Operand], result_type):
        if isinstance(index, Const):
            if 0 <= index.value < len(elements):
                return elements[index.value]
            return Const(0, result_type)
        result: Operand = Const(0, result_type)
        for k, element in enumerate(elements):
            hit = self._emit(
                OpKind.BINARY, BOOL, [index, Const(k, _INDEX)], op="=="
            )
            result = self._select(hit, element, result, result_type)
        return result

    def _merge_outputs(self, final_envs: List[Tuple[Operand, Dict, Dict]]) -> None:
        if not final_envs:
            return
        _, env, arrays = self._merge(final_envs) if len(final_envs) > 1 else final_envs[0]
        for symbol in self.cdfg.globals_written:
            if isinstance(symbol.type, ArrayType):
                continue
            if symbol in env:
                self.netlist.global_outputs[symbol] = env[symbol]
        for array in self.cdfg.arrays:
            if array.kind is SymbolKind.GLOBAL and array in arrays:
                self.netlist.array_outputs[array] = list(arrays[array])
