"""Cones (Stroud, Munoz & Pierce, AT&T Bell Labs, 1988).

Table 1: *"Early, combinational only."*  Cones *"synthesized each function
in a combinational block.  Its strict C subset handled conditionals; loops,
which it unrolled; and arrays treated as bit vectors"*, flattening
everything *"into a single two-level network."*

The flow reproduces that pipeline:

1. inline every call;
2. check that full unrolling would expand every loop — a loop whose bound
   the compiler cannot evaluate is a hard error, exactly as in Cones;
3. lower the *rolled* function to a CDFG and run the mid-end on it;
4. unroll and **if-convert by symbolic execution**: walk the CDFG from its
   entry, each path with its own environment of netlist values for every
   variable and array element.  A branch whose condition folds is
   followed, so counted loops unroll (their induction variables stay
   constant).  A data-dependent branch forks the path, and the two arms
   re-merge where their non-returning paths first meet, with one select
   per value that differs.  Arrays dissolve into per-element wires: a
   store with a dynamic index becomes a comparator+mux per element and a
   dynamic load becomes a mux tree — the area explosion the E6 experiment
   measures.

Every operator goes through smart constructors that fold constants with
the shared machine arithmetic, apply the mid-end's algebraic identities
and hash-cons equal operators; a sweep from the outputs then drops what
nothing reads.  Divisors on untaken paths are gated to 1 so the network is
total (hardware computes every cone regardless of the "active" path).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..analysis.lint.diagnostics import (
    RULE_PROCESS,
    RULE_STRUCTURE,
    RULE_UNBOUNDED_LOOP,
)
from ..analysis.pointer import plan_pointers
from ..interp.machine import eval_binary, eval_unary, wrap
from ..lang import ast_nodes as ast
from ..lang.errors import InterpError
from ..lang.semantic import (
    FEATURE_CHANNELS,
    FEATURE_DELAY,
    FEATURE_POINTERS,
    FEATURE_RECURSION,
    FEATURE_WAIT,
    FEATURE_WITHIN,
    SemanticInfo,
)
from ..lang.symtab import Symbol, SymbolKind
from ..lang.types import ArrayType, BOOL, BoolType, IntType, Type
from ..ir import build_function
from ..ir.astutils import fresh_symbol
from ..ir.cdfg import BasicBlock, FunctionCDFG
from ..ir.ops import Branch, Const, Jump, Operand, Operation, OpKind, VReg, VarRead
from ..ir.passes import count_full_unroll, inline_program
from ..ir.passes.constfold import ALGEBRAIC_OPS, algebraic
from ..ir.passes.fixpoint import optimize_cdfg
from ..rtl.combinational import CombinationalNetlist, evaluate
from ..rtl.tech import DEFAULT_TECH, Technology
from ..trace import ensure_trace
from .base import (
    CompiledDesign,
    DesignCost,
    Flow,
    FlowError,
    FlowMetadata,
    FlowResult,
    UnsupportedFeature,
    _roots_of,
)

_KEY = "cones"
_INDEX = IntType(32, signed=False)
_TRUE = Const(1, BOOL)
_BINARY, _UNARY, _CAST, _SELECT, _LOAD, _STORE = (
    OpKind.BINARY, OpKind.UNARY, OpKind.CAST, OpKind.SELECT, OpKind.LOAD,
    OpKind.STORE)


class _Builder:
    """Smart constructors over one netlist's op list: constant folding,
    algebraic identities, select rules and hash-consing."""

    def __init__(self, ops: List[Operation]):
        self.ops = ops
        self._memo: Dict[tuple, VReg] = {}
        self._type_keys: Dict[int, Tuple[Type, str]] = {}
        self._negated: Dict[VReg, Operand] = {}  # "!x" -> x

    def _type_key(self, value_type: Type) -> str:
        entry = self._type_keys.get(id(value_type))
        if entry is None:
            entry = self._type_keys[id(value_type)] = (
                value_type, str(value_type))
        return entry[1]

    def _make(self, kind: OpKind, dest_type: Type, operands: tuple,
              op: str = "") -> VReg:
        type_key = self._type_key
        key = [id(kind), op, type_key(dest_type)]
        for o in operands:
            kind_of = type(o)
            if kind_of is VReg:
                key.append(o.id)
            elif kind_of is Const:
                key.append((o.value, type_key(o.type)))
            else:
                key.append((o.var,))
        key = tuple(key)
        dest = self._memo.get(key)
        if dest is None:
            dest = self._memo[key] = VReg(dest_type)
            self.ops.append(Operation(
                kind=kind, dest=dest, operands=list(operands), op=op))
        return dest

    def binary(self, op: str, a: Operand, b: Operand, dest_type: Type) -> Operand:
        if type(a) is Const and type(b) is Const:
            try:
                return Const(eval_binary(op, a.value, b.value, dest_type),
                             dest_type)
            except InterpError:
                pass  # would trap (e.g. division by zero): left for runtime
        elif op in ALGEBRAIC_OPS:
            simplified = algebraic(op, a, b, dest_type)
            if simplified is not None:
                return simplified
        return self._make(_BINARY, dest_type, (a, b), op)

    def unary(self, op: str, a: Operand, dest_type: Type) -> Operand:
        if type(a) is Const:
            return Const(eval_unary(op, a.value, dest_type), dest_type)
        return self._make(_UNARY, dest_type, (a,), op)

    def cast(self, a: Operand, dest_type: Type) -> Operand:
        if a.type is dest_type or a.type == dest_type:
            return a
        if type(a) is Const:
            return Const(wrap(a.value, dest_type), dest_type)
        return self._make(_CAST, dest_type, (a,))

    def select(self, cond: Operand, a: Operand, b: Operand,
               dest_type: Type) -> Operand:
        if type(cond) is Const:
            return self.cast(a if cond.value else b, dest_type)
        if a is b or (type(a) is Const and a == b):
            return self.cast(a, dest_type)
        return self._make(_SELECT, dest_type, (cond, a, b))

    # -- path conditions: 0/1 values, so "!!x" is x --------------------------

    def truth(self, a: Operand) -> Operand:
        if isinstance(a.type, BoolType):
            return a
        return self.binary("!=", a, Const(0, a.type), BOOL)

    def negate(self, a: Operand) -> Operand:
        if type(a) is Const:
            return Const(int(not a.value), BOOL)
        inner = self._negated.get(a)
        if inner is not None:
            return inner
        result = self._make(_UNARY, BOOL, (a,), "!")
        self._negated[result] = a
        return result

    def both(self, a: Operand, b: Operand) -> Operand:
        if type(b) is Const:
            a, b = b, a
        if type(a) is Const:
            return b if a.value else a
        if a is b:
            return a
        return self._make(_BINARY, BOOL, (a, b), "&&")

    def mux(self, index: Operand, elements: List[Operand],
            result_type: Type) -> Operand:
        if type(index) is Const:
            if 0 <= index.value < len(elements):
                return elements[index.value]
            return Const(0, result_type)
        result: Operand = Const(0, result_type)
        for k, element in enumerate(elements):
            hit = self.binary("==", index, Const(k, _INDEX), BOOL)
            result = self.select(hit, element, result, result_type)
        return result


class _Path:
    """One arm of a fork: the enclosing path and the branch literal.  The
    conjunction is built on first use (only gated divisors need it)."""

    __slots__ = ("parent", "cond", "negated", "value")

    def __init__(self, parent: Optional["_Path"], cond: Operand,
                 negated: bool):
        self.parent = parent
        self.cond = cond
        self.negated = negated
        self.value: Optional[Operand] = None


#: The outputs one path leaves behind: return value, written scalar
#: globals, global array elements.
_Record = Tuple[Optional[Operand], Tuple[Operand, ...], Tuple[List[Operand], ...]]


class _State:
    """One path through the CDFG.  ``alive`` is the condition under which
    it has not returned yet; where it has, ``record`` holds its outputs."""

    __slots__ = ("block", "env", "arrays", "owned", "path", "alive", "record")

    def __init__(self, block: BasicBlock, env: Dict[Symbol, Operand],
                 arrays: Dict[Symbol, List[Operand]], path: Optional[_Path],
                 alive: Operand, record: Optional[_Record]):
        self.block = block
        self.env = env
        self.arrays = arrays
        self.owned: set = set()  # arrays whose element list only this path holds
        self.path = path
        self.alive = alive
        self.record = record

    def fork(self, block: BasicBlock, path: _Path) -> "_State":
        self.owned = set()  # every element list is now shared
        return _State(block, dict(self.env), dict(self.arrays), path,
                      self.alive, self.record)

    def elements(self, array: Symbol) -> List[Operand]:
        """The array's element list, copied first if another path shares it."""
        if array in self.owned:
            return self.arrays[array]
        self.owned.add(array)
        elements = self.arrays[array] = list(self.arrays[array])
        return elements


class _Dead(NamedTuple):
    """A returned path: its outputs where it was alive, ``prior`` elsewhere."""

    alive: Operand
    outputs: _Record
    prior: Optional[_Record]


class _Fork:
    """A data-dependent branch whose arms are being walked: the true arm
    first, then ``other``; a live arm waits at ``join``."""

    __slots__ = ("cond", "join", "other", "parked", "path")

    def __init__(self, cond: Operand, join: Optional[BasicBlock],
                 other: _State, path: Optional[_Path]):
        self.cond = cond
        self.join = join
        self.other: Optional[_State] = other
        self.parked: Optional[_State] = None
        self.path = path


class _Evaluator:
    """Symbolically executes a (rolled) CDFG into one combinational netlist."""

    def __init__(self, cdfg: FunctionCDFG, global_inits: Dict[str, object],
                 max_back_edges: int):
        self.cdfg = cdfg
        self.global_inits = global_inits
        self.netlist = CombinationalNetlist(name=cdfg.name)
        self.build = _Builder(self.netlist.ops)
        self.order = cdfg.reachable_blocks()
        self.rpo = {block.id: i for i, block in enumerate(self.order)}
        self.back_edges_left = max_back_edges
        self._joins: Dict[int, Optional[BasicBlock]] = {}
        self._reach: Optional[Dict[int, set]] = None
        self.out_scalars = [
            s for s in cdfg.registers if s in cdfg.globals_written
        ]
        self.out_arrays = [
            a for a in cdfg.arrays if a.kind is SymbolKind.GLOBAL
        ]

    # -- the walk --------------------------------------------------------------

    def run(self) -> CombinationalNetlist:
        env, arrays = self._initial_environment()
        state = _State(self.order[0], env, arrays, None, _TRUE, None)
        forks: List[_Fork] = []
        build = self.build
        while True:
            block = state.block
            if forks and block is forks[-1].join:
                outcome = state
            else:
                value = self._execute(block, state)
                terminator = block.terminator
                if type(terminator) is Jump:
                    self._goto(state, terminator.target)
                    continue
                if type(terminator) is Branch:
                    if type(value) is Const:
                        self._goto(state, terminator.if_true if value.value
                                   else terminator.if_false)
                        continue
                    cond = build.truth(value)
                    other = state.fork(terminator.if_false,
                                       _Path(state.path, cond, True))
                    forks.append(_Fork(cond, self._join(block), other,
                                       state.path))
                    state.path = _Path(state.path, cond, False)
                    state.block = terminator.if_true
                    continue
                outcome = _Dead(state.alive, self._outputs(state, value),
                                state.record)
            # An arm has finished: parked at its join, or returned.
            if not forks:
                self._finish(outcome)
                return self.netlist
            fork = forks[-1]
            if fork.other is not None:  # the true arm: walk the false one
                state, fork.other = fork.other, None
                if type(outcome) is not _Dead:
                    fork.parked = outcome
                    continue
                self._promote(state, fork.cond, outcome)
            else:
                state = fork.parked
                if type(outcome) is _Dead:
                    self._promote(state, build.negate(fork.cond), outcome)
                else:
                    self._merge(fork.cond, state, outcome)
            forks.pop()
            state.path = fork.path

    def _goto(self, state: _State, target: BasicBlock) -> None:
        if self.rpo[target.id] <= self.rpo[state.block.id]:
            self.back_edges_left -= 1
            if self.back_edges_left < 0:
                raise FlowError(
                    _KEY,
                    f"a loop in {self.cdfg.name} runs past its static trip"
                    " count; Cones unrolls every loop at compile time",
                    rule=RULE_UNBOUNDED_LOOP,
                )
        state.block = target

    def _join(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Where the arms of ``block``'s branch meet again: the earliest
        block both reach without crossing a back edge.  None when an arm
        always returns: the other then never waits for it."""
        if block.id in self._joins:
            return self._joins[block.id]
        if self._reach is None:
            self._reach = {}
            for b in reversed(self.order):
                reach = {b.id}
                for successor in b.successors():
                    if self.rpo[successor.id] > self.rpo[b.id]:
                        reach |= self._reach[successor.id]
                self._reach[b.id] = reach
        terminator = block.terminator
        assert isinstance(terminator, Branch)
        common = (self._reach[terminator.if_true.id]
                  & self._reach[terminator.if_false.id])
        join = (self.order[min(self.rpo[i] for i in common)]
                if common else None)
        self._joins[block.id] = join
        return join

    # -- merging paths ---------------------------------------------------------

    def _merge(self, cond: Operand, taken: _State, other: _State) -> None:
        """Fold ``other`` (the false arm) into ``taken``, both at the join."""
        select = self.build.select
        env = taken.env
        for symbol, a in env.items():
            b = other.env[symbol]
            if a is not b:
                env[symbol] = select(cond, a, b, symbol.type)
        arrays = taken.arrays
        for array, a_list in arrays.items():
            b_list = other.arrays[array]
            if a_list is not b_list:
                element_type = array.type.element  # type: ignore[union-attr]
                arrays[array] = [
                    a if a is b else select(cond, a, b, element_type)
                    for a, b in zip(a_list, b_list)
                ]
                taken.owned.add(array)
        taken.alive = select(cond, taken.alive, other.alive, BOOL)
        taken.record = self._merge_records(cond, taken.record, other.record)

    def _promote(self, state: _State, dead_cond: Operand, dead: _Dead) -> None:
        """The sibling arm under ``dead_cond`` returned: ``state`` now
        stands for both, alive only where that arm was not taken."""
        build = self.build
        if dead.prior is state.record:
            hit = build.both(dead_cond, dead.alive)
            state.record = self._merge_records(hit, dead.outputs, state.record)
        else:
            state.record = self._merge_records(
                dead_cond, self._materialize(dead), state.record)
        state.alive = build.both(state.alive, build.negate(dead_cond))

    def _materialize(self, dead: _Dead) -> _Record:
        return self._merge_records(dead.alive, dead.outputs, dead.prior)

    def _merge_records(self, cond: Operand, a: Optional[_Record],
                       b: Optional[_Record]) -> Optional[_Record]:
        if a is b or b is None:
            return a
        if a is None:
            return b
        select = self.build.select
        a_value, b_value = a[0], b[0]
        if a_value is None or b_value is None or a_value is b_value:
            value = b_value if a_value is None else a_value
        else:
            value = select(cond, a_value, b_value, self.cdfg.return_type)
        scalars = tuple(
            x if x is y else select(cond, x, y, symbol.type)
            for symbol, x, y in zip(self.out_scalars, a[1], b[1]))
        arrays = tuple(
            x_list if x_list is y_list else [
                x if x is y else select(
                    cond, x, y, array.type.element)  # type: ignore[union-attr]
                for x, y in zip(x_list, y_list)]
            for array, x_list, y_list in zip(self.out_arrays, a[2], b[2]))
        return value, scalars, arrays

    def _outputs(self, state: _State, value: Optional[Operand]) -> _Record:
        return (value,
                tuple(state.env[s] for s in self.out_scalars),
                tuple(state.arrays[a] for a in self.out_arrays))

    def _guard(self, state: _State) -> Operand:
        """The condition under which ``state`` is the active path."""
        build = self.build
        pending: List[_Path] = []
        path = state.path
        while path is not None and path.value is None:
            pending.append(path)
            path = path.parent
        value = path.value if path is not None else _TRUE
        for path in reversed(pending):
            literal = build.negate(path.cond) if path.negated else path.cond
            value = path.value = build.both(value, literal)
        return build.both(value, state.alive)

    # -- one block -------------------------------------------------------------

    def _execute(self, block: BasicBlock, state: _State) -> Optional[Operand]:
        """Run ``block``'s ops and latches on ``state``; returns its branch
        condition or return value, read before the latches."""
        build = self.build
        env = state.env
        get = env.get
        values: Dict[int, Operand] = {}  # VReg id -> netlist value

        def read(operand: Operand) -> Operand:
            kind = type(operand)
            if kind is VReg:
                return values[operand.id]
            if kind is VarRead:
                return get(operand.var) or Const(0, operand.type)
            return operand

        for op in block.ops:
            kind = op.kind
            operands = [
                values[o.id] if type(o) is VReg
                else o if type(o) is Const
                else get(o.var) or Const(0, o.type)
                for o in op.operands
            ]
            if kind is _BINARY:
                a, b = operands
                if op.op in ("/", "%") and not (type(b) is Const and b.value):
                    # Gate the divisor so untaken paths cannot trap.
                    b = build.select(self._guard(state), b, Const(1, b.type),
                                     b.type)
                values[op.dest.id] = build.binary(op.op, a, b, op.dest.type)
            elif kind is _SELECT:
                values[op.dest.id] = build.select(*operands, op.dest.type)
            elif kind is _CAST:
                values[op.dest.id] = build.cast(operands[0], op.dest.type)
            elif kind is _UNARY:
                values[op.dest.id] = build.unary(
                    op.op, operands[0], op.dest.type)
            elif kind is _LOAD:
                values[op.dest.id] = build.mux(
                    operands[0], state.arrays[op.array], op.dest.type)
            elif kind is _STORE:
                index, value = operands
                elements = state.elements(op.array)
                if type(index) is Const:
                    if 0 <= index.value < len(elements):
                        elements[index.value] = value
                else:
                    element_type = op.array.type.element
                    for k in range(len(elements)):
                        hit = build.binary("==", index, Const(k, _INDEX), BOOL)
                        elements[k] = build.select(
                            hit, value, elements[k], element_type)
            else:
                raise UnsupportedFeature(
                    _KEY,
                    f"{op.kind.value} has no combinational equivalent",
                    rule=RULE_STRUCTURE,
                    location=op.location,
                )
        terminator = block.terminator
        if type(terminator) is Branch:
            result = read(terminator.cond)
        elif type(terminator) is Jump or terminator.value is None:
            result = None
        else:
            result = read(terminator.value)
        if block.var_writes:
            env.update([(symbol, read(value))
                        for symbol, value in block.var_writes.items()])
        return result

    # -- inputs and outputs ----------------------------------------------------

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

    def _finish(self, dead: _Dead) -> None:
        value, scalars, arrays = self._materialize(dead)
        netlist = self.netlist
        netlist.output = value
        netlist.global_outputs = dict(zip(self.out_scalars, scalars))
        netlist.array_outputs = {
            array: list(elements)
            for array, elements in zip(self.out_arrays, arrays)
        }
        # Keep only what an output reads.
        live = {o.id for o in [value, *scalars, *(e for es in arrays for e in es)]
                if type(o) is VReg}
        kept = []
        for op in reversed(netlist.ops):
            if op.dest.id in live:
                kept.append(op)
                for o in op.operands:
                    if type(o) is VReg:
                        live.add(o.id)
        kept.reverse()
        netlist.ops[:] = kept


class ConesDesign(CompiledDesign):
    def __init__(self, name: str, netlist: CombinationalNetlist,
                 tech: Technology, stats: Dict[str, object]):
        super().__init__(_KEY, name)
        self.netlist = netlist
        self.tech = tech
        self.stats = stats

    @property
    def artifact_kind(self) -> str:
        return "combinational"

    def run(self, args: Sequence[int] = (), process_args=None,
            max_cycles: int = 2_000_000, sim_backend: str = "interp",
            sim_profile=None, trace=None) -> FlowResult:
        # Combinational evaluation has one engine; sim_backend/sim_profile
        # apply to FSMD artifacts and are accepted for interface parity.
        t = ensure_trace(trace)
        with t.span("sim", cat="phase"):
            result = evaluate(self.netlist, args=args)
            t.count(ops=self.netlist.op_count)
        critical = self.netlist.critical_path_ns(self.tech)
        return FlowResult(
            value=result.value,
            cycles=0,  # combinational: no clock at all
            time_ns=critical,
            globals=result.globals,
            stats={"ops": self.netlist.op_count, "depth": self.netlist.depth(),
                   **self.stats},
        )

    def cost(self, tech: Technology = DEFAULT_TECH, trace=None) -> DesignCost:
        t = ensure_trace(trace)
        with t.span("bind", cat="phase"):
            area = self.netlist.area_ge(tech)
            critical = self.netlist.critical_path_ns(tech)
            t.count(functional_units=self.netlist.op_count)
        return DesignCost(
            area_ge=area,
            clock_ns=0.0,
            critical_path_ns=critical,
            states=0,
            registers=0,
            functional_units=self.netlist.op_count,
        )

    def verilog(self, trace=None) -> str:
        from ..rtl.verilog import emit_combinational

        t = ensure_trace(trace)
        with t.span("emit", cat="phase"):
            text = emit_combinational(self.netlist, trace=trace)
        return text


class ConesFlow(Flow):
    metadata = FlowMetadata(
        key=_KEY,
        title="Cones",
        year=1988,
        note="Early, combinational only",
        concurrency="compiler",
        concurrency_detail="flattens each function into a single two-level network",
        timing="none",
        timing_detail="combinational logic only — no clock",
        artifact="combinational",
        reference="Stroud, Munoz & Pierce, IEEE D&T 1988",
    )

    FORBIDDEN = {
        FEATURE_POINTERS: "Cones' strict C subset has no pointers",
        FEATURE_CHANNELS: "Cones is combinational: no channels",
        FEATURE_WAIT: "Cones is combinational: no clock to wait on",
        FEATURE_DELAY: "Cones is combinational: no clock to wait on",
        FEATURE_WITHIN: "Cones has no timing constraints",
        FEATURE_RECURSION: "Cones forbids recursion",
    }

    def compile(
        self,
        program: ast.Program,
        info: SemanticInfo,
        function: str = "main",
        tech: Technology = DEFAULT_TECH,
        max_unroll: int = 4096,
        opt_level: int = 1,
        trace=None,
        **options,
    ) -> CompiledDesign:
        t = ensure_trace(trace)
        with t.span("check", cat="phase"):
            self.check_features(info, _roots_of(program, function))
            if program.processes:
                raise UnsupportedFeature(
                    _KEY,
                    "Cones has no processes",
                    rule=RULE_PROCESS,
                    location=program.processes[0].location,
                )
        with t.span("inline", cat="phase"):
            inlined, inline_stats = inline_program(
                program, info, roots=[function]
            )
            fn = inlined.function(function)
            loops = count_full_unroll(fn, max_iterations=max_unroll)
            t.count(calls_inlined=inline_stats.calls_inlined,
                    loops_unrolled=loops.unrolled)
        if loops.resisted:
            raise FlowError(
                _KEY,
                f"{loops.resisted} loop(s) have bounds the compiler cannot"
                " evaluate; Cones unrolls every loop at compile time",
                rule=RULE_UNBOUNDED_LOOP,
            )
        with t.span("cdfg", cat="phase"):
            with t.span("cdfg.pointer-plan", cat="analysis"):
                plan = plan_pointers(fn)
            cdfg = build_function(fn, info, plan)
            t.count(ops=cdfg.op_count())
        with t.span("passes", cat="phase"):
            optimize_cdfg(cdfg, opt_level=opt_level, trace=trace)
        with t.span("flatten", cat="phase"):
            netlist = _Evaluator(cdfg, info.global_inits,
                                 loops.iterations).run()
            t.count(netlist_ops=netlist.op_count)
        return ConesDesign(
            name=function,
            netlist=netlist,
            tech=tech,
            stats={
                "loops_unrolled": loops.unrolled,
                "calls_inlined": inline_stats.calls_inlined,
            },
        )
