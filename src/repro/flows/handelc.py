"""Handel-C (Embedded Solutions / Celoxica, 1998-2003).

Table 1: *"C with CSP (Celoxica)."*  The survey's purest implicit timing
rule — *"In Handel-C, only assignment and delay statements take a clock
cycle"* — plus OCCAM-style ``par`` blocks and rendezvous channels.

The flow is **syntax-directed**, as the real compiler was: it builds the
FSM straight from the AST, without a scheduler.

* Every assignment / delay / send / receive is one state = one clock.
* Control constructs take **zero** cycles: their tests are lowered into the
  *predecessor* state's logic as a combinational decision tree, reading the
  in-flight (D-input) values of anything that state latches — so a loop's
  exit test sees the assignment that just happened, exactly as Handel-C's
  enable-chain hardware does.  A loop whose body contains no
  cycle-consuming statement would be a combinational cycle and is rejected.
* ``par`` runs straight-line branches in lockstep: the k-th assignments of
  all branches share one state (the branches are statically race-free).
  Two channel operations cannot share a state; the later branch's is
  staggered one cycle, mirroring the serialization a real compiler inserts
  for a shared channel interface.

Expressions are pure combinational hardware, so ``&&``/``||``/``?:``
evaluate **eagerly** (gates always compute) — a semantic departure from C
that Handel-C's own manual documents.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.lint.diagnostics import (
    RULE_COMB_CYCLE,
    RULE_STRUCTURE,
    RULE_WITHIN,
)
from ..lang import ast_nodes as ast
from ..lang.errors import SemanticError, SourceLocation
from ..lang.semantic import (
    FEATURE_POINTERS,
    FEATURE_RECURSION,
    FEATURE_WITHIN,
    SemanticInfo,
)
from ..lang.symtab import Symbol, SymbolKind
from ..lang.types import ArrayType, BOOL, ChannelType, IntType, PointerType
from ..ir.ops import Const, Operand, Operation, OpKind, VReg, VarRead
from ..ir.passes import inline_program
from ..rtl.fsmd import CondNext, Done, FSMD, FSMDSystem, NextState, State
from ..trace import ensure_trace
from .base import CompiledDesign, Flow, FlowMetadata, UnsupportedFeature
from .direct import DirectDesign

_KEY = "handelc"


# ---------------------------------------------------------------------------
# Control-graph nodes (the pre-FSM representation)
# ---------------------------------------------------------------------------

_node_ids = itertools.count()


@dataclass
class _Node:
    id: int = field(default_factory=lambda: next(_node_ids), init=False)


@dataclass
class _Action(_Node):
    """One clock cycle: combinational ops plus register/memory effects."""

    ops: List[Operation] = field(default_factory=list)
    latches: Dict[Symbol, Operand] = field(default_factory=dict)
    succ: Optional[_Node] = None
    state_id: Optional[int] = None

    def has_channel_op(self) -> bool:
        return any(op.kind in (OpKind.SEND, OpKind.RECV) for op in self.ops)


@dataclass
class _Decision(_Node):
    cond: ast.Expr = None  # type: ignore[assignment]
    on_true: Optional[_Node] = None
    on_false: Optional[_Node] = None


@dataclass
class _Join(_Node):
    succ: Optional[_Node] = None


@dataclass
class _Return(_Node):
    value: Optional[ast.Expr] = None


Fragment = Tuple[_Node, _Join]


class _HandelCBuilder:
    """Builds one process's FSMD from its (inlined) AST."""

    def __init__(self, fn: ast.FunctionDef):
        self.fn = fn
        self.loop_stack: List[Tuple[_Join, _Node]] = []  # (break join, continue node)
        # Lockstep ``par`` merges that put accesses to one memory — at least
        # one a write — from *different* branches into the same cycle.  The
        # frontend already rejects write-write races on whole variables, but
        # write-read array overlap slips through and contends for the RAM
        # port; the TIM202 checker rule predicts exactly this count.
        self.par_memory_conflicts = 0
        self.par_conflict_sites: List[SourceLocation] = []

    # -- expression lowering -------------------------------------------------

    def _lower(
        self, expr: ast.Expr, ops: List[Operation],
        subst: Optional[Dict[Symbol, Operand]] = None,
    ) -> Operand:
        subst = subst or {}
        if isinstance(expr, ast.IntLiteral):
            assert expr.type is not None
            return Const(expr.value, expr.type)
        if isinstance(expr, ast.BoolLiteral):
            return Const(int(expr.value), BOOL)
        if isinstance(expr, ast.Identifier):
            symbol: Symbol = expr.symbol  # type: ignore[attr-defined]
            if isinstance(symbol.type, ArrayType):
                raise UnsupportedFeature(
                    _KEY, "array used as a scalar value",
                    rule=RULE_STRUCTURE, location=expr.location,
                )
            if symbol in subst:
                return self._as_latched(subst, symbol)
            return VarRead(symbol)
        if isinstance(expr, ast.UnaryOp):
            operand = self._lower(expr.operand, ops, subst)
            assert expr.type is not None
            dest = VReg(expr.type)
            ops.append(Operation(kind=OpKind.UNARY, dest=dest, operands=[operand],
                                 op=expr.op))
            return dest
        if isinstance(expr, ast.BinaryOp):
            # Hardware gates always compute: eager && and ||.
            left = self._lower(expr.left, ops, subst)
            right = self._lower(expr.right, ops, subst)
            assert expr.type is not None
            dest = VReg(expr.type)
            ops.append(Operation(kind=OpKind.BINARY, dest=dest,
                                 operands=[left, right], op=expr.op))
            return dest
        if isinstance(expr, ast.Conditional):
            cond = self._lower(expr.cond, ops, subst)
            then_value = self._lower(expr.then, ops, subst)
            else_value = self._lower(expr.otherwise, ops, subst)
            assert expr.type is not None
            dest = VReg(expr.type)
            ops.append(Operation(kind=OpKind.SELECT, dest=dest,
                                 operands=[cond, then_value, else_value]))
            return dest
        if isinstance(expr, ast.ArrayIndex):
            base = expr.base
            if not isinstance(base, ast.Identifier):
                raise UnsupportedFeature(
                    _KEY, "only named arrays are indexable",
                    rule=RULE_STRUCTURE, location=expr.location,
                )
            array: Symbol = base.symbol  # type: ignore[attr-defined]
            index = self._lower(expr.index, ops, subst)
            assert expr.type is not None
            dest = VReg(expr.type)
            ops.append(Operation(kind=OpKind.LOAD, dest=dest, operands=[index],
                                 array=array, location=expr.location))
            return dest
        if isinstance(expr, ast.Receive):
            raise UnsupportedFeature(
                _KEY, "recv(c) must stand alone: use `x = recv(c);`"
                      " (Handel-C's `c ? x`)",
                rule=RULE_STRUCTURE, location=expr.location,
            )
        if isinstance(expr, ast.Call):
            raise UnsupportedFeature(
                _KEY, "calls must be inlined first",
                rule=RULE_STRUCTURE, location=expr.location,
            )
        raise UnsupportedFeature(
            _KEY, f"cannot lower {type(expr).__name__}",
            rule=RULE_STRUCTURE, location=expr.location,
        )

    # -- statements ------------------------------------------------------------

    def _empty_fragment(self) -> Fragment:
        join = _Join()
        return join, join

    def _action_fragment(self, action: _Action) -> Fragment:
        join = _Join()
        action.succ = join
        return action, join

    def compile_stmt(self, stmt: ast.Stmt) -> Fragment:
        if isinstance(stmt, ast.Block):
            return self._sequence([self.compile_stmt(s) for s in stmt.statements])
        if isinstance(stmt, ast.VarDecl):
            return self._compile_decl(stmt)
        if isinstance(stmt, ast.Assign):
            return self._compile_assign(stmt)
        if isinstance(stmt, ast.ExprStmt):
            if isinstance(stmt.expr, ast.Receive):
                action = _Action()
                channel: Symbol = stmt.expr.symbol  # type: ignore[attr-defined]
                dest = VReg(channel.type.element)  # type: ignore[union-attr]
                action.ops.append(
                    Operation(kind=OpKind.RECV, dest=dest, channel=channel,
                              location=stmt.location)
                )
                return self._action_fragment(action)
            return self._empty_fragment()  # pure expressions cost nothing
        if isinstance(stmt, ast.If):
            decision = _Decision(cond=stmt.cond)
            then_entry, then_tail = self.compile_stmt(stmt.then)
            join = _Join()
            decision.on_true = then_entry
            then_tail.succ = join
            if stmt.otherwise is not None:
                else_entry, else_tail = self.compile_stmt(stmt.otherwise)
                decision.on_false = else_entry
                else_tail.succ = join
            else:
                decision.on_false = join
            return decision, join
        if isinstance(stmt, ast.While):
            decision = _Decision(cond=stmt.cond)
            join = _Join()
            self.loop_stack.append((join, decision))
            body_entry, body_tail = self.compile_stmt(stmt.body)
            self.loop_stack.pop()
            decision.on_true = body_entry
            decision.on_false = join
            body_tail.succ = decision
            return decision, join
        if isinstance(stmt, ast.DoWhile):
            decision = _Decision(cond=stmt.cond)
            join = _Join()
            self.loop_stack.append((join, decision))
            body_entry, body_tail = self.compile_stmt(stmt.body)
            self.loop_stack.pop()
            body_tail.succ = decision
            decision.on_true = body_entry
            decision.on_false = join
            return body_entry, join
        if isinstance(stmt, ast.For):
            fragments: List[Fragment] = []
            if stmt.init is not None:
                fragments.append(self.compile_stmt(stmt.init))
            decision = _Decision(
                cond=stmt.cond if stmt.cond is not None else _true_literal()
            )
            join = _Join()
            step_anchor = _Join()
            self.loop_stack.append((join, step_anchor))
            body_entry, body_tail = self.compile_stmt(stmt.body)
            self.loop_stack.pop()
            if stmt.step is not None:
                step_entry, step_tail = self.compile_stmt(stmt.step)
            else:
                step_entry, step_tail = self._empty_fragment()
            decision.on_true = body_entry
            decision.on_false = join
            body_tail.succ = step_anchor
            step_anchor.succ = step_entry
            step_tail.succ = decision
            loop_fragment: Fragment = (decision, join)
            fragments.append(loop_fragment)
            return self._sequence(fragments)
        if isinstance(stmt, ast.Break):
            entry = _Join()
            entry.succ = self.loop_stack[-1][0]
            return entry, _Join()  # dangling tail: code after break is dead
        if isinstance(stmt, ast.Continue):
            entry = _Join()
            entry.succ = self.loop_stack[-1][1]
            return entry, _Join()
        if isinstance(stmt, ast.Return):
            entry = _Join()
            entry.succ = _Return(value=stmt.value)
            return entry, _Join()
        if isinstance(stmt, ast.Par):
            return self._compile_par(stmt)
        if isinstance(stmt, ast.Seq):
            return self.compile_stmt(stmt.body)
        if isinstance(stmt, ast.Wait):
            return self._action_fragment(_Action())
        if isinstance(stmt, ast.Delay):
            fragments = [
                self._action_fragment(_Action()) for _ in range(max(stmt.cycles, 1))
            ]
            return self._sequence(fragments)
        if isinstance(stmt, ast.Send):
            action = _Action()
            channel: Symbol = stmt.symbol  # type: ignore[attr-defined]
            value = self._lower(stmt.value, action.ops)
            action.ops.append(
                Operation(kind=OpKind.SEND, operands=[value], channel=channel,
                          location=stmt.location)
            )
            return self._action_fragment(action)
        if isinstance(stmt, ast.Within):
            raise UnsupportedFeature(
                _KEY, "Handel-C has no timing constraints: timing is the"
                      " one-cycle-per-assignment rule itself",
                rule=RULE_WITHIN, location=stmt.location,
            )
        raise UnsupportedFeature(
            _KEY, f"cannot compile {type(stmt).__name__}",
            rule=RULE_STRUCTURE, location=stmt.location,
        )

    def _sequence(self, fragments: List[Fragment]) -> Fragment:
        if not fragments:
            return self._empty_fragment()
        entry, tail = fragments[0]
        for next_entry, next_tail in fragments[1:]:
            tail.succ = next_entry
            tail = next_tail
        return entry, tail

    @staticmethod
    def _as_latched(subst: Dict[Symbol, Operand], symbol: Symbol) -> Operand:
        """What this state's transition reads for ``symbol``, which the
        state latches: a constant wrapped into the register's type, as the
        register holds it.  (Other values are read as latched, unwrapped:
        the corpus pins that as ``mismatch--ac771e7ffb68``.)"""
        value = subst[symbol]
        if isinstance(value, Const) and isinstance(symbol.type, IntType):
            wrapped = symbol.type.wrap(value.value)
            if wrapped != value.value:
                return Const(wrapped, symbol.type)
        return value

    def _compile_decl(self, decl: ast.VarDecl) -> Fragment:
        symbol: Symbol = decl.symbol  # type: ignore[attr-defined]
        if isinstance(symbol.type, ArrayType):
            fragments: List[Fragment] = []
            element = symbol.type.element
            for i, expr in enumerate(decl.array_init or []):
                action = _Action()
                value = self._lower(expr, action.ops)
                if value.type != element:
                    cast = VReg(element)
                    action.ops.append(
                        Operation(kind=OpKind.CAST, dest=cast, operands=[value])
                    )
                    value = cast
                action.ops.append(
                    Operation(kind=OpKind.STORE,
                              operands=[Const(i, _index_type()), value],
                              array=symbol, location=decl.location)
                )
                fragments.append(self._action_fragment(action))
            return self._sequence(fragments)
        if decl.init is None:
            return self._empty_fragment()  # registers power up at zero
        action = _Action()
        if isinstance(decl.init, ast.Receive):
            channel: Symbol = decl.init.symbol  # type: ignore[attr-defined]
            value: Operand = VReg(channel.type.element)  # type: ignore[union-attr]
            action.ops.append(
                Operation(kind=OpKind.RECV, dest=value, channel=channel,
                          location=decl.location)
            )
        else:
            value = self._lower(decl.init, action.ops)
        action.latches[symbol] = value
        return self._action_fragment(action)

    def _compile_assign(self, assign: ast.Assign) -> Fragment:
        action = _Action()
        if isinstance(assign.target, ast.Identifier):
            symbol: Symbol = assign.target.symbol  # type: ignore[attr-defined]
            if isinstance(assign.value, ast.Receive):
                channel: Symbol = assign.value.symbol  # type: ignore[attr-defined]
                dest = VReg(channel.type.element)  # type: ignore[union-attr]
                action.ops.append(
                    Operation(kind=OpKind.RECV, dest=dest, channel=channel,
                              location=assign.location)
                )
                action.latches[symbol] = dest
            else:
                action.latches[symbol] = self._lower(assign.value, action.ops)
            return self._action_fragment(action)
        if isinstance(assign.target, ast.ArrayIndex):
            base = assign.target.base
            if not isinstance(base, ast.Identifier):
                raise UnsupportedFeature(
                    _KEY, "only named arrays are assignable",
                    rule=RULE_STRUCTURE, location=assign.location,
                )
            array: Symbol = base.symbol  # type: ignore[attr-defined]
            index = self._lower(assign.target.index, action.ops)
            if isinstance(assign.value, ast.Receive):
                channel = assign.value.symbol  # type: ignore[attr-defined]
                value: Operand = VReg(channel.type.element)  # type: ignore[union-attr]
                action.ops.append(
                    Operation(kind=OpKind.RECV, dest=value, channel=channel,
                              location=assign.location)
                )
            else:
                value = self._lower(assign.value, action.ops)
            element = array.type.element  # type: ignore[union-attr]
            if value.type != element:
                cast = VReg(element)
                action.ops.append(
                    Operation(kind=OpKind.CAST, dest=cast, operands=[value])
                )
                value = cast
            action.ops.append(
                Operation(kind=OpKind.STORE, operands=[index, value],
                          array=array, location=assign.location)
            )
            return self._action_fragment(action)
        raise UnsupportedFeature(
            _KEY, "unsupported assignment target",
            rule=RULE_STRUCTURE, location=assign.location,
        )

    # -- par --------------------------------------------------------------

    def _compile_par(self, par: ast.Par) -> Fragment:
        chains: List[List[_Action]] = []
        for branch in par.branches:
            entry, tail = self.compile_stmt(branch)
            chains.append(self._linearize(entry, tail, par.location))
        merged: List[_Action] = []
        pending = [list(chain) for chain in chains]
        while any(pending):
            combined = _Action()
            used_channel = False
            # array -> [(branch index, is_write, op location)] this cycle.
            cycle_memory: Dict[Symbol, List[Tuple[int, bool, object]]] = {}
            for branch_index, queue in enumerate(pending):
                if not queue:
                    continue
                head = queue[0]
                if head.has_channel_op():
                    if used_channel:
                        continue  # stagger: this branch waits a cycle
                    used_channel = True
                for op in head.ops:
                    if op.is_memory() and op.array is not None:
                        cycle_memory.setdefault(op.array, []).append(
                            (branch_index, op.kind is OpKind.STORE, op.location)
                        )
                combined.ops.extend(head.ops)
                for symbol, value in head.latches.items():
                    combined.latches[symbol] = value
                queue.pop(0)
            for array, accesses in cycle_memory.items():
                branches = {b for b, _, _ in accesses}
                if len(branches) > 1 and any(w for _, w, _ in accesses):
                    self.par_memory_conflicts += 1
                    site = next(
                        (loc for _, write, loc in accesses
                         if write and loc is not None),
                        par.location,
                    )
                    self.par_conflict_sites.append(site)
            merged.append(combined)
        return self._sequence([self._action_fragment(a) for a in merged]) \
            if merged else self._empty_fragment()

    def _linearize(
        self, entry: _Node, tail: _Join, location: SourceLocation
    ) -> List[_Action]:
        """A par branch must be a straight-line chain of actions."""
        actions: List[_Action] = []
        node: Optional[_Node] = entry
        seen = set()
        while node is not None and node is not tail:
            if node.id in seen:
                raise UnsupportedFeature(
                    _KEY, "par branches must be straight-line code",
                    rule=RULE_STRUCTURE, location=location,
                )
            seen.add(node.id)
            if isinstance(node, _Action):
                actions.append(node)
                node = node.succ
            elif isinstance(node, _Join):
                node = node.succ
            else:
                raise UnsupportedFeature(
                    _KEY,
                    "par branches must be straight-line code (no control"
                    " flow inside par; put loops in a process instead)",
                    rule=RULE_STRUCTURE, location=location,
                )
        return actions

    # -- FSM construction ---------------------------------------------------

    def build(self) -> FSMD:
        entry_action = _Action()  # function prologue: one activation cycle
        body_entry, body_tail = self.compile_stmt(self.fn.body)
        entry_action.succ = body_entry
        body_tail.succ = _Return(value=None)

        actions = self._collect_actions(entry_action)
        fsmd = FSMD(
            name=self.fn.name,
            return_type=self.fn.return_type,
            tolerant_memory=True,
        )
        for index, action in enumerate(actions):
            action.state_id = index
        for action in actions:
            state = State(
                id=action.state_id,  # type: ignore[arg-type]
                block_id=action.state_id,  # type: ignore[arg-type]
                step_index=0,
                ops=action.ops,
                latches=dict(action.latches),
                label=f"hc{action.state_id}",
            )
            fsmd.states.append(state)
        for action in actions:
            state = fsmd.states[action.state_id]  # type: ignore[index]
            subst = dict(action.latches)
            state.transition = self._resolve(action.succ, state, subst, set())
        fsmd.entry = 0
        self._collect_storage(fsmd)
        return fsmd

    def _collect_actions(self, entry: _Action) -> List[_Action]:
        ordered: List[_Action] = []
        seen = set()
        work: List[_Node] = [entry]
        while work:
            node = work.pop(0)
            if node is None or node.id in seen:
                continue
            seen.add(node.id)
            if isinstance(node, _Action):
                ordered.append(node)
                work.append(node.succ)
            elif isinstance(node, _Join):
                work.append(node.succ)
            elif isinstance(node, _Decision):
                work.append(node.on_true)
                work.append(node.on_false)
            # _Return: terminal
        return ordered

    def _resolve(
        self,
        node: Optional[_Node],
        state: State,
        subst: Dict[Symbol, Operand],
        visiting: set,
    ):
        if node is None:
            raise SemanticError(
                "dangling control edge in Handel-C graph (unreachable code"
                " after break/continue/return?)",
                self.fn.location,
            )
        if isinstance(node, _Action):
            return NextState(node.state_id)  # type: ignore[arg-type]
        if isinstance(node, _Return):
            if node.value is None:
                return Done(None)
            value = self._lower(node.value, state.ops, subst)
            return Done(value)
        if node.id in visiting:
            raise UnsupportedFeature(
                _KEY,
                "zero-time loop: a loop body must contain at least one"
                " assignment or delay (otherwise the hardware is a"
                " combinational cycle)",
                rule=RULE_COMB_CYCLE,
                location=(
                    node.cond.location
                    if isinstance(node, _Decision)
                    else self.fn.location
                ),
            )
        visiting = visiting | {node.id}
        if isinstance(node, _Join):
            return self._resolve(node.succ, state, subst, visiting)
        if isinstance(node, _Decision):
            cond = self._lower(node.cond, state.ops, subst)
            true_arm = self._resolve(node.on_true, state, subst, visiting)
            false_arm = self._resolve(node.on_false, state, subst, visiting)
            return CondNext(cond=cond, if_true=true_arm, if_false=false_arm)
        raise SemanticError(f"unknown node {type(node).__name__}", self.fn.location)

    def _collect_storage(self, fsmd: FSMD) -> None:
        registers: Dict[Symbol, None] = {}
        arrays: Dict[Symbol, None] = {}
        for param in self.fn.params:
            symbol: Symbol = param.symbol  # type: ignore[attr-defined]
            if isinstance(symbol.type, ArrayType):
                arrays.setdefault(symbol, None)
            elif not isinstance(symbol.type, (ChannelType, PointerType)):
                registers.setdefault(symbol, None)
            fsmd.params.append(symbol)
        for state in fsmd.states:
            for symbol in state.latches:
                registers.setdefault(symbol, None)
            for op in state.ops:
                if op.array is not None:
                    arrays.setdefault(op.array, None)
                for operand in op.operands:
                    if isinstance(operand, VarRead):
                        registers.setdefault(operand.var, None)
            self._transition_reads(state.transition, registers)
        fsmd.registers = list(registers)
        fsmd.arrays = list(arrays)

    def _transition_reads(self, transition, registers: Dict[Symbol, None]) -> None:
        if isinstance(transition, CondNext):
            if isinstance(transition.cond, VarRead):
                registers.setdefault(transition.cond.var, None)
            self._transition_reads(transition.if_true, registers)
            self._transition_reads(transition.if_false, registers)
        elif isinstance(transition, Done):
            if isinstance(transition.value, VarRead):
                registers.setdefault(transition.value.var, None)


def _true_literal() -> ast.Expr:
    literal = ast.BoolLiteral(value=True)
    literal.type = BOOL
    return literal


def _index_type():
    from ..lang.types import IntType

    return IntType(32, signed=False)


# ---------------------------------------------------------------------------
# Design wrapper and the flow class
# ---------------------------------------------------------------------------


class HandelCFlow(Flow):
    metadata = FlowMetadata(
        key=_KEY,
        title="Handel-C",
        year=1998,
        note="C with CSP (Celoxica)",
        concurrency="explicit",
        concurrency_detail="par statement groups and OCCAM-like rendezvous",
        timing="implicit-rule",
        timing_detail="every assignment and delay takes exactly one cycle",
        artifact="fsmd",
        reference="Celoxica, Handel-C Language Reference Manual RM-1003-4.0",
    )

    FORBIDDEN = {
        FEATURE_POINTERS: "Handel-C has no pointers",
        FEATURE_WITHIN: "Handel-C has no timing constraints",
        FEATURE_RECURSION: "Handel-C forbids recursion",
    }

    def compile(
        self,
        program: ast.Program,
        info: SemanticInfo,
        function: str = "main",
        opt_level: int = 1,
        trace=None,
    ) -> CompiledDesign:
        t = ensure_trace(trace)
        roots = self.check(program, info, function, trace)
        with t.span("inline", cat="phase"):
            inlined, inline_stats = inline_program(program, info, roots=roots)
            t.count(calls_inlined=inline_stats.calls_inlined)
        fsmds: List[FSMD] = []
        par_memory_conflicts = 0
        par_conflict_sites: List[SourceLocation] = []
        # Handel-C is syntax-directed: the AST maps straight to states, so
        # the build step plays the cdfg+schedule phases in one.
        with t.span("cdfg", cat="phase"):
            for fn in inlined.functions:
                builder = _HandelCBuilder(fn)
                fsmds.append(builder.build())
                par_memory_conflicts += builder.par_memory_conflicts
                par_conflict_sites += builder.par_conflict_sites
            t.count(states=sum(f.n_states for f in fsmds))
        system = FSMDSystem.of_program(program, info, fsmds, function)
        return DirectDesign(
            flow_key=_KEY,
            name=function,
            system=system,
            stats={
                "calls_inlined": inline_stats.calls_inlined,
                "par_memory_conflicts": par_memory_conflicts,
                "par_conflict_sites": par_conflict_sites,
            },
        )
