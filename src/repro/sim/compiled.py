"""Exec-compiled FSMD simulation backend.

The interpreter in :mod:`fsmd_sim` pays for its generality every cycle:
each :class:`Operation` goes through ``OpKind`` dispatch, every operand
read hashes a ``Symbol`` or ``VReg`` into a dict, arithmetic re-derives
its width from the destination type, and rendezvous-dependent values are
signalled by raising ``_ValueNotReady``.  None of that depends on the
cycle being simulated — only on the state — so this backend specialises
each :class:`FSMDSystem` **once** into a single generated Python function
that runs a whole simulation:

* every scalar register, global, cross-state wire and memory handle is a
  local variable of that function, named when the code is generated;
* states are dispatched inside one ``while True`` loop, by a balanced
  decision tree on the state number;
* each op is lowered to Python with the two's-complement wrap inlined —
  a signed wrap as a range check that keeps a value already in range and
  masks only on overflow — and dropped where the generator can prove the
  value already fits (see :meth:`_MachineCompiler._fit`);
* what the generator can prove comes from an interval analysis of each
  machine's private registers and cross-state wires, per state (see
  :meth:`_MachineCompiler.analyse`): a branch narrows what its condition
  tests, and a loop head's intervals widen to the next constant the
  machine names, so a loop guard bounds its counter.  The counter's
  increment then needs no wrap, an index it bounds needs no memory
  guard, and a division whose operands it proves non-negative needs no
  sign fix-up (nor a zero test, if the divisor excludes 0);
* on the single-machine fast path (one machine, no channel operations) a
  straight-line chain of states — each an unconditional ``NextState``
  into a state with one predecessor — runs as one block under a single
  budget test.  When the test fails the block steps state by state, so
  budget errors and faults fire on exactly the interpreter's cycle;
* on the same path blocks run in place wherever the control flow lets
  them (see :mod:`repro.sim.layout`): inside the branch arm that is their
  one way in, after the if/else they join, or as a ``while True`` loop of
  their own; an irreducible loop's entry, or a join no fall-through
  reaches, may be copied first (node splitting).  Only what is left goes
  through the dispatch tree, and with nothing left there is none;
* an innermost loop whose iteration is acyclic is a superblock: one
  budget test per iteration, against its longest path in cycles, each
  way out adding its own path's cycles, and a state-by-state ``else:``
  path for the last iterations before the budget runs out;
* a wire that is read once, later in its own block, and whose op cannot
  raise is written inside its reader instead of into a local (see
  :meth:`_MachineCompiler._fold_plan`); a chain of ``+ - * & | ^`` of
  one type so folded wraps once, at its end.

Multi-machine systems keep the interpreter's three-phase cycle
(evaluate combinationally, match rendezvous, commit in machine order)
inside the same kind of function: channels have integer ids fixed at
generation time, so a cycle allocates nothing and hashes no ``Symbol``.
A state with no channel op and no global access is one no other machine
sees, so it evaluates and commits in phase 1; phase 3 dispatches only
the machines that parked at a channel or global state, and the
rendezvous match happens there.  Channel logs, stall accounting,
same-cycle global-write races and deadlock reports are bit-identical to
the interpreter.

Profiling uses the same generator and the same layout: the profiled
function adds one visit counter increment per block (per state on the
stepping paths), and the counts become :attr:`SimProfile.state_visits`
after the run.

The plan is cached on the system object, and each function is generated
on first use, so repeated ``run`` calls (sweeps over argument values,
fuzz campaigns) pay for specialisation once.

Both engines run only systems that pass
:func:`~repro.sim.fsmd_sim.check_system`, so no generated read can find
a wire that was not produced since its block was entered.  Every flow in
the registry produces such machines, and the backend-equivalence suite
plus the fuzz oracle hold the two engines to identical results on all
of them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

from ..interp.machine import _as_int_type, wrap
from ..lang.errors import InterpError
from ..lang.symtab import Symbol, SymbolKind
from ..lang.types import ArrayType, Type
from ..ir.intervals import (
    NEGATED, Bounds, Widening, binary, hull, int_range, refine, type_range,
    unary, widen, within,
)
from ..ir.ops import Const, Operand, Operation, OpKind, VReg, VarRead
from ..rtl.fsmd import CondNext, Done, FSMD, FSMDSystem, NextState, State
from .fsmd_sim import (
    SimResult, SimulationError, check_system, transition_reads,
    transition_targets,
)
from .layout import STEP, BlockLayout, Emitter, Silent, reverse_postorder
from .profile import SimProfile

_WRAPPING = {"+", "-", "*", "&", "|", "^"}
_CHANNEL_KINDS = (OpKind.SEND, OpKind.RECV)

# What holds on entry to a state: the interval of each machine-private
# register and cross-state wire, by position (see ``key_index``).
Env = List[Bounds]
# Emits the code that leaves a state: towards a state id, or out of the
# machine with an optional result expression.
Goto = Callable[[int], List[str]]
Finish = Callable[[Optional[str]], List[str]]

_BUDGET = "raise SimulationError(_budget % max_cycles)"
# How many indentation levels blocks run in branch arms may add inside a
# dispatched block; keeps deep if/else nests clear of Python's limit.
_MAX_ARM_NESTING = 32


def _join(a: Env, b: Env) -> Env:
    """:func:`hull` position by position (``a`` itself when equal)."""
    if a == b:
        return a
    return [x if x == y else hull(x, y) for x, y in zip(a, b)]


def _state_label(state: State) -> str:
    return state.label or f"S{state.id}"


class _MachinePlan:
    """One machine's storage layout, filled in as its code is generated."""

    def __init__(self, fsmd: FSMD):
        self.name = fsmd.name
        # (slot, symbol) per scalar parameter, in declaration order.
        self.param_slots: List[Tuple[int, Symbol]] = []
        # ("local" | "global", array symbol) per memory index.
        self.mem_spec: List[Tuple[str, Symbol]] = []
        self.labels: List[str] = [_state_label(s) for s in fsmd.states]


class _MachineCompiler:
    """Lowers one FSMD's states into Python statements over locals.

    ``suffix`` keeps the names of several machines apart when they share
    one generated function: machine-private locals (registers, wires,
    memories, temps) end in it; globals (``g<slot>``) are shared."""

    def __init__(self, fsmd: FSMD, global_slots: Dict[Symbol, int],
                 suffix: str, lengths: Dict[Symbol, int], fast: bool):
        self.fsmd = fsmd
        self.sfx = suffix
        self.global_slots = global_slots        # shared, system-wide
        # Run-time length of each memory whose length is known up front.
        self.lengths = lengths
        # What the state being lowered may assume on entry (see
        # :meth:`analyse`); None: every value anywhere in its type.
        self.env: Optional[Env] = None
        self.entry_env: Dict[int, Optional[Env]] = {}
        self.key_index: Dict[object, int] = {}
        self.keys: List[object] = []
        # Per state: the positions it reads and writes, and what it wrote
        # for each tuple of read intervals met so far.
        self._touched: Dict[int, Tuple[List[int], List[int]]] = {}
        self._seen: Dict[int, Dict[tuple, Dict[int, List[Tuple[int,
                                                               Bounds]]]]] = {}
        self.reg_slots: Dict[Symbol, int] = {}
        self.mem_index: Dict[Symbol, int] = {}
        self.mem_spec: List[Tuple[str, Symbol]] = []
        self.plan = _MachinePlan(fsmd)
        self.plan.mem_spec = self.mem_spec
        self._tmp = 0
        self._stores: List[Tuple[int, str, str, bool]] = []
        self._local_bounds: Dict[VReg, Bounds] = {}
        # Per (state, mode), the wires its lowering may fold into their
        # reader (see :meth:`_fold_plan`); for the state being lowered,
        # those folds and the text each folded wire stands for.
        self._plans: Dict[Tuple[int, str], Dict[VReg, bool]] = {}
        # The straight-line blocks (see :func:`_chains`) a wire may fold
        # across: with several machines, only runs of states no other
        # machine sees, each of which commits in the phase it evaluates.
        self.blocks: List[List[int]] = []
        for chain in _chains(fsmd):
            if fast:
                self.blocks.append(chain)
                continue
            run: List[int] = []
            for sid in chain:
                if fsmd.states[sid].channel_op() is None \
                        and not _touches_globals(fsmd.states[sid]):
                    run.append(sid)
                    continue
                self.blocks += [run, [sid]] if run else [[sid]]
                run = []
            if run:
                self.blocks.append(run)
        self.block_of = {sid: block for block in self.blocks for sid in block}
        # Blocks that run once per run at most: folding them saves nothing.
        self.cold: Set[int] = set()
        # How many times the machine reads each wire (see :meth:`_reads`).
        self._read_counts: Optional[Dict[int, int]] = None
        self._folds: Dict[VReg, bool] = {}
        self._folded: Dict[VReg, Tuple[str, Bounds]] = {}
        # Each type's range, once it has been asked for (see :meth:`_range`).
        self._ranges: Dict[int, Tuple[Type, Tuple[int, int]]] = {}
        self._mark = 0
        # Wires read outside the state that computes them: the function
        # prologue binds them to 0, so each is a local on every path
        # (``check_system`` proves no run reads one before it is set).
        self.wires: Set[VReg] = set()
        # The state's rendezvous op (first SEND/RECV), if any; every other
        # channel op in the state is inert, exactly as in the interpreter.
        self.chan_op: Dict[int, Optional[Operation]] = {
            s.id: s.channel_op() for s in fsmd.states
        }
        # Interval every value of a cross-state wire lies in (None: any).
        self.wire_bounds: Dict[VReg, Bounds] = {}
        for state in fsmd.states:
            channel = self.chan_op[state.id]
            for op in state.ops:
                if op.kind in _CHANNEL_KINDS:
                    if op is channel and op.kind is OpKind.RECV:
                        assert op.dest is not None
                        self._define_wire(op.dest, self._range_or_none(
                            op.dest.type))
                    continue
                if op.dest is not None:
                    self._define_wire(op.dest, self._def_bounds(op))
        # Register slots in a stable order: declared registers, then
        # parameters (reads of anything else get fresh slots bound to 0,
        # matching the interpreter's ``.get(sym, 0)``).
        for symbol in fsmd.registers:
            if symbol.kind is not SymbolKind.GLOBAL:
                self._rslot(symbol)
        for symbol in fsmd.params:
            if not isinstance(symbol.type, ArrayType):
                self.plan.param_slots.append((self._rslot(symbol), symbol))

    # -- analysis -----------------------------------------------------------

    def _define_wire(self, vreg: VReg, bounds: Bounds) -> None:
        if vreg in self.wire_bounds:
            bounds = hull(self.wire_bounds[vreg], bounds)
        self.wire_bounds[vreg] = bounds

    # -- interval analysis --------------------------------------------------

    def analyse(self) -> None:
        """Prove, per state, an interval for each private value on entry.

        A worklist over the states in reverse postorder: the transfer of
        a state is its own lowering (so each bound is the one the
        generated code relies on), then its latches, with each
        ``CondNext`` arm narrowing the values its condition tests.  Entry
        intervals join by hull, and a loop head's widen by the shared
        :class:`~repro.ir.intervals.Widening`.  Globals, loads and received
        values keep their type's range: another machine or the memory
        may change them."""
        fsmd = self.fsmd
        states = fsmd.states
        n = len(states)
        successors = [
            [t for t in transition_targets(state.transition) if 0 <= t < n]
            for state in states
        ]
        order = reverse_postorder(fsmd.entry, successors)
        rank = {sid: index for index, sid in enumerate(order)}
        widening = Widening(
            rank, ((sid, t) for sid in order for t in successors[sid]),
            (o.value for state in states for op in state.ops
             for o in op.operands if isinstance(o, Const)))
        entry: Dict[int, Optional[Env]] = {fsmd.entry: self._initial_env()}
        work = [rank[fsmd.entry]]
        while work:
            sid = order[heappop(work)]
            for target, env in self._transfer(states[sid],
                                              entry[sid]).items():
                old = entry.get(target)
                new = env if old is None else _join(old, env)
                if new == old:
                    continue
                stops = None if old is None else widening.stops(target)
                if stops is not None:
                    new = [widen(before, bounds, self._top(key), stops)
                           for key, before, bounds in zip(self.keys, old, new)]
                entry[target] = new
                if rank[target] not in work:
                    heappush(work, rank[target])
        self.entry_env = entry

    def _initial_env(self) -> Env:
        """Lay out the keys: every private register, then every wire read
        outside the state that sets it.  On machine entry parameters lie
        anywhere in their type; other registers and the wires are 0."""
        fsmd = self.fsmd
        params = {p for p in fsmd.params if not isinstance(p.type, ArrayType)}
        symbols: List[Symbol] = list(fsmd.registers) + list(params)
        wires: List[VReg] = []
        for state in fsmd.states:
            defined: Set[VReg] = set()
            channel = self.chan_op[state.id]
            if channel is not None and channel.kind is OpKind.RECV:
                defined.add(channel.dest)
            for op in state.ops:
                wires.extend(o for o in op.operands
                             if isinstance(o, VReg) and o not in defined)
                symbols.extend(o.var for o in op.operands
                               if isinstance(o, VarRead))
                if op.dest is not None and op.kind not in _CHANNEL_KINDS:
                    defined.add(op.dest)
            symbols.extend(state.latches)
            tested, results = transition_reads(state.transition)
            reads = list(state.latches.values()) + tested + results
            for operand in reads:
                if isinstance(operand, VarRead):
                    symbols.append(operand.var)
                elif isinstance(operand, VReg) and operand not in defined:
                    wires.append(operand)
        index = self.key_index
        env: Env = []
        for symbol in symbols:
            if symbol.kind is not SymbolKind.GLOBAL and symbol not in index:
                index[symbol] = len(env)
                env.append(self._range_or_none(symbol.type)
                           if symbol in params else (0, 0))
        for wire in wires:
            if wire not in index:
                index[wire] = len(env)
                env.append((0, 0))
        self.keys = list(index)
        return env

    def _top(self, key: object) -> Bounds:
        """Where a key's value lies whatever the machine did before."""
        if isinstance(key, VReg):
            return self.wire_bounds.get(key)
        assert isinstance(key, Symbol)
        return self._range_or_none(key.type)

    def enter(self, state: State, env: Optional[Env] = None) -> None:
        """Make ``env`` (by default the proven entry intervals) what the
        lowering of ``state`` assumes.  A state no run reaches assumes
        nothing."""
        if env is None:
            env = self.entry_env.get(state.id)
        channel = self.chan_op[state.id]
        if env is not None and channel is not None \
                and channel.kind is OpKind.RECV:
            position = self.key_index.get(channel.dest)
            if position is not None:
                env = list(env)
                env[position] = self._range_or_none(channel.dest.type)
        self.env = env

    def _transfer(self, state: State, env: Env) -> Dict[int, Env]:
        """The intervals on entry to each successor of ``state``.

        What a state passes on depends only on the intervals it reads,
        so a state met again with the same ones reuses what it wrote."""
        touched = self._touched.get(state.id)
        if touched is None:
            touched = self._touched[state.id] = self._touches(state)
        reads, positions = touched
        key = tuple([env[i] for i in reads])
        seen = self._seen.setdefault(state.id, {})
        writes = seen.get(key)
        if writes is not None:
            outs: Dict[int, Env] = {}
            for target, written in writes.items():
                after = list(env)
                for position, bounds in written:
                    after[position] = bounds
                outs[target] = after
            return outs
        outs = self._lower_transfer(state, env)
        seen[key] = {target: [(i, after[i]) for i in positions]
                     for target, after in outs.items()}
        return outs

    def _touches(self, state: State) -> Tuple[List[int], List[int]]:
        """Positions of the keys ``state`` reads, and of those it reads or
        may write."""
        index = self.key_index
        operands = list(state.latches.values())
        operands += transition_reads(state.transition)[0]
        for op in state.ops:
            operands.extend(op.operands)
        reads = {index[key] for key in (
            o.var if isinstance(o, VarRead) else o for o in operands
            if isinstance(o, (VarRead, VReg))) if key in index}
        written = [op.dest for op in state.ops if op.dest is not None]
        written.extend(state.latches)
        writes = {index[key] for key in written if key in index}
        return sorted(reads), sorted(reads | writes)

    def _lower_transfer(self, state: State, env: Env) -> Dict[int, Env]:
        self.enter(state, env)
        self._tmp = 0
        local = self.emit_ops(Silent(), state, "edge")
        index = self.key_index
        values: Env = list(self.env)
        extra: Dict[VReg, Bounds] = {}
        for vreg in local:
            position = index.get(vreg)
            if position is None:
                extra[vreg] = self._local_bounds[vreg]
            else:
                values[position] = self._local_bounds[vreg]
        defs: Dict[VReg, Optional[int]] = {}
        for position, op in enumerate(state.ops):
            if op.dest is not None:
                # A wire set twice in one state is never narrowed.
                defs[op.dest] = None if op.dest in defs else position
        outs: Dict[int, Env] = {}

        def walk(tr, values: Env, extra: Dict[VReg, Bounds]) -> None:
            if isinstance(tr, CondNext):
                for arm, truth in ((tr.if_true, True), (tr.if_false, False)):
                    narrowed = self._narrow(values, extra, tr.cond, truth,
                                            state, defs)
                    if narrowed is not None:
                        walk(arm, *narrowed)
            elif isinstance(tr, (int, NextState)):
                target = next(transition_targets(tr))
                after = list(values)
                for symbol, value in state.latches.items():
                    if symbol.kind is SymbolKind.GLOBAL:
                        continue
                    try:
                        _, bounds = self._fit(
                            "_", self._value(values, extra, value),
                            symbol.type)
                    except InterpError:
                        bounds = None
                    after[index[symbol]] = bounds
                old = outs.get(target)
                outs[target] = after if old is None else _join(old, after)

        walk(state.transition, values, extra)
        return outs

    def _value(self, values: Env, extra: Dict[VReg, Bounds],
               operand: Operand) -> Bounds:
        if isinstance(operand, Const):
            return operand.value, operand.value
        key = operand.var if isinstance(operand, VarRead) else operand
        position = self.key_index.get(key)
        if position is not None:
            return values[position]
        if isinstance(operand, VarRead):
            return self._range_or_none(operand.var.type)
        if operand in extra:
            return extra[operand]
        return self.wire_bounds.get(operand)

    def _narrow(self, values: Env, extra: Dict[VReg, Bounds], cond: Operand,
                truth: bool, state: State, defs: Dict[VReg, Optional[int]]):
        """``(values, extra)`` where ``cond`` is ``truth``, or None if it
        cannot be.

        A condition computed in this state by a comparison (or ``!``)
        narrows the operands it read, as long as they still hold what it
        read: private registers, and wires set once before it in this
        state or not set in it at all."""
        if isinstance(cond, Const):
            return (values, extra) if bool(cond.value) == truth else None
        values, extra = list(values), dict(extra)
        position = defs.get(cond) if isinstance(cond, VReg) else None
        op = state.ops[position] if position is not None else None

        def stable(operand: Operand) -> bool:
            if isinstance(operand, VarRead):
                return operand.var.kind is not SymbolKind.GLOBAL
            if isinstance(operand, VReg):
                return operand not in defs or (
                    defs[operand] is not None and defs[operand] < position)
            return False

        def narrow(operand: Operand, bounds: Bounds) -> None:
            key = operand.var if isinstance(operand, VarRead) else operand
            where = self.key_index.get(key)
            if where is not None:
                values[where] = bounds
            elif key in extra:
                extra[key] = bounds

        if op is not None and op.kind is OpKind.BINARY \
                and op.op in NEGATED:
            a, b = op.operands
            held = refine(op.op, self._value(values, extra, a),
                          self._value(values, extra, b), truth)
            if held is None:
                return None
            for operand, bounds in zip((a, b), held):
                if stable(operand):
                    narrow(operand, bounds)
        elif op is not None and op.kind is OpKind.UNARY and op.op == "!" \
                and stable(op.operands[0]):
            inner = self._narrow(values, extra, op.operands[0], not truth,
                                 state, defs)
            if inner is None:
                return None
            values, extra = inner
        held = refine("!=", self._value(values, extra, cond), (0, 0), truth)
        if held is None:
            return None
        narrow(cond, held[0])
        return values, extra

    def state_intervals(self) -> Dict[int, Optional[Dict[Symbol, Bounds]]]:
        """Per state, the interval proven for each private register on
        entry (None: the state is never entered)."""
        return {
            sid: None if env is None else {
                key: bounds for key, bounds in zip(self.keys, env)
                if isinstance(key, Symbol)
            }
            for sid, env in self.entry_env.items()
        }

    @staticmethod
    def _def_bounds(op: Operation) -> Bounds:
        """Where any value ``op`` produces lies, from its kind alone."""
        assert op.dest is not None
        if op.kind is OpKind.LOAD:
            return None                 # memories hold unwrapped words
        if op.op in NEGATED or op.op in ("&&", "||", "!"):
            return 0, 1
        return type_range(op.dest.type)

    def _range(self, value_type: Type) -> Tuple[int, int]:
        # By identity: a type's own hash is costly to compute.
        known = self._ranges.get(id(value_type))
        if known is None or known[0] is not value_type:
            known = self._ranges[id(value_type)] = (
                value_type, int_range(value_type))
        return known[1]

    def _range_or_none(self, value_type: Type) -> Bounds:
        try:
            return self._range(value_type)
        except InterpError:
            return None

    # -- slot layout --------------------------------------------------------

    def _rslot(self, symbol: Symbol) -> int:
        slot = self.reg_slots.get(symbol)
        if slot is None:
            slot = len(self.reg_slots)
            self.reg_slots[symbol] = slot
        return slot

    def _gslot(self, symbol: Symbol) -> int:
        slot = self.global_slots.get(symbol)
        if slot is None:
            slot = len(self.global_slots)
            self.global_slots[symbol] = slot
        return slot

    def _mslot(self, array: Symbol) -> int:
        index = self.mem_index.get(array)
        if index is None:
            index = len(self.mem_spec)
            self.mem_index[array] = index
            kind = "global" if array.kind is SymbolKind.GLOBAL else "local"
            self.mem_spec.append((kind, array))
        return index

    def _reg(self, symbol: Symbol) -> str:
        if symbol.kind is SymbolKind.GLOBAL:
            return f"g{self._gslot(symbol)}"
        return f"r{self._rslot(symbol)}{self.sfx}"

    # -- expressions --------------------------------------------------------

    def _expr(self, operand: Operand, local: Set[VReg]) -> str:
        if isinstance(operand, Const):
            text = repr(operand.value)
            return f"({text})" if operand.value < 0 else text
        if isinstance(operand, VarRead):
            return self._reg(operand.var)
        if self._folded and operand in self._folded:
            return self._folded[operand][0]
        if operand not in local:
            self.wires.add(operand)
        return f"v{operand.id}{self.sfx}"

    def _name(self, em: Emitter, operand: Operand, local: Set[VReg]) -> str:
        """Like :meth:`_expr`, for a reader that writes the text more than
        once: a folded wire is computed into its own local first."""
        if isinstance(operand, VReg) and operand in self._folded:
            text, bounds = self._folded.pop(operand)
            em.line(f"v{operand.id}{self.sfx} = {text}")
            local.add(operand)
            self._local_bounds[operand] = bounds
        return self._expr(operand, local)

    def _bounds(self, operand: Operand, local: Set[VReg]) -> Bounds:
        if isinstance(operand, Const):
            return operand.value, operand.value
        if isinstance(operand, VarRead):
            # Registers and globals only ever hold wrapped values; a
            # machine-private register may be proven tighter on entry.
            if self.env is not None:
                position = self.key_index.get(operand.var)
                if position is not None:
                    return self.env[position]
            return self._range_or_none(operand.var.type)
        if operand in local:
            return self._local_bounds.get(operand)
        if self._folded and operand in self._folded:
            return self._folded[operand][1]
        if self.env is not None:
            position = self.key_index.get(operand)
            if position is not None:
                return self.env[position]
        return self.wire_bounds.get(operand)

    def _wrap_expr(self, expr: str, value_type: Type,
                   bounds: Bounds = None) -> str:
        rt = _as_int_type(value_type)       # may raise InterpError
        mask = (1 << rt.width) - 1
        if rt.signed:
            # Range-check first: a value that already fits (nearly every
            # one) is kept after a comparison or two, and only an overflow
            # pays for the mask arithmetic.  ``bounds`` may prove one end
            # cannot be crossed (``i + 1`` never falls below the minimum);
            # then only the other end is tested.
            half = 1 << (rt.width - 1)
            test = f"{-half} <= (_w := {expr}) <= {half - 1}"
            if bounds is not None and bounds[0] >= -half:
                test = f"(_w := {expr}) <= {half - 1}"
            elif bounds is not None and bounds[1] < half:
                test = f"(_w := {expr}) >= {-half}"
            return f"(_w if {test} else ((_w + {half}) & {mask}) - {half})"
        return f"({expr}) & {mask}"

    def _fit(self, expr: str, bounds: Bounds,
             value_type: Type) -> Tuple[str, Bounds]:
        """``expr`` reduced into ``value_type``, and where it then lies.

        The wrap is dropped when ``bounds`` proves the value already fits:
        a same-or-narrower latch or result, a 0/1 truth value, a mask by
        a non-negative constant, an interval that cannot overflow."""
        limits = self._range(value_type)     # may raise InterpError
        if within(bounds, limits):
            return expr, bounds
        return self._wrap_expr(expr, value_type, bounds), limits

    def _temp(self, prefix: str = "_t") -> str:
        self._tmp += 1
        return f"{prefix}{self._tmp}{self.sfx}"

    # -- op lowering --------------------------------------------------------

    def emit_ops(self, em: Emitter, state: State, mode: str,
                 skip: Set[int] = frozenset()) -> Set[VReg]:
        """Lower the state's non-channel ops; return the vregs it set.

        ``mode`` says what happens to stores:

        * ``"edge"``  — applied at the clock edge, i.e. after the op list
          (at once when no later op of the state loads that array);
        * ``"stage"`` — checked and captured into temps that
          :meth:`apply_stores` applies later (the multi-machine commit);
        * ``"check"`` — bounds-checked only (a rendezvous state's
          pre-evaluation, whose stores the interpreter discards)."""
        local: Set[VReg] = set()
        self._local_bounds = {}
        self._stores = []
        # Folding changes only the text, so a lowering for what it proves
        # (into :class:`Silent`) does without.
        block = self.block_of[state.id]
        self._folds = ({} if isinstance(em, Silent)
                       else self._fold_plan(block, mode))
        if state.id == block[0]:
            self._folded = {}
        ops = [op for op in state.ops
               if op.kind not in _CHANNEL_KINDS and id(op) not in skip]
        for index, op in enumerate(ops):
            store = mode
            if mode == "edge":
                loaded_later = any(
                    later.kind is OpKind.LOAD and later.array == op.array
                    for later in ops[index + 1:]
                )
                store = "stage" if loaded_later else "now"
            self._emit_op(em, op, local, store)
        if mode == "edge":
            self.apply_stores(em)
        return local

    def _reads(self) -> Dict[int, int]:
        """How many times the machine reads each wire, by wire id (ids
        hash faster than wires)."""
        counts = self._read_counts
        if counts is None:
            counts = self._read_counts = {}
            for state in self.fsmd.states:
                operands = list(state.latches.values())
                for part in transition_reads(state.transition):
                    operands += part
                for op in state.ops:
                    operands += op.operands
                for operand in operands:
                    if isinstance(operand, VReg):
                        counts[operand.id] = counts.get(operand.id, 0) + 1
        return counts

    def _fold_plan(self, block: List[int], mode: str) -> Dict[VReg, bool]:
        """The wires ``block``'s lowering may write inside their one reader
        instead of into a local, each with whether it may skip its wrap.

        A wire folds when one op of the block sets it and its one read
        in the whole machine comes later in the block; what it reads must
        still hold where its text is evaluated (no wire set again, no
        register latched, no store to an array it loads, in between).
        Its op must also lower to nothing but its value — it cannot
        raise — which :meth:`_define` checks.  A ``+ - * & | ^`` read
        by another of them of the same type skips its wrap: their low
        bits depend only on their operands' low bits, so the reader's
        wrap gives the same result.  Rendezvous states fold nothing, and
        in ``"stage"`` mode (commit in a later phase) only op readers
        take a fold."""
        key = (block[0], mode)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        plan = self._plans[key] = {}
        if mode == "check" or block[0] in self.cold \
                or any(self.chan_op[sid] for sid in block):
            return plan
        states = [self.fsmd.states[sid] for sid in block]
        counts = self._reads()
        # Only a wire read once in the whole machine can fold.  Wires,
        # registers and arrays are keyed by id here.
        once = {op.dest.id for state in states for op in state.ops
                if op.dest is not None and counts.get(op.dest.id) == 1}
        if not once:
            return plan
        # The block's ops, latches and transitions in the order their
        # code runs; ``place`` numbers them.
        ops: List[Tuple[int, int, Operation]] = []  # (place, state's, op)
        defs: Dict[int, List[int]] = {}     # wire id -> places set
        latched: Dict[int, List[int]] = {}  # register id -> places latched
        stores: List[Tuple[int, int]] = []  # (place, array id)
        readers: Dict[int, List[int]] = {}
        place = 0
        for state in states:
            first = place
            place += len(state.ops)
            for symbol, value in state.latches.items():
                latched.setdefault(id(symbol), []).append(place)
                if isinstance(value, VReg) and value.id in once:
                    readers.setdefault(value.id, []).append(place)
                place += 1
            for part in transition_reads(state.transition):
                for operand in part:
                    if isinstance(operand, VReg) and operand.id in once:
                        readers.setdefault(operand.id, []).append(place)
            for position, op in enumerate(state.ops, first):
                for operand in op.operands:
                    if isinstance(operand, VReg) and operand.id in once:
                        readers.setdefault(operand.id, []).append(position)
                if op.kind is OpKind.STORE:
                    stores.append((position, id(op.array)))
                elif op.dest is not None:
                    ops.append((position, first, op))
                    defs.setdefault(op.dest.id, []).append(position)
            place += 1
        at_op = {position: op for position, _, op in ops}
        # Where each folded wire's text is evaluated: at its reader, or
        # wherever that reader's own folded text is.
        evaluated: Dict[int, int] = {}
        for position, first, op in reversed(ops):
            dest = op.dest
            assert dest is not None
            where = readers.get(dest.id, ())
            if len(where) != 1 or len(defs[dest.id]) != 1 \
                    or where[0] <= position:
                continue
            at = where[0]
            reader = at_op.get(at)
            if mode == "stage" and reader is None:
                continue
            if reader is not None and reader.dest is not None:
                at = evaluated.get(reader.dest.id, at)
            if not _holds_until(op, position, first, at, defs, latched,
                                stores):
                continue
            evaluated[dest.id] = at
            plan[dest] = (
                reader is not None and reader.dest is not None
                and op.kind is reader.kind is OpKind.BINARY
                and op.op in _WRAPPING and reader.op in _WRAPPING
                and _same_int_type(dest.type, reader.dest.type)
            )
        return plan

    def _define(self, em: Emitter, op: Operation, rhs: str, bounds: Bounds,
                local: Set[VReg]) -> None:
        assert op.dest is not None
        if self._folds and op.dest in self._folds \
                and em.written == self._mark:
            self._folded[op.dest] = (f"({rhs})", bounds)
        else:
            em.line(f"v{op.dest.id}{self.sfx} = {rhs}")
        local.add(op.dest)
        self._local_bounds[op.dest] = bounds

    def _emit_op(self, em: Emitter, op: Operation, local: Set[VReg],
                 store: str) -> None:
        kind = op.kind
        self._mark = em.written
        try:
            if kind is OpKind.BINARY:
                self._emit_binary(em, op, local)
            elif kind is OpKind.UNARY:
                self._emit_unary(em, op, local)
            elif kind is OpKind.CAST:
                assert op.dest is not None
                source = op.operands[0]
                rhs, bounds = self._fit(self._expr(source, local),
                                        self._bounds(source, local),
                                        op.dest.type)
                self._define(em, op, rhs, bounds, local)
            elif kind is OpKind.SELECT:
                assert op.dest is not None
                cond = self._expr(op.operands[0], local)
                if_true = self._expr(op.operands[1], local)
                if_false = self._expr(op.operands[2], local)
                bounds = hull(*(self._bounds(o, local)
                                for o in op.operands[1:]))
                rhs, bounds = self._fit(
                    f"{if_true} if {cond} else {if_false}", bounds,
                    op.dest.type,
                )
                self._define(em, op, rhs, bounds, local)
            elif kind is OpKind.LOAD:
                self._emit_load(em, op, local)
            elif kind is OpKind.STORE:
                self._emit_store(em, op, local, store)
            elif kind in (OpKind.BARRIER, OpKind.DELAY, OpKind.NOP):
                pass
            else:
                message = f"FSMD cannot execute {op.kind}"
                em.line(f"raise SimulationError({message!r})")
        except InterpError as err:
            em.line(f"raise InterpError({str(err)!r})")

    def _emit_binary(self, em: Emitter, op: Operation,
                     local: Set[VReg]) -> None:
        assert op.dest is not None
        left, right = op.operands[0], op.operands[1]
        o = op.op
        if o == "/" or o == "%":
            a, b = self._name(em, left, local), self._name(em, right, local)
        else:
            a, b = self._expr(left, local), self._expr(right, local)
        ba, bb = self._bounds(left, local), self._bounds(right, local)
        if o in _WRAPPING:
            raw = binary(o, ba, bb, self._range(op.dest.type))
            if self._folds and self._folds.get(op.dest) \
                    and em.written == self._mark:
                # Its reader wraps, and so this value, once, there.
                rhs, bounds = f"{a} {o} {b}", raw
            else:
                rhs, bounds = self._fit(f"{a} {o} {b}", raw, op.dest.type)
        elif o in NEGATED or o in ("&&", "||"):
            test = {"&&": f"{a} and {b}", "||": f"{a} or {b}"}.get(
                o, f"{a} {o} {b}")
            rhs, bounds = f"1 if {test} else 0", (0, 1)
        elif o == "/" or o == "%":
            rhs, bounds = self._emit_divide(em, o, a, b, ba, bb, op.dest.type)
        elif o == "<<" or o == ">>":
            rhs, bounds = self._emit_shift(em, o, a, b, ba, bb, right,
                                           op.dest.type)
        else:
            message = f"unknown binary operator {o!r}"
            em.line(f"raise InterpError({message!r})")
            return
        self._define(em, op, rhs, bounds, local)

    def _emit_divide(self, em: Emitter, o: str, a: str, b: str, ba: Bounds,
                     bb: Bounds, dest: Type) -> Tuple[str, Bounds]:
        raw = binary(o, ba, bb, self._range(dest))   # may raise InterpError
        if not (bb and (bb[0] > 0 or bb[1] < 0)):
            word = "division" if o == "/" else "modulo"
            em.line(f"if {b} == 0:")
            em.line(f"    raise InterpError('{word} by zero')")
        if ba and bb and ba[0] >= 0 and bb[0] >= 0:
            # Both sides proven non-negative: C's truncating division is
            # Python's floor division.
            floor = "//" if o == "/" else "%"
            return self._fit(f"{a} {floor} {b}", raw, dest)
        tq = self._temp("_q")
        em.line(f"{tq} = abs({a}) // abs({b})")
        em.line(f"if ({a} < 0) != ({b} < 0):")
        em.line(f"    {tq} = -{tq}")
        return self._fit(tq if o == "/" else f"{a} - {tq} * {b}", raw, dest)

    def _emit_shift(self, em: Emitter, o: str, a: str, b: str, ba: Bounds,
                    bb: Bounds, amount: Operand,
                    dest: Type) -> Tuple[str, Bounds]:
        width = _as_int_type(dest).width
        raw = binary(o, ba, bb, self._range(dest))
        if isinstance(amount, Const):
            if amount.value < 0:
                em.line(f"raise InterpError('negative shift amount"
                        f" {amount.value}')")
            shift = min(amount.value, width)
            return self._fit(f"{a} {o} {max(shift, 0)}", raw, dest)
        tb = self._temp("_b")
        em.line(f"{tb} = {b}")
        em.line(f"if {tb} < 0:")
        em.line(f"    raise InterpError('negative shift amount %d' % {tb})")
        em.line(f"elif {tb} > {width}:")
        em.line(f"    {tb} = {width}")
        return self._fit(f"{a} {o} {tb}", raw, dest)

    def _emit_unary(self, em: Emitter, op: Operation,
                    local: Set[VReg]) -> None:
        assert op.dest is not None
        a = self._expr(op.operands[0], local)
        ba = self._bounds(op.operands[0], local)
        o = op.op
        if o == "-" or o == "~":
            rhs, bounds = self._fit(f"{o}{a}", unary(o, ba), op.dest.type)
        elif o == "!":
            rhs, bounds = f"1 if {a} == 0 else 0", (0, 1)
        else:
            message = f"unknown unary operator {o!r}"
            em.line(f"raise InterpError({message!r})")
            return
        self._define(em, op, rhs, bounds, local)

    def _bounds_raise(self, op: Operation, index: str) -> str:
        assert op.array is not None
        verb = "load" if op.kind is OpKind.LOAD else "store"
        mem = self._mslot(op.array)
        prefix = f"{self.fsmd.name}: {verb} {op.array.unique_name}["
        return (
            f"raise SimulationError({prefix!r} + str({index})"
            f" + '] out of bounds (size %d)' % _L{mem}{self.sfx})"
        )

    def _in_bounds(self, op: Operation, local: Set[VReg]) -> bool:
        """Whether the access's index is proven inside its memory."""
        assert op.array is not None
        length = self.lengths.get(op.array)
        return length is not None and within(
            self._bounds(op.operands[0], local), (0, length - 1))

    def _emit_load(self, em: Emitter, op: Operation,
                   local: Set[VReg]) -> None:
        assert op.dest is not None and op.array is not None
        mem = f"{self._mslot(op.array)}{self.sfx}"
        if self._in_bounds(op, local):
            rhs = f"m{mem}[{self._expr(op.operands[0], local)}]"
            self._define(em, op, rhs, None, local)
            return
        index = self._name(em, op.operands[0], local)
        if self.fsmd.tolerant_memory:
            rhs = f"m{mem}[{index}] if 0 <= {index} < _L{mem} else 0"
        else:
            em.line(f"if not 0 <= {index} < _L{mem}:")
            em.line(f"    {self._bounds_raise(op, index)}")
            rhs = f"m{mem}[{index}]"
        self._define(em, op, rhs, None, local)

    def _emit_store(self, em: Emitter, op: Operation, local: Set[VReg],
                    store: str) -> None:
        """``store`` is ``"now"`` (write at once), ``"stage"`` (capture
        into temps for :meth:`apply_stores`) or ``"check"``."""
        assert op.array is not None
        mem = f"{self._mslot(op.array)}{self.sfx}"
        checked = not self._in_bounds(op, local)
        index = (self._name(em, op.operands[0], local) if checked
                 else self._expr(op.operands[0], local))
        tolerant = checked and self.fsmd.tolerant_memory
        guard = f"0 <= {index} < _L{mem}"
        if checked and not tolerant:
            em.line(f"if not {guard}:")
            em.line(f"    {self._bounds_raise(op, index)}")
        if store == "check":
            return
        value = self._expr(op.operands[1], local)
        pad = ""
        if tolerant:
            em.line(f"if {guard}:")     # off-the-end stores are dropped
            pad = "    "
        if store == "now":
            em.line(f"{pad}m{mem}[{index}] = {value}")
            return
        ti, tv = self._temp("_i"), self._temp("_v")
        em.line(f"{pad}{ti} = {index}")
        em.line(f"{pad}{tv} = {value}")
        if tolerant:
            em.line("else:")
            em.line(f"    {ti} = -1")
        self._stores.append((mem, ti, tv, tolerant))

    def apply_stores(self, em: Emitter) -> None:
        """Apply the captured stores, in op order, at the clock edge."""
        for mem, ti, tv, tolerant in self._stores:
            if tolerant:
                em.line(f"if {ti} >= 0:")
                em.line(f"    m{mem}[{ti}] = {tv}")
            else:
                em.line(f"m{mem}[{ti}] = {tv}")
        self._stores = []

    # -- transition + latches (the clock edge) ------------------------------

    def emit_commit(self, em: Emitter, state: State, local: Set[VReg],
                    goto: Goto, finish: Finish,
                    race: Optional[Callable[[Symbol], List[str]]] = None,
                    ) -> None:
        """Next-state decision, then latches, then leave the state.

        Mirrors the interpreter's ordering: the transition tree and every
        latch operand read pre-edge values, so a tree read of a register
        this state latches is captured in a temp before the latches fire;
        the tree itself is emitted after them, its leaves acting through
        ``goto`` and ``finish``."""
        latched = set(state.latches)
        held: Dict[int, str] = {}

        def hold(tr) -> None:
            reads: List[Operand] = []
            if isinstance(tr, CondNext):
                reads = [tr.cond]
                hold(tr.if_true)
                hold(tr.if_false)
            elif isinstance(tr, Done) and tr.value is not None:
                reads = [tr.value]
            for operand in reads:
                if isinstance(operand, VarRead) and operand.var in latched:
                    held[id(operand)] = temp = self._temp("_h")
                    em.line(f"{temp} = {self._reg(operand.var)}")

        def read(operand: Operand) -> str:
            return held.get(id(operand)) or self._expr(operand, local)

        def walk(tr) -> None:
            if isinstance(tr, (int, NextState)):
                em.extend(goto(next(transition_targets(tr))))
            elif isinstance(tr, Done):
                self._emit_finish(em, tr.value, read, local, finish)
            elif isinstance(tr, CondNext):
                em.line(f"if {read(tr.cond)}:")
                arm(tr.if_true)
                em.line("else:")
                arm(tr.if_false)
            else:
                message = f"state {state.label} has no transition"
                em.line(f"raise SimulationError({message!r})")

        def arm(tr) -> None:
            em.depth += 1
            mark = len(em.lines)
            walk(tr)
            if len(em.lines) == mark:
                em.line("pass")
            em.depth -= 1

        hold(state.transition)
        if self._emit_latches(em, state, local, race):
            walk(state.transition)

    def _emit_finish(self, em: Emitter, value: Optional[Operand],
                     read: Callable[[Operand], str], local: Set[VReg],
                     finish: Finish) -> None:
        """Leave the machine, returning ``value`` (if any) wrapped into
        the return type."""
        if value is None:
            em.extend(finish(None))
            return
        result = read(value)
        rt = self.fsmd.return_type
        if rt is not None and rt.bit_width > 0:
            try:
                result, _ = self._fit(result, self._bounds(value, local), rt)
            except InterpError as err:
                em.line(f"raise InterpError({str(err)!r})")
                return
        em.extend(finish(result))

    def _emit_latches(self, em: Emitter, state: State, local: Set[VReg],
                      race: Optional[Callable[[Symbol], List[str]]]) -> bool:
        """Parallel register writes; False when they end in a raise."""
        latched = set(state.latches)
        sources: List[Tuple[Symbol, str, Bounds]] = []
        for symbol, value in state.latches.items():
            expr = self._expr(value, local)
            if isinstance(value, VarRead) and value.var in latched:
                temp = self._temp("_l")
                em.line(f"{temp} = {expr}")
                expr = temp
            sources.append((symbol, expr, self._bounds(value, local)))
        for symbol, expr, bounds in sources:
            try:
                fitted, _ = self._fit(expr, bounds, symbol.type)
            except InterpError as err:
                em.line(f"raise InterpError({str(err)!r})")
                return False
            if race is not None and symbol.kind is SymbolKind.GLOBAL:
                em.extend(race(symbol))
            em.line(f"{self._reg(symbol)} = {fitted}")
        return True

    # -- rendezvous states --------------------------------------------------

    def pre_skip_set(self, state: State) -> Set[int]:
        """Ops the interpreter's phase A skips via ``_ValueNotReady``:
        anything (transitively) reading the pending received value, the
        only read :func:`~repro.sim.fsmd_sim.check_system` lets miss."""
        channel = self.chan_op[state.id]
        skipped: Set[int] = set()
        if channel is None or channel.kind is not OpKind.RECV:
            return skipped
        unavailable = {channel.dest}
        for op in state.ops:
            if op.kind in _CHANNEL_KINDS:
                continue
            if any(isinstance(v, VReg) and v in unavailable
                   for v in op.operands):
                skipped.add(id(op))
                if op.dest is not None:
                    unavailable.add(op.dest)
        return skipped


def _touches_globals(state: State) -> bool:
    """Whether ``state`` reads or writes a global register or memory."""
    operands = list(state.latches.values())
    operands += [o for part in transition_reads(state.transition)
                 for o in part]
    for op in state.ops:
        if op.array is not None and op.array.kind is SymbolKind.GLOBAL:
            return True
        operands.extend(op.operands)
    return any(symbol.kind is SymbolKind.GLOBAL for symbol in state.latches
               ) or any(isinstance(o, VarRead)
                        and o.var.kind is SymbolKind.GLOBAL for o in operands)


def _holds_until(op: Operation, position: int, first: int, at: int,
                 defs: Dict[int, List[int]], latched: Dict[int, List[int]],
                 stores: List[Tuple[int, int]]) -> bool:
    """Whether what ``op``, at ``position`` of a block in a state whose
    ops start at ``first``, reads still holds at ``at``: no wire it reads
    set again, no register latched, and no store to an array it loads
    (a store earlier in its own state may land at that state's end)."""
    for operand in op.operands:
        if isinstance(operand, VReg):
            writes = defs.get(operand.id, ())
        elif isinstance(operand, VarRead):
            writes = latched.get(id(operand.var), ())
        else:
            continue
        if any(position < w < at for w in writes):
            return False
    if op.kind is not OpKind.LOAD:
        return True
    array = id(op.array)
    return not any(a == array and first <= where < at
                   for where, a in stores)


def _same_int_type(a: Type, b: Type) -> bool:
    try:
        ra, rb = _as_int_type(a), _as_int_type(b)
    except InterpError:
        return False
    return (ra.width, ra.signed) == (rb.width, rb.signed)


def _memory_lengths(system: FSMDSystem) -> Dict[Symbol, int]:
    """The length every run gives each memory (see
    :meth:`SystemPlan._instantiate`): its declared size, unless a memory
    image makes it longer (or, for a global, replaces it)."""
    lengths: Dict[Symbol, int] = {}
    arrays = list(system.global_arrays)
    for fsmd in system.fsmds:
        arrays.extend(fsmd.arrays)
    for symbol in arrays:
        if isinstance(symbol.type, ArrayType):
            lengths[symbol] = symbol.type.size
    for symbol, image in system.memory_images.items():
        if symbol.kind is SymbolKind.GLOBAL:
            lengths[symbol] = len(image)
        elif symbol in lengths:
            lengths[symbol] = max(lengths[symbol], len(image))
    return lengths


def _indegrees(fsmd: FSMD) -> List[int]:
    """Ways into each state: one per transition leaf naming it, plus one
    for the entry."""
    n = len(fsmd.states)
    indegree = [0] * n
    indegree[fsmd.entry] += 1
    for state in fsmd.states:
        for target in transition_targets(state.transition):
            if 0 <= target < n:
                indegree[target] += 1
    return indegree


def _chains(fsmd: FSMD) -> List[List[int]]:
    """Split the states into straight-line blocks.

    State ``t`` joins the block of ``s`` when ``s`` moves unconditionally
    into ``t`` and nothing else can enter ``t`` (it has one predecessor
    and is not the entry).  Every block starts at a state the dispatch
    or a branch (see :mod:`repro.sim.layout`) can reach; the entry state
    always starts one."""
    n = len(fsmd.states)
    indegree = _indegrees(fsmd)
    fused: Dict[int, int] = {}
    for state in fsmd.states:
        transition = state.transition
        if isinstance(transition, (int, NextState)):
            target = next(transition_targets(transition))
            if 0 <= target < n and target != state.id \
                    and indegree[target] == 1 and target != fsmd.entry:
                fused[state.id] = target
    entered = set(fused.values())
    # Fused cycles no state leads into are unreachable; they still get
    # (never dispatched) blocks, after the reachable ones.
    order = ([s for s in range(n) if s not in entered]
             + [s for s in range(n) if s in entered])
    blocks: List[List[int]] = []
    seen: Set[int] = set()
    for start in order:
        chain: List[int] = []
        current: Optional[int] = start
        while current is not None and current not in seen:
            chain.append(current)
            seen.add(current)
            current = fused.get(current)
        if chain:
            blocks.append(chain)
    return blocks


def _arm_leaves(transition, depth: int = 0) -> Iterator[Tuple[int, int]]:
    """Each state a transition names, with how many ``CondNext`` arms
    deep it sits."""
    if isinstance(transition, CondNext):
        for arm in (transition.if_true, transition.if_false):
            yield from _arm_leaves(arm, depth + 1)
    elif isinstance(transition, (int, NextState)):
        yield next(transition_targets(transition)), depth


def _emit_dispatch(em: Emitter, var: str, keys: Sequence[int],
                   body: Callable[[int], None]) -> None:
    """A balanced ``if var < k`` tree over the sorted ``keys``."""
    if len(keys) == 1:
        body(keys[0])
        return
    middle = len(keys) // 2
    em.line(f"if {var} < {keys[middle]}:")
    em.depth += 1
    _emit_dispatch(em, var, keys[:middle], body)
    em.depth -= 1
    em.line("else:")
    em.depth += 1
    _emit_dispatch(em, var, keys[middle:], body)
    em.depth -= 1


class SystemPlan:
    """The compiled form of an entire :class:`FSMDSystem`.

    Built once per system (see :func:`compile_system`).  Each run calls
    one generated function: :meth:`run` allocates fresh memories, passes
    them in with the arguments, and reads the outcome back.  The plain
    and the visit-counting functions are generated on first use."""

    def __init__(self, system: FSMDSystem):
        self.system = system
        # All specialisation time spent on this plan, and the part of it
        # that runs' profiles have already reported: each run reports only
        # what it paid, nothing on an already-built plan.
        self.compile_s = 0.0
        self._reported_s = 0.0
        self.fast = len(system.fsmds) == 1 and not any(
            state.channel_op() is not None
            for fsmd in system.fsmds
            for state in fsmd.states
        )
        self.global_slots: Dict[Symbol, int] = {}
        for symbol in system.global_registers:
            self.global_slots[symbol] = len(self.global_slots)
        multi = not self.fast
        lengths = _memory_lengths(system)
        self.compilers = [
            _MachineCompiler(fsmd, self.global_slots,
                             f"_{index}" if multi else "", lengths, self.fast)
            for index, fsmd in enumerate(system.fsmds)
        ]
        self._analysed = False
        self.machines: List[_MachinePlan] = [c.plan for c in self.compilers]
        # The channel behind each log the generated code appends to.
        self._channel_names: List[str] = []
        # Visit counter index -> (machine name, state label) per counter
        # slot it feeds, filled in by the generator.
        self._counters: List[List[Tuple[str, str]]] = []
        self._functions: Dict[bool, Tuple[str, Callable]] = {}

    def dump(self) -> str:
        """The generated Python source of the run function."""
        return self._function(False)[0]

    def state_intervals(self) -> List[Dict[int, Optional[Dict[Symbol,
                                                                Bounds]]]]:
        """Per machine, per state the run can enter, the interval proven
        for each private register on entry (None: never entered)."""
        self._analyse()
        return [compiler.state_intervals() for compiler in self.compilers]

    def _analyse(self) -> None:
        if not self._analysed:
            for compiler in self.compilers:
                compiler.analyse()
            self._analysed = True

    def _function(self, counting: bool) -> Tuple[str, Callable]:
        built = self._functions.get(counting)
        if built is None:
            started = perf_counter()
            self._analyse()
            generate = self._fast_source if self.fast else self._general_source
            source, counters = generate(counting)
            namespace: Dict[str, Any] = {
                "SimulationError": SimulationError,
                "InterpError": InterpError,
                "abs": abs,
                "_budget": "cycle budget of %d exhausted",
                "_names": tuple(plan.name for plan in self.machines),
            }
            name = "+".join(plan.name for plan in self.machines)
            exec(compile(source, f"<compiled-fsmd:{name}>", "exec"), namespace)
            built = (source, namespace["_run"])
            self._functions[counting] = built
            if counting:
                self._counters = counters
            self.compile_s += perf_counter() - started
        return built

    # -- generation: the single-machine fast path ---------------------------

    def _prologue(self, em: Emitter, compiler: _MachineCompiler,
                  index: int) -> None:
        sfx = compiler.sfx
        positions = {
            slot: position
            for position, (slot, _) in enumerate(compiler.plan.param_slots)
        }
        for slot in range(len(compiler.reg_slots)):
            source = (f"_args[{index}][{positions[slot]}]"
                      if slot in positions else "0")
            em.line(f"r{slot}{sfx} = {source}")
        for mem in range(len(compiler.mem_spec)):
            em.line(f"m{mem}{sfx} = _mems[{index}][{mem}]")
            em.line(f"_L{mem}{sfx} = len(m{mem}{sfx})")
        for vreg in sorted(compiler.wires, key=lambda v: v.id):
            em.line(f"v{vreg.id}{sfx} = 0")

    def _globals_tuple(self) -> str:
        slots = range(len(self.global_slots))
        return "(" + "".join(f"g{slot}, " for slot in slots) + ")"

    def _fast_source(self, counting: bool):
        compiler = self.compilers[0]
        fsmd = compiler.fsmd
        plan = compiler.plan
        blocks = compiler.blocks
        block_of = {chain[0]: index for index, chain in enumerate(blocks)}
        layout = BlockLayout(
            [chain[0] for chain in blocks], fsmd.entry,
            {chain[0]: list(_arm_leaves(fsmd.state(chain[-1]).transition))
             for chain in blocks},
            {chain[0]: len(chain) for chain in blocks},
            _MAX_ARM_NESTING,
        )
        heads = sorted(layout.dispatched)
        compiler.cold = set(block_of) - layout.looping
        n_blocks = len(blocks)
        counters: List[List[Tuple[str, str]]] = [
            [(plan.name, plan.labels[sid]) for sid in chain]
            for chain in blocks
        ] + [[(plan.name, label)] for label in plan.labels]
        lengths: Set[int] = set()
        em = Emitter()
        em.depth = 2

        def finish(result: Optional[str]) -> List[str]:
            value = "None" if result is None else result
            return [f"return cycle, 0, {value}, (cycle,),"
                    f" {self._globals_tuple()}"]

        # A state's ops lower to the same code wherever its block runs (a
        # superblock's two paths, a block's stepping path): lower them
        # once, and keep what its commit reads.
        lowered: Dict[int, tuple] = {}

        def segment(out: Emitter, sid: int, goto: Goto,
                    leave: Finish = finish) -> None:
            state = fsmd.state(sid)
            if sid not in lowered:
                compiler.enter(state)
                compiler._tmp = 0
                ops = Emitter()
                local = compiler.emit_ops(ops, state, "edge")
                lowered[sid] = (ops.lines, local, compiler.env,
                                compiler._local_bounds,
                                dict(compiler._folded), compiler._tmp)
            (lines, local, compiler.env, compiler._local_bounds,
             folded, compiler._tmp) = lowered[sid]
            compiler._folded = dict(folded)
            out.extend(lines)
            compiler.emit_commit(out, state, local, goto, leave)

        def fall_through(target: int) -> List[str]:
            return []

        def block(out: Emitter, head: int, branch: Goto,
                  tally: Optional[int]) -> None:
            index = block_of[head]
            chain = blocks[index]
            k = len(chain)

            def goto(target: int) -> List[str]:
                # A block run in place lowers its own states: keep what
                # this state assumes.
                saved = (compiler.env, compiler._local_bounds,
                         compiler._folded)
                lines = branch(target)
                (compiler.env, compiler._local_bounds,
                 compiler._folded) = saved
                return lines

            def last(position: int) -> Goto:
                return goto if position == k - 1 else fall_through

            if tally == STEP:
                # The iteration may not fit the budget: test every state.
                for position, sid in enumerate(chain):
                    out.line("if cycle >= max_cycles:")
                    out.line(f"    {_BUDGET}")
                    out.line("cycle += 1")
                    if counting:
                        out.line(f"_vc[{n_blocks + sid}] += 1")
                    segment(out, sid, last(position))
                return
            if tally is not None:
                # Run under the iteration's test: a ``return`` adds the
                # cycles of its path (other ways out are the layout's).
                def leave(result: Optional[str]) -> List[str]:
                    return [f"cycle += {tally}"] + finish(result)

                if counting:
                    out.line(f"_vc[{index}] += 1")
                for position, sid in enumerate(chain):
                    segment(out, sid, last(position), leave)
                return
            lengths.add(k)
            out.line(f"if cycle <= _m{k}:")
            out.depth += 1
            out.line(f"cycle += {k}")
            if counting:
                out.line(f"_vc[{index}] += 1")
            for position, sid in enumerate(chain):
                segment(out, sid, last(position))
            out.depth -= 1
            # Not enough budget for the whole block: step state by state
            # until it runs out (a fault on the way raises first).
            out.line("else:")
            out.depth += 1
            for position, sid in enumerate(chain[:-1], 1):
                out.line(f"if cycle + {position} > max_cycles:")
                out.line(f"    {_BUDGET}")
                if counting:
                    out.line(f"_vc[{n_blocks + sid}] += 1")
                segment(out, sid, fall_through)
            out.line(_BUDGET)
            out.depth -= 1

        def case(head: int) -> None:
            layout.walk_case(em, head, block)

        single = layout.single_case
        if single:
            # Nothing is dispatched: the entry's code is the whole run.
            em.depth = 1
            case(fsmd.entry)
        else:
            _emit_dispatch(em, "state", heads, case)
        head = Emitter()
        head.line("def _run(_args, _g, _mems, max_cycles, _vc, _logs):")
        head.depth = 1
        self._prologue(head, compiler, 0)
        for slot in range(len(self.global_slots)):
            head.line(f"g{slot} = _g[{slot}]")
        for k in sorted(lengths | layout.spans):
            head.line(f"_m{k} = max_cycles - {k}")
        head.line("cycle = 0")
        if not single:
            head.line(f"state = {fsmd.entry}")
            head.line("while True:")
        return head.source() + em.source(), counters

    # -- generation: the general multi-machine cycle ------------------------

    def _general_source(self, counting: bool):
        compilers = self.compilers
        channel_ids: Dict[Symbol, int] = {}
        first_offer: Dict[Tuple[int, OpKind], int] = {}
        writers: Dict[Symbol, Set[str]] = {}
        for k, compiler in enumerate(compilers):
            for state in compiler.fsmd.states:
                op = compiler.chan_op[state.id]
                if op is not None:
                    assert op.channel is not None
                    cid = channel_ids.setdefault(op.channel, len(channel_ids))
                    first_offer.setdefault((cid, op.kind), k)
                for symbol in state.latches:
                    if symbol.kind is SymbolKind.GLOBAL:
                        writers.setdefault(symbol, set()).add(
                            compiler.fsmd.name)
        self._channel_names = [c.name for c in channel_ids]
        # A machine's name stands for every machine that shares it.
        name_ids: Dict[str, int] = {}
        for index, plan in enumerate(self.machines):
            name_ids.setdefault(plan.name, index)
        raced = {s for s, names in writers.items() if len(names) > 1}
        counters: List[List[Tuple[str, str]]] = []
        bases: List[int] = []
        for plan in self.machines:
            bases.append(len(counters))
            counters.extend([(plan.name, label)] for label in plan.labels)

        phase1 = Emitter()
        phase3 = Emitter()
        phase1.depth = phase3.depth = 2
        for k, compiler in enumerate(compilers):
            fsmd = compiler.fsmd
            sfx = compiler.sfx

            def goto(target: int, sfx=sfx) -> List[str]:
                return [f"s{sfx} = {target}"]

            def finish(result: Optional[str], sfx=sfx) -> List[str]:
                lines = [f"d{sfx} = 1", f"f{sfx} = cycle + 1"]
                if result is not None:
                    lines.append(f"res{sfx} = {result}")
                return lines

            def race(symbol: Symbol, name=fsmd.name) -> List[str]:
                if symbol not in raced:
                    return []
                slot = self.global_slots[symbol]
                me = name_ids[name]
                prefix = f"global {symbol.name!r} written by "
                suffix = f" and {name} in the same cycle"
                return [
                    f"if gw{slot} >= 0 and gw{slot} != {me}:",
                    f"    raise SimulationError({prefix!r} + _names[gw{slot}]"
                    f" + {suffix!r})",
                    f"gw{slot} = {me}",
                ]

            bodies: Dict[int, Tuple[List[str], List[str]]] = {}
            # States whose commit waits for phase 3.
            parked: List[int] = []
            # In block order: a block's states lower one after the other.
            for state in (fsmd.state(sid) for block in compiler.blocks
                          for sid in block):
                one, three = Emitter(), Emitter()
                compiler.enter(state)
                compiler._tmp = 0
                if counting:
                    one.line(f"_vc[{bases[k] + state.id}] += 1")
                channel = compiler.chan_op[state.id]
                if channel is None and not _touches_globals(state):
                    # Nothing another machine sees or changes: evaluate
                    # and commit at once, in phase 1.
                    local = compiler.emit_ops(one, state, "edge")
                    compiler.emit_commit(one, state, local, goto, finish)
                    one.line("_adv = 1")
                    bodies[state.id] = (one.lines, [])
                    continue
                parked.append(state.id)
                one.line(f"p{sfx} = 1")
                if channel is None:
                    # Phase 1 evaluates and captures stores; phase 3
                    # applies them and commits (later machines see
                    # earlier machines' same-cycle global writes, exactly
                    # like the interpreter's latch pass).
                    local = compiler.emit_ops(one, state, "stage")
                    compiler.apply_stores(three)
                    compiler.emit_commit(three, state, local, goto, finish,
                                         race)
                    three.line("_adv = 1")
                    bodies[state.id] = (one.lines, three.lines)
                    continue
                # Phase 1 settles what does not wait on the rendezvous and
                # offers; phase 3, on a match, re-settles the state with
                # the received value and commits.
                cid = channel_ids[channel.channel]
                settled = compiler.emit_ops(one, state, "check",
                                            compiler.pre_skip_set(state))
                # The first sender's offer holds the value (``x<cid>``);
                # on a match the first receiver takes and logs it.
                mine, other = f"cs{cid}", f"cr{cid}"
                if channel.kind is OpKind.RECV:
                    mine, other = other, mine
                offer = [f"{mine} = {k}"]
                if channel.kind is OpKind.SEND:
                    value = compiler._expr(channel.operands[0], settled)
                    offer.append(f"x{cid} = {value}")
                if first_offer[cid, channel.kind] == k:
                    one.extend(offer)
                else:
                    one.line(f"if {mine} < 0:")
                    one.extend(["    " + line for line in offer])
                three.line(f"if {mine} == {k} and {other} >= 0:")
                three.depth += 1
                if channel.kind is OpKind.RECV:
                    assert channel.dest is not None
                    three.line(f"log{cid}.append(x{cid})")
                    try:
                        fitted = compiler._wrap_expr(f"x{cid}",
                                                     channel.dest.type)
                        three.line(f"v{channel.dest.id}{sfx} = {fitted}")
                    except InterpError as err:
                        three.line(f"raise InterpError({str(err)!r})")
                compiler._tmp = 0
                local = compiler.emit_ops(three, state, "edge")
                compiler.emit_commit(three, state, local, goto, finish, race)
                three.line("_adv = 1")
                three.depth -= 1
                three.line("else:")
                three.line("    _stl = 1")
                bodies[state.id] = (one.lines, three.lines)

            # Phase 1 dispatches every running machine; phase 3 only
            # those that parked there.
            ids = [state.id for state in fsmd.states]
            for em, part, guard, keys in (
                    (phase1, 0, f"not d{sfx}" if k > 0 else None, ids),
                    (phase3, 1, f"p{sfx}", parked)):
                if not keys:
                    continue
                if guard is not None:
                    em.line(f"if {guard}:")
                    em.depth += 1
                if part:
                    em.line(f"p{sfx} = 0")
                _emit_dispatch(em, f"s{sfx}", keys,
                               lambda sid, em=em, part=part:
                               em.extend(bodies[sid][part] or ["pass"]))
                if guard is not None:
                    em.depth -= 1

        em = Emitter()
        em.line("def _run(_args, _g, _mems, max_cycles, _vc, _logs):")
        em.depth = 1
        for k, compiler in enumerate(compilers):
            sfx = compiler.sfx
            self._prologue(em, compiler, k)
            em.line(f"s{sfx} = {compiler.fsmd.entry}")
            em.line(f"d{sfx} = p{sfx} = 0")
            em.line(f"f{sfx} = res{sfx} = None")
        for slot in range(len(self.global_slots)):
            em.line(f"g{slot} = _g[{slot}]")
        for cid in range(len(channel_ids)):
            em.line(f"log{cid} = _logs[{cid}]")
            em.line(f"x{cid} = 0")
        em.line("cycle = 0")
        em.line("stalls = 0")
        root = compilers[0].sfx
        em.line(f"while not d{root}:")
        em.depth += 1
        em.line("if cycle >= max_cycles:")
        em.line(f"    {_BUDGET}")
        for symbol in sorted(raced, key=lambda s: self.global_slots[s]):
            em.line(f"gw{self.global_slots[symbol]} = -1")
        for cid in range(len(channel_ids)):
            em.line(f"cs{cid} = cr{cid} = -1")
        em.line("_adv = _stl = 0")
        em.lines.extend(phase1.lines)
        # The match (the interpreter's phase 2) happens in phase 3: one
        # transfer per channel per cycle, first sender with first receiver
        # in machine order.
        em.lines.extend(phase3.lines)
        em.line("if not _adv:")
        em.depth += 1
        em.line("if _stl:")
        em.line("    _blocked = []")
        for k, compiler in enumerate(compilers):
            offering = [s.id for s in compiler.fsmd.states
                        if compiler.chan_op[s.id] is not None]
            if offering:
                em.line(f"    if not d{compiler.sfx} and s{compiler.sfx}"
                        f" in {tuple(offering)!r}:")
                em.line(f"        _blocked.append(_names[{k}])")
        em.line("    raise SimulationError('rendezvous deadlock: '"
                " + ', '.join(sorted(_blocked)))")
        em.line("raise SimulationError('no machine could advance')")
        em.depth -= 1
        em.line("if _stl:")
        em.line("    stalls += 1")
        em.line("cycle += 1")
        em.depth -= 1
        results = ", ".join(f"f{c.sfx}" for c in compilers)
        em.line(f"return cycle, stalls, res{root}, ({results},),"
                f" {self._globals_tuple()}")
        return em.source(), counters

    # -- running ------------------------------------------------------------

    def _instantiate(
        self,
        args: Sequence[int],
        process_args: Optional[Dict[str, Sequence[int]]],
    ):
        system = self.system
        g = [0] * len(self.global_slots)
        for symbol in system.global_registers:
            init = system.global_inits.get(symbol.name, 0)
            g[self.global_slots[symbol]] = (
                wrap(init, symbol.type) if isinstance(init, int) else 0
            )
        global_mems: Dict[Symbol, List[int]] = {}
        for symbol in system.global_arrays:
            assert isinstance(symbol.type, ArrayType)
            words = [0] * symbol.type.size
            init = system.global_inits.get(symbol.name)
            if isinstance(init, list):
                for i, v in enumerate(init):
                    words[i] = v
            global_mems[symbol] = words
        for symbol, image in system.memory_images.items():
            if symbol.kind is SymbolKind.GLOBAL:
                global_mems[symbol] = list(image)
        process_args = process_args or {}
        machine_args: List[List[int]] = []
        machine_mems: List[List[List[int]]] = []
        for index, plan in enumerate(self.machines):
            values = args if index == 0 else process_args.get(plan.name, ())
            if len(values) != len(plan.param_slots):
                raise SimulationError(
                    f"{plan.name} expects {len(plan.param_slots)} arguments,"
                    f" got {len(values)}"
                )
            machine_args.append([
                wrap(value, symbol.type)
                for (_, symbol), value in zip(plan.param_slots, values)
            ])
            mems: List[List[int]] = []
            for kind, symbol in plan.mem_spec:
                if kind == "global":
                    mems.append(global_mems[symbol])
                else:
                    assert isinstance(symbol.type, ArrayType)
                    size = symbol.type.size
                    image = system.memory_images.get(symbol)
                    mems.append(
                        list(image) + [0] * (size - len(image))
                        if image is not None else [0] * size
                    )
            machine_mems.append(mems)
        return g, global_mems, machine_args, machine_mems

    def run(
        self,
        args: Sequence[int] = (),
        process_args: Optional[Dict[str, Sequence[int]]] = None,
        max_cycles: int = 2_000_000,
        profile: Optional[SimProfile] = None,
    ) -> SimResult:
        _, function = self._function(profile is not None)
        paid, self._reported_s = self.compile_s - self._reported_s, self.compile_s
        g, global_mems, machine_args, machine_mems = self._instantiate(
            args, process_args
        )
        logs: Dict[str, List[int]] = {c.name: [] for c in self.system.channels}
        counts = [0] * len(self._counters) if profile is not None else None
        started = perf_counter()
        try:
            cycle, stalls, value, finishes, gvals = function(
                machine_args, g, machine_mems, max_cycles, counts,
                [logs[name] for name in self._channel_names],
            )
        finally:
            if profile is not None:
                for count, feeds in zip(counts, self._counters):
                    if count:
                        for machine, label in feeds:
                            profile.visit(machine, label, count)
        if profile is not None:
            profile.backend = "compiled"
            profile.compile_s = paid
            profile.execute_s = perf_counter() - started
            profile.cycles = cycle
        result = SimResult(
            value=value,
            cycles=finishes[0] if finishes[0] is not None else cycle,
            stall_cycles=stalls,
        )
        for symbol in self.system.global_registers:
            result.globals[symbol.name] = gvals[self.global_slots[symbol]]
        for symbol in self.system.global_arrays:
            result.globals[symbol.name] = list(global_mems[symbol])
        result.channel_log = {
            name: list(values) for name, values in logs.items()
        }
        for plan, finish in zip(self.machines, finishes):
            result.per_process_cycles[plan.name] = (
                finish if finish is not None else cycle
            )
        return result


def compile_system(system: FSMDSystem) -> SystemPlan:
    """Compile ``system`` (cached: repeated calls return the same plan)."""
    plan = getattr(system, "_compiled_plan", None)
    if isinstance(plan, SystemPlan) and plan.system is system:
        return plan
    check_system(system)
    started = perf_counter()
    plan = SystemPlan(system)
    plan.compile_s = perf_counter() - started
    system._compiled_plan = plan        # cache on the (plain) dataclass
    return plan


def simulate_compiled(
    system: FSMDSystem,
    args: Sequence[int] = (),
    max_cycles: int = 2_000_000,
    process_args: Optional[Dict[str, Sequence[int]]] = None,
    profile: Optional[SimProfile] = None,
) -> SimResult:
    """Drop-in replacement for :func:`fsmd_sim.simulate`."""
    return compile_system(system).run(
        args=args, process_args=process_args, max_cycles=max_cycles,
        profile=profile,
    )
