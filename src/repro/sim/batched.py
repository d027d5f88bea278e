"""Batched lockstep FSMD simulation backend.

The compiled backend (:mod:`compiled`) removed per-cycle interpretation
overhead but still runs one program, one argument set at a time — so a
fuzz campaign that simulates the same FSMD on 256 inputs pays 256
dispatch loops over one specialisation.  This backend specialises the
FSMD **once** and steps N independent runs in lockstep:

* the register file, cross-state wires, and globals become ``(slots, N)``
  int64 arrays, memories ``(N, size)`` arrays — one column/row per lane;
* each state is lowered (reusing :class:`compiled._MachineCompiler`'s
  slot layout and wrap algebra) into a NumPy function over the lane index
  vector of whichever lanes currently sit in that state — the divergence
  mask: lanes in different states are dispatched as separate groups of
  the same cycle, lanes in the same state share one vectorized pass;
* two's-complement wraparound stays mask arithmetic.  int64 overflow is
  modular, so masking extracts exact low bits for widths up to 62; any
  wider type makes the plan fall back to the scalar engine;
* finished lanes retire (their ``finish`` cycle recorded, exactly like
  the scalar backends) and stop burning work;
* per-lane faults never poison the batch: a lane that divides by zero,
  shifts negatively, or indexes out of bounds is given a safe substitute
  value, its stores/latches/results for the cycle are suppressed, and it
  retires into a **scalar replay** through the compiled backend — which
  reproduces the exact error class and message the scalar run raises.
  Cycle-budget exhaustion is detected natively with the scalar message.

NumPy is optional.  Without it (or for multi-machine/rendezvous systems,
or wide types) the ``"lanes"`` engine keeps the same :class:`BatchResult`
API: the batch still amortizes the one-time specialisation by running
every lane sequentially through the shared :class:`compiled.SystemPlan`
— the plan's slot lists already are the struct-of-arrays layout, the
lanes just share them one at a time.  Set ``REPRO_NO_NUMPY=1`` to force
this path (the CI matrix leg without NumPy installed exercises it too).

``simulate(..., sim_backend="batched")`` is the scalar view: a one-lane
batch whose errored lane re-raises the scalar backend's exact exception,
so "batched" is a drop-in third backend everywhere the other two go.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..interp.machine import _as_int_type, wrap
from ..lang.errors import InterpError
from ..lang.symtab import SymbolKind
from ..lang.types import ArrayType
from ..ir.ops import Const, Operand, Operation, OpKind, VarRead, VReg
from ..rtl.fsmd import CondNext, Done, FSMDSystem, NextState, State
from .compiled import (
    SystemPlan,
    _COMPARISONS,
    _Emitter,
    _MachineCompiler,
    _NeverDefined,
    _WRAPPING,
    compile_system,
)
from .fsmd_sim import SimResult, SimulationError
from .profile import SimProfile

if os.environ.get("REPRO_NO_NUMPY"):
    _np = None
else:
    try:
        import numpy as _np  # type: ignore[no-redef]
    except Exception:  # pragma: no cover - exercised via REPRO_NO_NUMPY
        _np = None

HAVE_NUMPY = _np is not None

#: Widest integer type the vector engine handles exactly: int64 arithmetic
#: is modular (mod 2**64), so masking recovers the true low bits only when
#: the wrap mask itself fits with headroom for the signed-wrap bias.
MAX_VECTOR_WIDTH = 62

ENGINES = ("auto", "vector", "lanes")

_ERROR_CLASSES = {
    "SimulationError": SimulationError,
    "InterpError": InterpError,
}


@dataclass
class BatchLane:
    """One lane's outcome: a :class:`SimResult` or a captured error."""

    args: Tuple[int, ...]
    result: Optional[SimResult] = None
    error: str = ""
    error_kind: str = ""        # exception class name ("SimulationError", ...)

    @property
    def ok(self) -> bool:
        return not self.error and self.result is not None

    def error_class(self):
        return _ERROR_CLASSES.get(self.error_kind, SimulationError)

    def raise_error(self) -> None:
        """Re-raise this lane's failure as the scalar backend would."""
        raise self.error_class()(self.error)


@dataclass
class BatchResult:
    """What one batched simulation produced, lane by lane."""

    lanes: List[BatchLane] = field(default_factory=list)
    engine: str = ""            # "vector" | "lanes"
    compile_s: float = 0.0
    execute_s: float = 0.0

    @property
    def n_lanes(self) -> int:
        return len(self.lanes)

    @property
    def ok_lanes(self) -> List[BatchLane]:
        return [lane for lane in self.lanes if lane.ok]

    @property
    def error_lanes(self) -> List[BatchLane]:
        return [lane for lane in self.lanes if not lane.ok]


class _Unvectorizable(Exception):
    """Compile-time marker: this state (or plan) has no exact vector form.

    Never an error — the state becomes a trap-all stub whose lanes replay
    through the scalar backend (bit-exact by construction), or the whole
    plan falls back to the lane-sequential engine."""


class _VectorMachineCompiler(_MachineCompiler):
    """Lowers one fast-path FSMD into vectorized per-state functions.

    Subclasses the scalar compiler so slot layout, wrap algebra, and op
    coverage cannot drift: only the expression/statement *forms* change
    (gathers over the lane index vector ``_ix``, ``np.where`` selects,
    trap masks instead of raises).  A state the vector form cannot
    express exactly compiles to a trap-all stub instead."""

    def __init__(self, fsmd, global_slots):
        super().__init__(fsmd, global_slots)
        self._risky = False             # current state accumulates a trap mask
        self.trap_states: Set[int] = set()
        self.wire_slots: Dict[Any, int] = {}

    # -- wire layout ---------------------------------------------------------

    def _wslot(self, vreg) -> int:
        slot = self.wire_slots.get(vreg)
        if slot is None:
            slot = len(self.wire_slots)
            self.wire_slots[vreg] = slot
        return slot

    def assign_slots(self) -> None:
        """Decide which vregs live in the wire array ``w``: those some
        reader cannot see as a local of the producing state's function —
        a read in a different state (each state is its own function)."""
        for state in self.fsmd.states:
            local: Set[Any] = set()
            for op in state.ops:
                if op.kind in (OpKind.SEND, OpKind.RECV):
                    continue
                for vreg in op.operands:
                    if (isinstance(vreg, VReg) and vreg not in local
                            and vreg in self.defined):
                        self._wslot(vreg)
                if op.dest is not None:
                    local.add(op.dest)
            for vreg in _transition_reads(state):
                if vreg not in local and vreg in self.defined:
                    self._wslot(vreg)

    # -- vector expression forms -------------------------------------------

    def _expr(self, operand: Operand, local) -> str:
        if isinstance(operand, Const):
            if abs(int(operand.value)) >= (1 << MAX_VECTOR_WIDTH):
                raise _Unvectorizable(f"constant {operand.value} too wide")
            return repr(operand.value)
        if isinstance(operand, VarRead):
            symbol = operand.var
            if symbol.kind is SymbolKind.GLOBAL:
                return f"g[{self._gslot(symbol)}][_ix]"
            return f"r[{self._rslot(symbol)}][_ix]"
        if operand in local:
            return f"v{operand.id}"
        if operand in self.defined:
            return f"w[{self._wslot(operand)}][_ix]"
        raise _NeverDefined(operand)

    def _wrap_expr(self, expr: str, value_type) -> str:
        rt = _as_int_type(value_type)       # may raise InterpError
        if rt.width > MAX_VECTOR_WIDTH:
            raise _Unvectorizable(f"width {rt.width} > {MAX_VECTOR_WIDTH}")
        return super()._wrap_expr(expr, value_type)

    def _assign_dest(self, em: _Emitter, op: Operation, rhs: str,
                     local) -> None:
        assert op.dest is not None
        name = f"v{op.dest.id}"
        em.line(f"{name} = {rhs}")
        local.add(op.dest)
        slot = self.wire_slots.get(op.dest)
        if slot is not None:
            # Trapped lanes write garbage here, harmlessly: they retire
            # this cycle, so no later state reads their wire column.
            em.line(f"w[{slot}][_ix] = {name}")

    # -- op lowering --------------------------------------------------------

    def _emit_vop(self, em: _Emitter, op: Operation, local) -> None:
        kind = op.kind
        if kind is OpKind.BINARY:
            self._emit_binary(em, op, local)
        elif kind is OpKind.UNARY:
            self._emit_unary(em, op, local)
        elif kind is OpKind.CAST:
            assert op.dest is not None
            rhs = self._wrap_expr(self._expr(op.operands[0], local),
                                  op.dest.type)
            self._assign_dest(em, op, rhs, local)
        elif kind is OpKind.SELECT:
            assert op.dest is not None
            cond = self._expr(op.operands[0], local)
            if_true = self._expr(op.operands[1], local)
            if_false = self._expr(op.operands[2], local)
            chosen = f"_whr(({cond}) != 0, ({if_true}), ({if_false}))"
            self._assign_dest(
                em, op, self._wrap_expr(chosen, op.dest.type), local
            )
        elif kind is OpKind.LOAD:
            self._emit_load(em, op, local)
        elif kind is OpKind.STORE:
            self._emit_store(em, op, local, "temps")
        elif kind in (OpKind.BARRIER, OpKind.DELAY, OpKind.NOP):
            pass
        else:
            # The scalar form raises unconditionally; every lane entering
            # this state errors, so trap them all and let replay report it.
            raise _Unvectorizable(f"cannot vectorize {op.kind}")

    def _emit_binary(self, em: _Emitter, op: Operation, local) -> None:
        assert op.dest is not None
        a = self._expr(op.operands[0], local)
        b = self._expr(op.operands[1], local)
        o = op.op
        if o in _WRAPPING:
            rhs = self._wrap_expr(f"({a}) {o} ({b})", op.dest.type)
        elif o in _COMPARISONS:
            rhs = f"_whr(({a}) {o} ({b}), 1, 0)"
        elif o == "&&":
            rhs = f"_whr((({a}) != 0) & (({b}) != 0), 1, 0)"
        elif o == "||":
            rhs = f"_whr((({a}) != 0) | (({b}) != 0), 1, 0)"
        elif o == "/" or o == "%":
            rt = _as_int_type(op.dest.type)
            self._risky = True
            ta, tb = self._temp("_a"), self._temp("_b")
            tz, tq = self._temp("_z"), self._temp("_q")
            em.line(f"{ta} = _ari({a}, _n)")
            em.line(f"{tb} = _ari({b}, _n)")
            em.line(f"{tz} = ({tb} == 0)")
            em.line(f"if {tz}.any():")
            em.line(f"    _tr |= {tz}")
            em.line(f"    {tb} = _np.where({tz}, 1, {tb})")
            # abs//abs with a sign fix = truncation toward zero, the C
            # semantics both scalar backends pin.
            em.line(f"{tq} = _np.abs({ta}) // _np.abs({tb})")
            em.line(
                f"{tq} = _np.where(({ta} < 0) != ({tb} < 0), -{tq}, {tq})"
            )
            if o == "/":
                rhs = self._wrap_expr(tq, rt)
            else:
                rhs = self._wrap_expr(f"{ta} - {tq} * {tb}", rt)
        elif o == "<<" or o == ">>":
            rt = _as_int_type(op.dest.type)
            if rt.width > MAX_VECTOR_WIDTH:
                raise _Unvectorizable(f"shift width {rt.width}")
            self._risky = True
            tb, tn = self._temp("_b"), self._temp("_g")
            em.line(f"{tb} = _ari({b}, _n)")
            em.line(f"{tn} = ({tb} < 0)")
            em.line(f"if {tn}.any():")
            em.line(f"    _tr |= {tn}")
            em.line(f"    {tb} = _np.where({tn}, 0, {tb})")
            em.line(f"{tb} = _np.where({tb} > {rt.width}, {rt.width}, {tb})")
            rhs = self._wrap_expr(f"({a}) {o} {tb}", rt)
        else:
            raise _Unvectorizable(f"unknown binary operator {o!r}")
        self._assign_dest(em, op, rhs, local)

    def _emit_unary(self, em: _Emitter, op: Operation, local) -> None:
        assert op.dest is not None
        a = self._expr(op.operands[0], local)
        o = op.op
        if o == "-":
            rhs = self._wrap_expr(f"-({a})", op.dest.type)
        elif o == "~":
            rhs = self._wrap_expr(f"~({a})", op.dest.type)
        elif o == "!":
            rhs = f"_whr(({a}) == 0, 1, 0)"
        else:
            raise _Unvectorizable(f"unknown unary operator {o!r}")
        self._assign_dest(em, op, rhs, local)

    def _emit_load(self, em: _Emitter, op: Operation, local) -> None:
        assert op.dest is not None and op.array is not None
        mem = self._mslot(op.array)
        index = self._expr(op.operands[0], local)
        ti = self._temp("_i")
        em.line(f"{ti} = _ari({index}, _n)")
        if self.fsmd.tolerant_memory:
            tg = self._temp("_g")
            em.line(f"{tg} = (({ti} >= 0) & ({ti} < _L{mem}))")
            rhs = (
                f"_np.where({tg}, "
                f"m{mem}[_ix, _np.where({tg}, {ti}, 0)], 0)"
            )
        else:
            self._risky = True
            tb = self._temp("_o")
            em.line(f"{tb} = (({ti} < 0) | ({ti} >= _L{mem}))")
            em.line(f"if {tb}.any():")
            em.line(f"    _tr |= {tb}")
            em.line(f"    {ti} = _np.where({tb}, 0, {ti})")
            rhs = f"m{mem}[_ix, {ti}]"
        self._assign_dest(em, op, rhs, local)

    def _emit_store(self, em: _Emitter, op: Operation, local,
                    store_mode: str) -> None:
        assert op.array is not None
        mem = self._mslot(op.array)
        index = self._expr(op.operands[0], local)
        ti = self._temp("_i")
        em.line(f"{ti} = _ari({index}, _n)")
        cond: Optional[str] = None
        if self.fsmd.tolerant_memory:
            cond = self._temp("_c")
            em.line(f"{cond} = (({ti} >= 0) & ({ti} < _L{mem}))")
        else:
            self._risky = True
            tb = self._temp("_o")
            em.line(f"{tb} = (({ti} < 0) | ({ti} >= _L{mem}))")
            em.line(f"if {tb}.any():")
            em.line(f"    _tr |= {tb}")
            em.line(f"    {ti} = _np.where({tb}, 0, {ti})")
        tv = self._temp("_v")
        em.line(f"{tv} = {self._expr(op.operands[1], local)}")
        self._vstores.append((mem, ti, tv, cond))

    def _apply_vstores(self, em: _Emitter) -> None:
        """Scatter buffered stores, in op order, at the clock edge.

        A risky state masks every store with ``_ok`` so a trapped lane's
        whole cycle is suppressed — matching the scalar backend, where the
        raise fires before any buffered store is applied."""
        for mem, ti, tv, cond in self._vstores:
            if self._risky and cond is not None:
                mask = f"({cond} & _ok)"
            elif self._risky:
                mask = "_ok"
            else:
                mask = cond
            if mask is None:
                em.line(f"m{mem}[_ix, {ti}] = {tv}")
            else:
                sm = self._temp("_s")
                em.line(f"{sm} = {mask}")
                em.line(
                    f"m{mem}[_ix[{sm}], {ti}[{sm}]] = _msk({tv}, {sm})"
                )
        self._vstores = []

    # -- transition + latches (the clock edge) ------------------------------

    def _walk_vtransition(self, em: _Emitter, tr, local):
        """Lower the transition tree to (next, result, has_result) exprs.

        Conditions become 0/1 temps; branches merge through ``_whr`` so
        every lane takes its own path.  Returns expression strings whose
        reads all happen before any latch writes (the caller snapshots
        them into temps first)."""
        if isinstance(tr, int):
            return str(tr), "0", "0"
        if isinstance(tr, NextState):
            return str(tr.target), "0", "0"
        if isinstance(tr, Done):
            if tr.value is None:
                return "-1", "0", "0"
            return "-1", f"({self._expr(tr.value, local)})", "1"
        if isinstance(tr, CondNext):
            cond = self._expr(tr.cond, local)
            tc = self._temp("_cnd")
            em.line(f"{tc} = (({cond}) != 0)")
            n1, r1, h1 = self._walk_vtransition(em, tr.if_true, local)
            n2, r2, h2 = self._walk_vtransition(em, tr.if_false, local)
            return (
                f"_whr({tc}, {n1}, {n2})",
                f"_whr({tc}, {r1}, {r2})",
                f"_whr({tc}, {h1}, {h2})",
            )
        raise _Unvectorizable("state has no transition")

    def _emit_vcommit(self, em: _Emitter, state: State, local) -> None:
        has_done = _has_done(state.transition)
        nx, res, has = self._walk_vtransition(em, state.transition, local)
        # Snapshot everything the edge reads *before* any latch writes,
        # mirroring the scalar backend's read-then-write ordering.
        em.line(f"_nxK = {nx}")
        if has_done:
            em.line(f"_rsK = {res}")
            em.line(f"_hsK = {has}")
        writes = []
        for symbol, value in state.latches.items():
            temp = self._temp("_l")
            em.line(f"{temp} = {self._expr(value, local)}")
            writes.append((symbol, temp))
        if self._risky:
            em.line("_ok = ~_tr")
        self._apply_vstores(em)
        if writes and self._risky:
            em.line("_lsel = _ix[_ok]")
        for symbol, temp in writes:
            wrapped = self._wrap_expr(temp, symbol.type)
            wt = self._temp("_lw")
            em.line(f"{wt} = {wrapped}")
            if symbol.kind is SymbolKind.GLOBAL:
                target = f"g[{self._gslot(symbol)}]"
            else:
                target = f"r[{self._rslot(symbol)}]"
            if self._risky:
                em.line(f"{target}[_lsel] = _msk({wt}, _ok)")
            else:
                em.line(f"{target}[_ix] = {wt}")
        em.line("_nxA = _ari(_nxK, _n)")
        if has_done:
            rt = self.fsmd.return_type
            if rt is not None and rt.bit_width > 0:
                result_expr = self._wrap_expr("_rsK", rt)
            else:
                result_expr = "_rsK"
            if self._risky:
                em.line("_dn = ((_nxA < 0) & _ok)")
            else:
                em.line("_dn = (_nxA < 0)")
            em.line("if _dn.any():")
            em.line("    _di = _ix[_dn]")
            em.line("    _hh = (_msk(_ari(_hsK, _n), _dn) != 0)")
            em.line("    resok[_di] = _hh")
            em.line(
                f"    res[_di] = _np.where(_hh,"
                f" _msk(_ari({result_expr}, _n), _dn), 0)"
            )
        em.line(f"return _nxA, {'_tr' if self._risky else 'None'}")

    # -- per-state functions ------------------------------------------------

    def _emit_vector_state(self, em: _Emitter, state: State) -> None:
        body = _Emitter()
        body.depth = em.depth + 1
        local: Set[Any] = set()
        self._vstores: List[Tuple[int, str, str, Optional[str]]] = []
        self._risky = False
        self._tmp = 0
        try:
            for op in state.ops:
                if op.kind in (OpKind.SEND, OpKind.RECV):
                    raise _Unvectorizable("channel op on the fast path")
                self._emit_vop(body, op, local)
            self._emit_vcommit(body, state, local)
        except (_Unvectorizable, _NeverDefined, InterpError):
            # No exact vector form (or the scalar form raises for every
            # lane): trap every lane that enters; the scalar replay
            # reproduces the exact behaviour, error or not.
            self.trap_states.add(state.id)
            em.line(f"def s{state.id}(_ix, _n):")
            em.line("    return (_np.full(_n, -2, dtype=_np.int64),")
            em.line("            _np.ones(_n, dtype=_np.bool_))")
            return
        em.line(f"def s{state.id}(_ix, _n):")
        if self._risky:
            em.line("    _tr = _np.zeros(_n, dtype=_np.bool_)")
        em.lines.extend(body.lines)

    def compile_vector(self):
        self.assign_slots()
        em = _Emitter()
        em.line("def _vfactory(r, w, g, mems, res, resok):")
        em.depth += 1
        body_mark = len(em.lines)
        states = self.fsmd.states
        for state in states:
            self._emit_vector_state(em, state)
        names = ", ".join(f"s{state.id}" for state in states)
        em.line(f"return [{names}]")
        prologue = _Emitter()
        prologue.depth = 1
        for index in range(len(self.mem_spec)):
            prologue.line(f"m{index} = mems[{index}]")
            prologue.line(f"_L{index} = m{index}.shape[1]")
        em.lines[body_mark:body_mark] = prologue.lines
        plan = self.plan
        plan.source = em.source()
        plan.n_regs = len(self.reg_slots)
        plan.n_wires = len(self.wire_slots)
        plan.mem_spec = self.mem_spec
        namespace: Dict[str, Any] = {
            "_np": _np,
            "_ari": _as_lane_array,
            "_msk": _mask_value,
            "_whr": _where,
        }
        code = compile(plan.source, f"<batched-fsmd:{self.fsmd.name}>", "exec")
        exec(code, namespace)
        plan.factory = namespace["_vfactory"]
        return plan


def _has_done(transition) -> bool:
    if isinstance(transition, Done):
        return True
    if isinstance(transition, CondNext):
        return _has_done(transition.if_true) or _has_done(transition.if_false)
    return False


def _transition_reads(state: State) -> List[VReg]:
    """The vregs a state's transition tree and latches read."""
    reads: List[VReg] = []

    def walk(tr) -> None:
        if isinstance(tr, CondNext):
            if isinstance(tr.cond, VReg):
                reads.append(tr.cond)
            walk(tr.if_true)
            walk(tr.if_false)
        elif isinstance(tr, Done) and isinstance(tr.value, VReg):
            reads.append(tr.value)

    walk(state.transition)
    reads.extend(v for v in state.latches.values() if isinstance(v, VReg))
    return reads


# -- runtime helpers closed over by the generated code -----------------------

def _as_lane_array(x, n):
    """Broadcast a scalar (or 0-d array) to an int64 lane vector."""
    if isinstance(x, _np.ndarray) and x.ndim:
        return x
    return _np.full(n, int(x), dtype=_np.int64)


def _mask_value(x, m):
    """Select masked lanes from an array; scalars broadcast as-is."""
    if isinstance(x, _np.ndarray) and x.ndim:
        return x[m]
    return x


def _where(c, a, b):
    """np.where that keeps pure-scalar expressions scalar."""
    if isinstance(c, _np.ndarray):
        return _np.where(c, a, b)
    return a if c else b


def _memory_words(system: FSMDSystem, kind: str, symbol) -> List[int]:
    """One lane's initial memory contents, exactly as the scalar plan
    builds them (a global's memory image *replaces* the declared words,
    length included; a local's image is padded to the declared size)."""
    assert isinstance(symbol.type, ArrayType)
    size = symbol.type.size
    image = system.memory_images.get(symbol)
    if kind == "global":
        if image is not None:
            return list(image)
        words = [0] * size
        init = system.global_inits.get(symbol.name)
        if isinstance(init, list):
            for i, v in enumerate(init):
                words[i] = v
        return words
    if image is not None:
        return list(image) + [0] * (size - len(image))
    return [0] * size


def _width_fits(value_type) -> bool:
    try:
        rt = _as_int_type(value_type)
    except InterpError:
        return False
    return rt.width <= MAX_VECTOR_WIDTH


class _VectorPlan:
    """The vectorized form of a fast-path system, built once and cached."""

    def __init__(self, system: FSMDSystem, scalar: SystemPlan):
        if not HAVE_NUMPY:
            raise _Unvectorizable("NumPy unavailable")
        if not scalar.fast:
            raise _Unvectorizable("multi-machine / rendezvous system")
        self.system = system
        self.scalar = scalar
        self.compile_s = 0.0
        fsmd = system.fsmds[0]
        # Storage-level width gate: every array cell is an int64.  Ops on
        # wider types trap per state, but params/globals/memories must
        # also *hold* their wrapped values exactly.
        storage = list(fsmd.params) + list(fsmd.registers)
        storage += list(system.global_registers)
        storage += list(system.global_arrays)
        storage += list(system.memory_images)
        for symbol in storage:
            stype = symbol.type
            if isinstance(stype, ArrayType):
                stype = stype.element
            if not _width_fits(stype):
                raise _Unvectorizable(f"{symbol.name}: storage too wide")
        started = perf_counter()
        compiler = _VectorMachineCompiler(fsmd, scalar.global_slots)
        self.plan = compiler.compile_vector()
        self.trap_states = compiler.trap_states
        self.compile_s = perf_counter() - started

    def dump(self) -> str:
        """The generated vector source, for debugging."""
        return self.plan.source

    # -- per-batch storage --------------------------------------------------

    def _instantiate(self, arg_sets: Sequence[Sequence[int]]):
        system, plan = self.system, self.plan
        n = len(arg_sets)
        r = _np.zeros((max(plan.n_regs, 1), n), dtype=_np.int64)
        w = _np.zeros((max(plan.n_wires, 1), n), dtype=_np.int64)
        g = _np.zeros((max(len(self.scalar.global_slots), 1), n),
                      dtype=_np.int64)
        for symbol, slot in self.scalar.global_slots.items():
            init = system.global_inits.get(symbol.name, 0)
            if isinstance(init, int):
                g[slot, :] = wrap(init, symbol.type)
        mems: List[Any] = []
        for kind, symbol in plan.mem_spec:
            base = _memory_words(system, kind, symbol)
            mems.append(_np.tile(
                _np.array(base, dtype=_np.int64), (n, 1)
            ))
        # Lanes whose argument count is wrong go straight to scalar
        # replay, which raises the backend's exact arity error.
        replay = _np.zeros(n, dtype=_np.bool_)
        for lane, args in enumerate(arg_sets):
            if len(args) != len(plan.param_slots):
                replay[lane] = True
                continue
            for (slot, symbol), value in zip(plan.param_slots, args):
                r[slot, lane] = wrap(value, symbol.type)
        res = _np.zeros(n, dtype=_np.int64)
        resok = _np.zeros(n, dtype=_np.bool_)
        fns = plan.factory(r, w, g, mems, res, resok)
        return r, g, mems, res, resok, fns, replay

    # -- the lockstep driver ------------------------------------------------

    def run_batch(
        self,
        arg_sets: Sequence[Tuple[int, ...]],
        max_cycles: int,
        profile: Optional[SimProfile] = None,
    ) -> List[BatchLane]:
        n = len(arg_sets)
        _, g, mems, res, resok, fns, replay = self._instantiate(arg_sets)
        plan = self.plan
        state = _np.full(n, plan.entry, dtype=_np.int64)
        active = ~replay
        finish = _np.zeros(n, dtype=_np.int64)
        budget = _np.zeros(n, dtype=_np.bool_)
        labels, name = plan.labels, plan.name
        cycle = 0
        while active.any():
            if cycle >= max_cycles:
                budget |= active
                active[:] = False
                break
            act = _np.nonzero(active)[0]
            sts = state[act]
            for sid in _np.unique(sts):
                grp = act[sts == sid]
                if profile is not None:
                    profile.visit(name, labels[sid], count=int(grp.size))
                nx, trapped = fns[int(sid)](grp, int(grp.size))
                if trapped is not None and trapped.any():
                    bad = grp[trapped]
                    replay[bad] = True
                    active[bad] = False
                    keep = ~trapped
                    grp, nx = grp[keep], nx[keep]
                done = nx < 0
                if done.any():
                    fin = grp[done]
                    active[fin] = False
                    finish[fin] = cycle + 1
                state[grp] = nx
            cycle += 1

        budget_error = f"cycle budget of {max_cycles} exhausted"
        lanes: List[BatchLane] = []
        for i in range(n):
            args = tuple(arg_sets[i])
            if replay[i]:
                lanes.append(_scalar_lane(
                    self.scalar, args, None, max_cycles
                ))
            elif budget[i]:
                lanes.append(BatchLane(
                    args=args, error=budget_error,
                    error_kind="SimulationError",
                ))
            else:
                lanes.append(BatchLane(
                    args=args,
                    result=self._lane_result(
                        i, res, resok, finish, g, mems
                    ),
                ))
        return lanes

    def _lane_result(self, i, res, resok, finish, g, mems) -> SimResult:
        system = self.system
        result = SimResult(
            value=int(res[i]) if resok[i] else None,
            cycles=int(finish[i]),
            stall_cycles=0,
        )
        for symbol in system.global_registers:
            result.globals[symbol.name] = int(
                g[self.scalar.global_slots[symbol], i]
            )
        referenced = {
            symbol: index
            for index, (kind, symbol) in enumerate(self.plan.mem_spec)
            if kind == "global"
        }
        for symbol in system.global_arrays:
            index = referenced.get(symbol)
            if index is not None:
                result.globals[symbol.name] = [
                    int(v) for v in mems[index][i]
                ]
            else:
                result.globals[symbol.name] = _memory_words(
                    system, "global", symbol
                )
        result.channel_log = {c.name: [] for c in system.channels}
        result.per_process_cycles[self.plan.name] = int(finish[i])
        return result


def _scalar_lane(
    plan: SystemPlan,
    args: Tuple[int, ...],
    process_args,
    max_cycles: int,
    profile: Optional[SimProfile] = None,
) -> BatchLane:
    """Run one lane through the scalar compiled plan, capturing errors."""
    try:
        result = plan.run(
            args=args, process_args=process_args,
            max_cycles=max_cycles, profile=profile,
        )
    except InterpError as failure:        # SimulationError subclasses it
        return BatchLane(
            args=args,
            error=str(failure),
            error_kind=type(failure).__name__,
        )
    return BatchLane(args=args, result=result)


def _vector_plan_for(system: FSMDSystem) -> Optional[_VectorPlan]:
    """The cached vector plan, or None when the system has no exact one."""
    cached = getattr(system, "_batched_plan", None)
    if cached is not None:
        plan = cached[0]
        if plan is None or plan.system is system:
            return plan
    scalar = compile_system(system)
    try:
        plan: Optional[_VectorPlan] = _VectorPlan(system, scalar)
    except _Unvectorizable:
        plan = None
    system._batched_plan = (plan,)      # cache on the (plain) dataclass
    return plan


def _run_lanes(
    plan: SystemPlan,
    arg_sets: Sequence[Tuple[int, ...]],
    process_args,
    max_cycles: int,
    profile: Optional[SimProfile],
) -> List[BatchLane]:
    """The engine-independent fallback: lanes share one specialisation
    and run sequentially through it, so the batch still amortizes the
    compile."""
    lanes: List[BatchLane] = []
    for args in arg_sets:
        scratch = SimProfile() if profile is not None else None
        lane = _scalar_lane(
            plan, tuple(args), process_args, max_cycles, profile=scratch
        )
        if scratch is not None and profile is not None:
            for machine, per_state in scratch.state_visits.items():
                for label, count in per_state.items():
                    profile.visit(machine, label, count)
        lanes.append(lane)
    return lanes


def simulate_batched(
    system: FSMDSystem,
    arg_sets: Sequence[Sequence[int]],
    max_cycles: int = 2_000_000,
    process_args: Optional[Dict[str, Sequence[int]]] = None,
    profile: Optional[SimProfile] = None,
    engine: str = "auto",
) -> BatchResult:
    """Simulate ``system`` on every argument set in ``arg_sets``.

    ``engine`` is ``"auto"`` (vector when NumPy and the fast path allow,
    else lanes), ``"vector"`` (require the vector engine), or ``"lanes"``
    (force the fallback).  Each lane is bit-identical — value, cycles,
    globals, channel log, error class and message — to a scalar
    ``simulate`` of the same arguments."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown batch engine {engine!r} (expected one of {ENGINES})"
        )
    normalized = [tuple(args) for args in arg_sets]
    scalar = compile_system(system)
    vector: Optional[_VectorPlan] = None
    if engine in ("auto", "vector") and not process_args:
        vector = _vector_plan_for(system)
    if engine == "vector" and vector is None:
        raise ValueError(
            "vector engine unavailable for this system"
            " (needs NumPy, a single rendezvous-free machine, and"
            f" storage widths <= {MAX_VECTOR_WIDTH})"
        )
    started = perf_counter()
    if vector is not None:
        try:
            lanes = vector.run_batch(normalized, max_cycles, profile=profile)
            used = "vector"
            compile_s = scalar.compile_s + vector.compile_s
        except OverflowError:
            # A memory image or argument outside int64: the lane engine
            # (arbitrary-precision Python ints) handles it exactly.
            vector = None
            if profile is not None:
                profile.state_visits = {}
    if vector is None:
        lanes = _run_lanes(
            scalar, normalized, process_args, max_cycles, profile
        )
        used = "lanes"
        compile_s = scalar.compile_s
    execute_s = perf_counter() - started
    if profile is not None:
        profile.backend = "batched"
        profile.compile_s = compile_s
        profile.execute_s = execute_s
        profile.lanes = len(lanes)
        profile.lane_cycles = [
            lane.result.cycles if lane.ok else 0 for lane in lanes
        ]
        profile.cycles = sum(profile.lane_cycles)
    return BatchResult(
        lanes=lanes, engine=used,
        compile_s=compile_s, execute_s=execute_s,
    )


def simulate_one_batched(
    system: FSMDSystem,
    args: Sequence[int] = (),
    max_cycles: int = 2_000_000,
    process_args: Optional[Dict[str, Sequence[int]]] = None,
    profile: Optional[SimProfile] = None,
) -> SimResult:
    """The scalar view: a one-lane batch that re-raises lane errors, so
    ``sim_backend="batched"`` drops in wherever the other backends go."""
    batch = simulate_batched(
        system, [tuple(args)], max_cycles=max_cycles,
        process_args=process_args, profile=profile,
    )
    lane = batch.lanes[0]
    if not lane.ok:
        lane.raise_error()
    assert lane.result is not None
    return lane.result


__all__ = [
    "BatchLane",
    "BatchResult",
    "ENGINES",
    "HAVE_NUMPY",
    "MAX_VECTOR_WIDTH",
    "simulate_batched",
    "simulate_one_batched",
]
