"""The FSMD (finite-state machine with datapath) artifact.

Every synchronous flow produces one FSMD per concurrent process: states are
(basic block × control step) pairs; each state executes its scheduled
operations; register latches fire on the exiting edge of a block's final
state; the controller follows the block terminators.  Cycle counts in the
simulator are exact by construction — one state per clock, plus stalls at
rendezvous states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from ..lang.symtab import Symbol, SymbolKind
from ..lang.types import ArrayType, Type
from ..ir.cdfg import FunctionCDFG
from ..ir.ops import Branch, Jump, Operand, Operation, OpKind, Ret
from ..scheduling.base import FunctionSchedule

if TYPE_CHECKING:
    from ..lang import ast_nodes as ast
    from ..lang.semantic import SemanticInfo


@dataclass
class NextState:
    target: int

    def __str__(self) -> str:
        return f"-> S{self.target}"


@dataclass
class CondNext:
    """A conditional transition.  Arms are either state ids or nested
    transitions — the nesting expresses the zero-cycle control tests of
    syntax-directed flows (Handel-C's while/if take no clock)."""

    cond: Operand
    if_true: Union[int, "Transition"]
    if_false: Union[int, "Transition"]

    def __str__(self) -> str:
        def arm(a) -> str:
            return f"S{a}" if isinstance(a, int) else f"({a})"

        return f"-> {self.cond} ? {arm(self.if_true)} : {arm(self.if_false)}"


@dataclass
class Done:
    value: Optional[Operand] = None

    def __str__(self) -> str:
        return f"done {self.value}" if self.value is not None else "done"


Transition = Union[NextState, CondNext, Done]


# Sentinel marking a State whose channel_op has not been memoized yet.
_CHANNEL_UNCACHED = object()


@dataclass
class State:
    id: int
    block_id: int
    step_index: int
    ops: List[Operation] = field(default_factory=list)
    # Register updates applied on this state's exiting clock edge (only the
    # final state of each block latches).
    latches: Dict[Symbol, Operand] = field(default_factory=dict)
    transition: Optional[Transition] = None
    label: str = ""
    # Memoized channel lookup.  Frontends mutate ``ops`` while building a
    # state (Handel-C lowers decision ops after construction, Ocapi appends
    # through its structural API), but states are frozen once simulation or
    # emission starts — the first channel_op() call then caches, so the
    # simulator's hot loop does not rescan the op list every cycle.
    _channel_op: object = field(
        default=_CHANNEL_UNCACHED, init=False, repr=False, compare=False
    )

    def channel_op(self) -> Optional[Operation]:
        cached = self._channel_op
        if cached is _CHANNEL_UNCACHED:
            cached = None
            for op in self.ops:
                if op.kind in (OpKind.SEND, OpKind.RECV):
                    cached = op
                    break
            self._channel_op = cached
        return cached


@dataclass
class FSMD:
    """A complete synthesized machine for one process."""

    name: str
    states: List[State] = field(default_factory=list)
    entry: int = 0
    registers: List[Symbol] = field(default_factory=list)
    params: List[Symbol] = field(default_factory=list)
    arrays: List[Symbol] = field(default_factory=list)
    return_type: Optional[Type] = None
    clock_ns: float = 0.0
    source_schedule: Optional[FunctionSchedule] = None
    # Syntax-directed machines (Handel-C) evaluate every lowered condition
    # eagerly, so speculative out-of-range addresses are normal: loads read
    # 0, stores are dropped — deterministic "garbage", as real RAM macros
    # give.  Scheduled machines keep strict bounds (an OOB access there is
    # a genuine compiler bug and should trap).
    tolerant_memory: bool = False

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state(self, state_id: int) -> State:
        return self.states[state_id]

    def local_arrays(self) -> List[Symbol]:
        return [a for a in self.arrays if a.kind is not SymbolKind.GLOBAL]

    def shared_arrays(self) -> List[Symbol]:
        return [a for a in self.arrays if a.kind is SymbolKind.GLOBAL]

    def dump(self) -> str:
        lines = [f"fsmd {self.name}: {self.n_states} states, entry S{self.entry}"]
        for state in self.states:
            lines.append(f"  S{state.id} ({state.label}):")
            for op in state.ops:
                lines.append(f"    {op}")
            for var, value in state.latches.items():
                lines.append(f"    {var.unique_name} <= {value}")
            lines.append(f"    {state.transition}")
        return "\n".join(lines)


def fsmd_from_schedule(schedule: FunctionSchedule, name: str = "") -> FSMD:
    """Build the FSMD for a scheduled function."""
    cdfg = schedule.cdfg
    fsmd = FSMD(
        name=name or cdfg.name,
        registers=list(cdfg.registers),
        params=list(cdfg.params),
        arrays=list(cdfg.arrays),
        return_type=cdfg.return_type,
        clock_ns=schedule.clock_ns,
        source_schedule=schedule,
    )
    first_state_of_block: Dict[int, int] = {}
    blocks = cdfg.reachable_blocks()
    for block in blocks:
        block_schedule = schedule.blocks[block.id]
        steps = block_schedule.step_ops()
        first_state_of_block[block.id] = len(fsmd.states)
        for step_index in range(block_schedule.n_steps):
            state = State(
                id=len(fsmd.states),
                block_id=block.id,
                step_index=step_index,
                ops=steps[step_index] if step_index < len(steps) else [],
                label=f"{block.label}.{step_index}",
            )
            fsmd.states.append(state)
        final = fsmd.states[-1]
        final.latches = dict(block.var_writes)
    # Wire transitions now that all states exist.
    for block in blocks:
        block_schedule = schedule.blocks[block.id]
        base = first_state_of_block[block.id]
        for step_index in range(block_schedule.n_steps - 1):
            fsmd.states[base + step_index].transition = NextState(
                base + step_index + 1
            )
        final = fsmd.states[base + block_schedule.n_steps - 1]
        terminator = block.terminator
        if isinstance(terminator, Jump):
            final.transition = NextState(first_state_of_block[terminator.target.id])
        elif isinstance(terminator, Branch):
            final.transition = CondNext(
                cond=terminator.cond,
                if_true=first_state_of_block[terminator.if_true.id],
                if_false=first_state_of_block[terminator.if_false.id],
            )
        elif isinstance(terminator, Ret):
            final.transition = Done(terminator.value)
        else:
            raise ValueError(f"block {block.label} lacks a terminator")
    fsmd.entry = first_state_of_block[cdfg.entry.id] if cdfg.entry else 0
    return fsmd


@dataclass
class FSMDSystem:
    """A set of FSMDs running in lockstep: the root (main) machine plus one
    machine per ``process``, sharing global registers, global memories, and
    rendezvous channels."""

    fsmds: List[FSMD] = field(default_factory=list)
    channels: List[Symbol] = field(default_factory=list)
    global_registers: List[Symbol] = field(default_factory=list)
    global_arrays: List[Symbol] = field(default_factory=list)
    global_inits: Dict[str, object] = field(default_factory=dict)
    # Extra memory images keyed by symbol (e.g. the pointer plan's __mem).
    memory_images: Dict[Symbol, List[int]] = field(default_factory=dict)

    @classmethod
    def of_program(
        cls,
        program: "ast.Program",
        info: "SemanticInfo",
        fsmds: List[FSMD],
        entry: str,
        memory_images: Optional[Dict[Symbol, List[int]]] = None,
    ) -> "FSMDSystem":
        """The system that runs ``program``: its machines, ``entry``'s
        first (the simulator's root), over the program's channels,
        global registers and global arrays."""
        return cls(
            fsmds=sorted(fsmds, key=lambda f: f.name != entry),
            channels=[c.symbol for c in program.channels],  # type: ignore[attr-defined]
            global_registers=[
                g.symbol for g in program.globals  # type: ignore[attr-defined]
                if not isinstance(g.var_type, ArrayType)
            ],
            global_arrays=[
                g.symbol for g in program.globals  # type: ignore[attr-defined]
                if isinstance(g.var_type, ArrayType)
            ],
            global_inits=dict(info.global_inits),
            memory_images=memory_images or {},
        )

    @property
    def root(self) -> FSMD:
        return self.fsmds[0]

    def total_states(self) -> int:
        return sum(f.n_states for f in self.fsmds)
