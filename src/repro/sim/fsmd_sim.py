"""Cycle-accurate simulation of FSMD systems.

One simulated clock drives every machine.  Each cycle:

1. every running machine evaluates its current state's operations
   combinationally (loads are asynchronous reads, sends/receives *offer*);
2. rendezvous channels match one offering sender with one offering
   receiver; unmatched machines stall in place;
3. matched/ordinary machines latch their register writes and advance.

Register semantics match the CDFG executor exactly: architectural registers
hold their block-entry value throughout a block and latch on the final
state's exiting edge, so the validation chain interpreter == executor ==
FSMD holds value-for-value — and on top of it the FSMD gives exact cycle
counts, which are the currency of every timing experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..interp.machine import eval_binary, eval_unary, wrap
from ..lang.errors import InterpError
from ..lang.symtab import Symbol, SymbolKind
from ..lang.types import ArrayType
from ..ir.ops import Const, Operand, Operation, OpKind, VReg, VarRead
from ..rtl.fsmd import CondNext, Done, FSMD, FSMDSystem, NextState, State


class SimulationError(InterpError):
    """Deadlock, budget exhaustion, or a malformed machine."""


class _ValueNotReady(Exception):
    """An operand depends on a rendezvous that has not fired this cycle."""


def check_system(system: FSMDSystem) -> None:
    """Refuse a malformed system before either engine runs it: each wire
    a reachable state reads must be produced on every path since its
    block was entered (a ``step_index`` 0 state enters one), except that
    in a state offering to receive, an op may read the received value or
    a wire computed from it.  Else ``SimulationError("<machine>: <wire>
    read before being computed")``, with `` (latch/transition)`` for a
    latch, branch condition or result.  A pass is cached on the system,
    like the compiled plan."""
    if getattr(system, "_checked", False):
        return
    for fsmd in system.fsmds:
        _check_machine(fsmd)
    system._checked = True


def transition_targets(transition: object) -> Iterator[int]:
    if isinstance(transition, int):
        yield transition
    elif isinstance(transition, NextState):
        yield transition.target
    elif isinstance(transition, CondNext):
        yield from transition_targets(transition.if_true)
        yield from transition_targets(transition.if_false)


def transition_reads(transition) -> Tuple[List[Operand], List[Operand]]:
    """The conditions a transition tree tests, and the values it returns."""
    tested: List[Operand] = []
    results: List[Operand] = []
    tree = [transition]
    while tree:
        tr = tree.pop()
        if isinstance(tr, CondNext):
            tested.append(tr.cond)
            tree += [tr.if_true, tr.if_false]
        elif isinstance(tr, Done) and tr.value is not None:
            results.append(tr.value)
    return tested, results


def _check_machine(fsmd: FSMD) -> None:
    # Wires produced on every path into each reachable state, found by a
    # worklist that only ever shrinks a state's set.
    entry: Dict[int, FrozenSet[VReg]] = {fsmd.entry: frozenset()}
    worklist = [fsmd.entry]
    while worklist:
        state = fsmd.state(worklist.pop())
        produced = _check_state(fsmd.name, state, entry[state.id])
        for target in transition_targets(state.transition):
            if not 0 <= target < len(fsmd.states):
                continue    # an engine faults if a run takes it
            arriving = (frozenset() if fsmd.state(target).step_index == 0
                        else produced)
            held = entry.get(target)
            if held is None or not held <= arriving:
                entry[target] = arriving if held is None else held & arriving
                worklist.append(target)


def _check_state(machine: str, state: State,
                 produced: FrozenSet[VReg]) -> FrozenSet[VReg]:
    """The wires produced when ``state`` leaves, given those on entry."""
    defined = set(produced)
    pending = set()         # the received value and what is computed from it
    channel = state.channel_op()
    if channel is not None and channel.kind is OpKind.RECV:
        assert channel.dest is not None
        pending.add(channel.dest)

    def missing(operands, where: str = ""):
        for operand in operands:
            if isinstance(operand, VReg) and operand not in defined:
                raise SimulationError(
                    f"{machine}: {operand} read before being computed{where}"
                )

    for op in state.ops:
        if op.kind in (OpKind.SEND, OpKind.RECV):
            continue
        unset = [v for v in op.operands
                 if isinstance(v, VReg) and v not in defined]
        missing([v for v in unset if v not in pending])
        if op.dest is not None:     # settles after the handshake if unset
            (pending if unset else defined).add(op.dest)
    if channel is not None and channel.kind is OpKind.SEND:
        missing(channel.operands[:1])
    defined |= pending
    tested, results = transition_reads(state.transition)
    missing(tested + results + list(state.latches.values()),
            " (latch/transition)")
    return frozenset(defined)


@dataclass
class SimResult:
    value: Optional[int]
    cycles: int
    globals: Dict[str, object] = field(default_factory=dict)
    channel_log: Dict[str, List[int]] = field(default_factory=dict)
    per_process_cycles: Dict[str, int] = field(default_factory=dict)
    stall_cycles: int = 0

    def time_ns(self, clock_ns: float) -> float:
        return self.cycles * clock_ns


class _Machine:
    def __init__(self, fsmd: FSMD, simulator: "FSMDSimulator", args: Sequence[int]):
        self.fsmd = fsmd
        self.sim = simulator
        self.state_id = fsmd.entry
        self.done = False
        self.result: Optional[int] = None
        self.finish_cycle: Optional[int] = None
        self.vregs: Dict[VReg, int] = {}
        self.registers: Dict[Symbol, int] = {}
        for symbol in fsmd.registers:
            if symbol.kind is not SymbolKind.GLOBAL:
                self.registers[symbol] = 0
        scalar_params = [
            p for p in fsmd.params if not isinstance(p.type, ArrayType)
        ]
        if len(args) != len(scalar_params):
            raise SimulationError(
                f"{fsmd.name} expects {len(scalar_params)} arguments,"
                f" got {len(args)}"
            )
        for symbol, value in zip(scalar_params, args):
            self.registers[symbol] = wrap(value, symbol.type)
        self.memories: Dict[Symbol, List[int]] = {}
        for array in fsmd.local_arrays():
            assert isinstance(array.type, ArrayType)
            size = array.type.size
            image = simulator.system.memory_images.get(array)
            self.memories[array] = (
                list(image) + [0] * (size - len(image)) if image is not None
                else [0] * size
            )

    # -- storage access ------------------------------------------------------

    def read_register(self, symbol: Symbol) -> int:
        if symbol.kind is SymbolKind.GLOBAL:
            return self.sim.global_registers.get(symbol, 0)
        return self.registers.get(symbol, 0)

    def memory_of(self, array: Symbol) -> List[int]:
        if array.kind is SymbolKind.GLOBAL:
            return self.sim.global_memories[array]
        return self.memories[array]

    def operand(self, operand: Operand) -> int:
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, VarRead):
            return self.read_register(operand.var)
        if operand not in self.vregs:
            raise _ValueNotReady(operand)
        return self.vregs[operand]

    # -- one state's combinational evaluation ---------------------------------

    def evaluate_state(self, state: State) -> List[Tuple[Symbol, int, int]]:
        """Execute the state's non-channel ops.  Returns the stores —
        (array, index, value) triples applied at the clock edge.

        In a state that offers to receive, logic chained off the incoming
        value cannot settle until the handshake fires: such ops are
        skipped here and computed by :meth:`reevaluate_after_match`.
        :func:`check_system` proves that no other read can miss."""
        stores: List[Tuple[Symbol, int, int]] = []
        for op in state.ops:
            if op.kind in (OpKind.SEND, OpKind.RECV):
                continue
            try:
                self._execute(op, stores)
            except _ValueNotReady:
                continue  # settles after the handshake this cycle
        return stores

    def reevaluate_after_match(self, state: State) -> List[Tuple[Symbol, int, int]]:
        """After this state's rendezvous fired, settle the remaining
        combinational logic (which may read the received value)."""
        stores: List[Tuple[Symbol, int, int]] = []
        for op in state.ops:
            if op.kind not in (OpKind.SEND, OpKind.RECV):
                self._execute(op, stores)
        return stores

    def _execute(self, op: Operation, stores: List[Tuple[Symbol, int, int]]) -> None:
        if op.kind is OpKind.BINARY:
            assert op.dest is not None
            self.vregs[op.dest] = eval_binary(
                op.op, self.operand(op.operands[0]), self.operand(op.operands[1]),
                op.dest.type,
            )
        elif op.kind is OpKind.UNARY:
            assert op.dest is not None
            self.vregs[op.dest] = eval_unary(
                op.op, self.operand(op.operands[0]), op.dest.type
            )
        elif op.kind is OpKind.CAST:
            assert op.dest is not None
            self.vregs[op.dest] = wrap(self.operand(op.operands[0]), op.dest.type)
        elif op.kind is OpKind.SELECT:
            assert op.dest is not None
            chosen = (
                self.operand(op.operands[1])
                if self.operand(op.operands[0])
                else self.operand(op.operands[2])
            )
            self.vregs[op.dest] = wrap(chosen, op.dest.type)
        elif op.kind is OpKind.LOAD:
            assert op.dest is not None and op.array is not None
            memory = self.memory_of(op.array)
            index = self.operand(op.operands[0])
            if not 0 <= index < len(memory):
                if self.fsmd.tolerant_memory:
                    self.vregs[op.dest] = 0
                    return
                raise SimulationError(
                    f"{self.fsmd.name}: load {op.array.unique_name}[{index}]"
                    f" out of bounds (size {len(memory)})"
                )
            self.vregs[op.dest] = memory[index]
        elif op.kind is OpKind.STORE:
            assert op.array is not None
            memory = self.memory_of(op.array)
            index = self.operand(op.operands[0])
            if not 0 <= index < len(memory):
                if self.fsmd.tolerant_memory:
                    return  # speculative store off the end: dropped
                raise SimulationError(
                    f"{self.fsmd.name}: store {op.array.unique_name}[{index}]"
                    f" out of bounds (size {len(memory)})"
                )
            stores.append((op.array, index, self.operand(op.operands[1])))
        elif op.kind in (OpKind.BARRIER, OpKind.DELAY, OpKind.NOP):
            pass
        else:
            raise SimulationError(f"FSMD cannot execute {op.kind}")

    # -- latch & advance -------------------------------------------------------

    def latch_and_advance(self, state: State) -> None:
        # The next-state function and the return value are combinational:
        # they see pre-edge register values, so evaluate them before any
        # latch fires.
        transition: object = state.transition
        target: Optional[int] = None
        result_raw: Optional[int] = None
        is_done = False
        has_result = False
        # Walk the (possibly nested) decision tree combinationally.
        while True:
            if isinstance(transition, int):
                target = transition
                break
            if isinstance(transition, Done):
                is_done = True
                if transition.value is not None:
                    result_raw = self.operand(transition.value)
                    has_result = True
                break
            if isinstance(transition, NextState):
                target = transition.target
                break
            if isinstance(transition, CondNext):
                transition = (
                    transition.if_true
                    if self.operand(transition.cond)
                    else transition.if_false
                )
                continue
            raise SimulationError(f"state {state.label} has no transition")
        register_writes: List[Tuple[Symbol, int]] = []
        for symbol, value in state.latches.items():
            register_writes.append((symbol, self.operand(value)))
        for symbol, value in register_writes:
            if symbol.kind is SymbolKind.GLOBAL:
                self.sim.write_global(symbol, wrap(value, symbol.type), self)
            else:
                self.registers[symbol] = wrap(value, symbol.type)
        if is_done:
            self.done = True
            self.finish_cycle = self.sim.cycle + 1
            if has_result:
                self.result = (
                    wrap(result_raw, self.fsmd.return_type)
                    if self.fsmd.return_type is not None
                    and self.fsmd.return_type.bit_width > 0
                    else result_raw
                )
            return
        assert target is not None
        next_state = self.fsmd.state(target)
        if next_state.step_index == 0:
            # Entering a block afresh: block-local wires are invalid now.
            self.vregs = {}
        self.state_id = target


class FSMDSimulator:
    """Runs an :class:`FSMDSystem` to completion of its root machine."""

    def __init__(
        self,
        system: FSMDSystem,
        args: Sequence[int] = (),
        process_args: Optional[Dict[str, Sequence[int]]] = None,
        max_cycles: int = 2_000_000,
    ):
        check_system(system)
        self.system = system
        self.max_cycles = max_cycles
        self.cycle = 0
        self.stall_cycles = 0
        self.global_registers: Dict[Symbol, int] = {}
        self.global_memories: Dict[Symbol, List[int]] = {}
        self.channel_log: Dict[str, List[int]] = {
            c.name: [] for c in system.channels
        }
        self._global_writes_this_cycle: Dict[Symbol, str] = {}
        for symbol in system.global_registers:
            init = system.global_inits.get(symbol.name, 0)
            self.global_registers[symbol] = (
                wrap(init, symbol.type) if isinstance(init, int) else 0
            )
        for symbol in system.global_arrays:
            assert isinstance(symbol.type, ArrayType)
            words = [0] * symbol.type.size
            init = system.global_inits.get(symbol.name)
            if isinstance(init, list):
                for i, v in enumerate(init):
                    words[i] = v
            self.global_memories[symbol] = words
        for symbol, image in system.memory_images.items():
            if symbol.kind is SymbolKind.GLOBAL:
                self.global_memories[symbol] = list(image)
        process_args = process_args or {}
        self.machines: List[_Machine] = []
        for index, fsmd in enumerate(system.fsmds):
            machine_args = args if index == 0 else process_args.get(fsmd.name, ())
            self.machines.append(_Machine(fsmd, self, machine_args))

    def write_global(self, symbol: Symbol, value: int, writer: _Machine) -> None:
        previous = self._global_writes_this_cycle.get(symbol)
        if previous is not None and previous != writer.fsmd.name:
            raise SimulationError(
                f"global {symbol.name!r} written by {previous} and"
                f" {writer.fsmd.name} in the same cycle"
            )
        self._global_writes_this_cycle[symbol] = writer.fsmd.name
        self.global_registers[symbol] = value

    # -- main loop ---------------------------------------------------------

    def run(self, profile=None) -> SimResult:
        started = perf_counter()
        root = self.machines[0]
        while not root.done:
            if self.cycle >= self.max_cycles:
                raise SimulationError(
                    f"cycle budget of {self.max_cycles} exhausted"
                )
            if profile is not None:
                for machine in self.machines:
                    if not machine.done:
                        state = machine.fsmd.state(machine.state_id)
                        profile.visit(
                            machine.fsmd.name, state.label or f"S{state.id}"
                        )
            self._step()
        if profile is not None:
            profile.backend = "interp"
            profile.execute_s = perf_counter() - started
            profile.cycles = (
                root.finish_cycle if root.finish_cycle is not None
                else self.cycle
            )
        result = SimResult(
            value=root.result,
            cycles=root.finish_cycle if root.finish_cycle is not None else self.cycle,
            stall_cycles=self.stall_cycles,
        )
        for symbol in self.system.global_registers:
            result.globals[symbol.name] = self.global_registers[symbol]
        for symbol in self.system.global_arrays:
            result.globals[symbol.name] = list(self.global_memories[symbol])
        result.channel_log = {
            name: list(values) for name, values in self.channel_log.items()
        }
        for machine in self.machines:
            result.per_process_cycles[machine.fsmd.name] = (
                machine.finish_cycle if machine.finish_cycle is not None else self.cycle
            )
        return result

    def _step(self) -> None:
        self._global_writes_this_cycle = {}
        # One pass over the machines builds everything the cycle needs:
        # each running machine's evaluation (state, stores, channel op) in
        # machine order, plus the per-channel offer lists.  Done machines
        # are skipped here once, not re-filtered per phase.
        evaluations: List[
            Tuple[_Machine, State, List[Tuple[Symbol, int, int]],
                  Optional[Operation]]
        ] = []
        senders: Dict[Symbol, List[Tuple[_Machine, Operation]]] = {}
        receivers: Dict[Symbol, List[Tuple[_Machine, Operation]]] = {}
        for machine in self.machines:
            if machine.done:
                continue
            state = machine.fsmd.state(machine.state_id)
            channel_op = state.channel_op()
            stores = machine.evaluate_state(state)
            evaluations.append((machine, state, stores, channel_op))
            if channel_op is not None:
                assert channel_op.channel is not None
                if channel_op.kind is OpKind.SEND:
                    senders.setdefault(channel_op.channel, []).append(
                        (machine, channel_op)
                    )
                else:
                    receivers.setdefault(channel_op.channel, []).append(
                        (machine, channel_op)
                    )
        # Rendezvous matching: one transfer per channel per cycle.
        matched: set = set()
        for channel, send_list in senders.items():
            recv_list = receivers.get(channel, [])
            if send_list and recv_list:
                sender, send_op = send_list[0]
                receiver, recv_op = recv_list[0]
                value = sender.operand(send_op.operands[0])
                assert recv_op.dest is not None
                receiver.vregs[recv_op.dest] = wrap(value, recv_op.dest.type)
                self.channel_log[channel.name].append(value)
                matched.add(id(sender))
                matched.add(id(receiver))
        advanced = False
        any_stalled = False
        for machine, state, stores, channel_op in evaluations:
            if channel_op is not None:
                if id(machine) not in matched:
                    any_stalled = True
                    continue  # stall: re-offer next cycle
                # The handshake fired: logic downstream of the received
                # value settles within the same cycle.
                stores = machine.reevaluate_after_match(state)
            for array, address, value in stores:
                machine.memory_of(array)[address] = value
            machine.latch_and_advance(state)
            advanced = True
        if not advanced:
            if any_stalled:
                blocked = [
                    machine.fsmd.name
                    for machine, _, _, channel_op in evaluations
                    if channel_op is not None
                ]
                raise SimulationError(
                    "rendezvous deadlock: " + ", ".join(sorted(blocked))
                )
            raise SimulationError("no machine could advance")
        if any_stalled:
            self.stall_cycles += 1
        self.cycle += 1


def simulate(
    system: FSMDSystem,
    args: Sequence[int] = (),
    max_cycles: int = 2_000_000,
    process_args: Optional[Dict[str, Sequence[int]]] = None,
    profile=None,
) -> SimResult:
    """Convenience wrapper: build the simulator and run it."""
    return FSMDSimulator(
        system, args=args, process_args=process_args, max_cycles=max_cycles
    ).run(profile)


#: The name :mod:`repro.sim` exports this engine's entry point under.
simulate_interp = simulate
