"""Scheduling foundations: dependence graphs, schedule containers, the unit
latency model, and schedule validation.

Two latency models coexist, on purpose:

* the **chained model** (used by the flows' list scheduler): operators have
  real delays from the technology model and may chain combinationally
  within one control step up to the clock period — how RTL designers and
  commercial HLS actually fill a cycle;
* the **unit model** (used by ASAP/ALAP/force-directed/modulo and the ILP
  study): every operation takes one control step (dividers four), the
  textbook abstraction Wall-style parallelism studies are phrased in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir.cdfg import BasicBlock, FunctionCDFG
from ..ir.ops import Operation, OpKind, VReg
from ..rtl.tech import DEFAULT_TECH, Technology
from .resources import FREE, ResourceSet, classify, op_delay_ns


class ScheduleError(Exception):
    """A block could not be scheduled (infeasible constraints, etc.)."""


class ConstraintInfeasible(ScheduleError):
    """A HardwareC-style ``within`` constraint cannot be met."""


# ---------------------------------------------------------------------------
# Dependence graph
# ---------------------------------------------------------------------------


@dataclass
class DependenceGraph:
    """Intra-block dependences.

    Edge kinds: ``flow`` (VReg def→use), ``memory`` (store→load/store and
    load→store on the same memory, in program order), ``fence`` (ordering
    around barriers/delays and among channel operations).
    """

    ops: List[Operation]
    preds: Dict[int, Set[int]] = field(default_factory=dict)
    succs: Dict[int, Set[int]] = field(default_factory=dict)

    def add_edge(self, src: Operation, dst: Operation) -> None:
        if src.id == dst.id:
            return
        self.preds.setdefault(dst.id, set()).add(src.id)
        self.succs.setdefault(src.id, set()).add(dst.id)

    def predecessors(self, op: Operation) -> Set[int]:
        return self.preds.get(op.id, set())

    def successors(self, op: Operation) -> Set[int]:
        return self.succs.get(op.id, set())

    def edge_count(self) -> int:
        return sum(len(s) for s in self.succs.values())


def build_dependence_graph(
    block: BasicBlock, disambiguate_memory: bool = True
) -> DependenceGraph:
    """Dependences among one block's operations.

    ``disambiguate_memory=True`` skips memory edges between accesses whose
    (constant) addresses provably differ — the cheap address-based
    disambiguation array-heavy kernels rely on.
    """
    graph = DependenceGraph(ops=list(block.ops))
    producer: Dict[VReg, Operation] = {}
    last_store: Dict[str, List[Operation]] = {}
    loads_since_store: Dict[str, List[Operation]] = {}
    last_channel_op: Optional[Operation] = None
    last_fence: Optional[Operation] = None

    def addresses_differ(a: Operation, b: Operation) -> bool:
        if not disambiguate_memory:
            return False
        from ..ir.ops import Const

        addr_a, addr_b = a.operands[0], b.operands[0]
        return (
            isinstance(addr_a, Const)
            and isinstance(addr_b, Const)
            and addr_a.value != addr_b.value
        )

    for op in block.ops:
        # Flow edges.
        for operand in op.operands:
            if isinstance(operand, VReg) and operand in producer:
                graph.add_edge(producer[operand], op)
        if op.dest is not None:
            producer[op.dest] = op
        # Memory edges.
        if op.is_memory():
            assert op.array is not None
            name = op.array.unique_name
            if op.kind is OpKind.LOAD:
                for store in last_store.get(name, []):
                    if not addresses_differ(op, store):
                        graph.add_edge(store, op)
                loads_since_store.setdefault(name, []).append(op)
            else:  # STORE
                for store in last_store.get(name, []):
                    if not addresses_differ(op, store):
                        graph.add_edge(store, op)
                for load in loads_since_store.get(name, []):
                    if not addresses_differ(op, load):
                        graph.add_edge(load, op)
                last_store.setdefault(name, []).append(op)
                loads_since_store[name] = []
        # Fences.
        if op.kind in (OpKind.BARRIER, OpKind.DELAY):
            for other in block.ops:
                if other.id == op.id:
                    break
                graph.add_edge(other, op)
            last_fence = op
        else:
            if last_fence is not None:
                graph.add_edge(last_fence, op)
        if op.kind in (OpKind.SEND, OpKind.RECV):
            if last_channel_op is not None:
                graph.add_edge(last_channel_op, op)
            last_channel_op = op
    return graph


# ---------------------------------------------------------------------------
# Latency models
# ---------------------------------------------------------------------------


def unit_latency(op: Operation) -> int:
    """Control steps in the unit model."""
    if op.kind is OpKind.CAST or op.kind is OpKind.NOP:
        return 0
    if op.kind is OpKind.DELAY:
        return max(op.cycles, 1)
    if op.kind is OpKind.BINARY and op.op in ("/", "%"):
        return 4
    return 1


def chained_steps(op: Operation, clock_ns: float, tech: Technology) -> int:
    """How many whole steps a (non-chainable-out) multi-cycle op needs."""
    delay = op_delay_ns(op, tech)
    if delay <= clock_ns:
        return 1
    return int(math.ceil(delay / clock_ns))


def is_chainable(op: Operation) -> bool:
    """Whether an op's result may feed another op in the same step."""
    return op.kind in (OpKind.BINARY, OpKind.UNARY, OpKind.CAST, OpKind.SELECT,
                       OpKind.LOAD)


# ---------------------------------------------------------------------------
# Schedule containers
# ---------------------------------------------------------------------------


@dataclass
class BlockSchedule:
    """One block's operations assigned to control steps."""

    block: BasicBlock
    op_step: Dict[int, int] = field(default_factory=dict)
    n_steps: int = 1
    # Chained model only: where within its step each op starts/finishes (ns).
    op_start_ns: Dict[int, float] = field(default_factory=dict)
    op_finish_ns: Dict[int, float] = field(default_factory=dict)

    def step_ops(self) -> List[List[Operation]]:
        steps: List[List[Operation]] = [[] for _ in range(self.n_steps)]
        for op in self.block.ops:
            steps[self.op_step[op.id]].append(op)
        return steps

    def step_occupancy(self) -> List[Dict[str, int]]:
        """Per-step resource-class usage: one ``{class: count}`` dict per
        control step (FREE ops excluded).  The time-sensitive checker and
        the binding reports both consume this instead of re-deriving it."""
        usage: List[Dict[str, int]] = [{} for _ in range(self.n_steps)]
        for op in self.block.ops:
            resource = classify(op)
            if resource == FREE:
                continue
            counts = usage[self.op_step[op.id]]
            counts[resource] = counts.get(resource, 0) + 1
        return usage


@dataclass
class FunctionSchedule:
    """A complete schedule: every reachable block, plus metadata."""

    cdfg: FunctionCDFG
    blocks: Dict[int, BlockSchedule] = field(default_factory=dict)
    clock_ns: float = 0.0
    scheduler: str = ""
    resources: Optional[ResourceSet] = None

    def total_steps(self) -> int:
        return sum(bs.n_steps for bs in self.blocks.values())

    def block_schedule(self, block: BasicBlock) -> BlockSchedule:
        return self.blocks[block.id]


# ---------------------------------------------------------------------------
# Validation (used by property tests and as an internal sanity net)
# ---------------------------------------------------------------------------


def check_block_schedule(
    schedule: BlockSchedule,
    resources: Optional[ResourceSet] = None,
    constraints: Optional[Dict[int, int]] = None,
) -> None:
    """Raise :class:`ScheduleError` if ``schedule`` is malformed.

    Checks: every op placed, dependence order respected (chained same-step
    placement allowed only for chainable producers), per-step resource
    limits, fence exclusivity, and ``within`` constraint spans
    (``constraints`` maps group id -> max steps).
    """
    block = schedule.block
    graph = build_dependence_graph(block)
    for op in block.ops:
        if op.id not in schedule.op_step:
            raise ScheduleError(f"{op} was never scheduled")
        step = schedule.op_step[op.id]
        if not 0 <= step < schedule.n_steps:
            raise ScheduleError(f"{op} scheduled at invalid step {step}")
    by_id = {op.id: op for op in block.ops}
    for op in block.ops:
        for pred_id in graph.predecessors(op):
            pred = by_id[pred_id]
            pred_step = schedule.op_step[pred_id]
            op_step = schedule.op_step[op.id]
            if pred_step > op_step:
                raise ScheduleError(
                    f"{op} at step {op_step} depends on {pred} at {pred_step}"
                )
            if pred_step == op_step and not is_chainable(pred):
                raise ScheduleError(
                    f"{op} chained onto non-chainable {pred} in step {op_step}"
                )
    if resources is not None:
        for step_index, ops in enumerate(schedule.step_ops()):
            counts: Dict[str, int] = {}
            for op in ops:
                resource = classify(op)
                if resource == FREE:
                    continue
                counts[resource] = counts.get(resource, 0) + 1
            for resource, used in counts.items():
                limit = resources.limit(resource)
                if limit is not None and used > limit:
                    raise ScheduleError(
                        f"step {step_index} uses {used} of {resource}"
                        f" (limit {limit})"
                    )
    for step_index, ops in enumerate(schedule.step_ops()):
        exclusive = [op for op in ops if op.kind in (OpKind.BARRIER, OpKind.DELAY)]
        if exclusive and len(ops) > len(exclusive):
            raise ScheduleError(
                f"step {step_index} mixes a barrier/delay with other work"
            )
    if constraints:
        spans: Dict[int, Tuple[int, int]] = {}
        for op in block.ops:
            if op.constraint is None:
                continue
            step = schedule.op_step[op.id]
            low, high = spans.get(op.constraint, (step, step))
            spans[op.constraint] = (min(low, step), max(high, step))
        for group, (low, high) in spans.items():
            budget = constraints.get(group)
            if budget is not None and high - low + 1 > budget:
                raise ConstraintInfeasible(
                    f"within group {group} spans {high - low + 1} steps"
                    f" (budget {budget})"
                )
