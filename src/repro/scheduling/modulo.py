"""Iterative modulo scheduling (software-pipelining) for single-block loops.

The paper: *"Pipelining, the second approach, requires less hardware than
ILP but can be less effective.  Again, dependencies and control-flow
transfers limit parallelism.  Pipelining works well on regular loops, e.g.,
in scientific computation, but is less effective in general."*

This module makes the claim measurable.  Given a loop whose body is one
basic block, it computes

* **ResMII** — the resource-limited lower bound on the initiation interval;
* **RecMII** — the recurrence-limited bound, from loop-carried dependence
  cycles (scalar recurrences through the block's register latches, plus
  conservative memory-carried edges);
* an achieved II via Rau-style iterative modulo scheduling (budgeted,
  without backtracking — it may settle one or two above the bound, which is
  reported honestly as ``achieved_ii``).

Regular dataflow loops (FIR, dot products with reassociable accumulators
kept serial — their recurrence *is* the limit) pipeline to small IIs;
loops with pointer-chasing, histogram updates, or data-dependent exits
do not.  That asymmetry is experiment E3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..ir.cdfg import BasicBlock, FunctionCDFG
from ..ir.ops import Branch, Const, Operation, OpKind, VReg, VarRead
from .asap import unit_asap
from .base import (
    BlockSchedule,
    DependenceGraph,
    ScheduleError,
    build_dependence_graph,
    unit_latency,
)
from .resources import FREE, ResourceSet, classify


@dataclass
class LoopDependence:
    src: Operation
    dst: Operation
    distance: int  # iterations
    latency: int


@dataclass
class ModuloResult:
    block: BasicBlock
    res_mii: int
    rec_mii: int
    achieved_ii: Optional[int]
    schedule_length: int
    sequential_steps: int
    op_count: int
    op_step: Dict[int, int] = field(default_factory=dict)

    @property
    def mii(self) -> int:
        return max(self.res_mii, self.rec_mii, 1)

    def speedup(self, iterations: int = 1000) -> float:
        """Steady-state speedup over the unpipelined loop for N iterations."""
        if self.achieved_ii is None:
            return 1.0
        sequential = self.sequential_steps * iterations
        pipelined = self.achieved_ii * iterations + (
            self.schedule_length - self.achieved_ii
        )
        return sequential / max(pipelined, 1)


def find_pipelineable_loops(cdfg: FunctionCDFG) -> List[BasicBlock]:
    """Single-block loop bodies for modulo scheduling.

    Handles two shapes: a block that branches back to itself, and the
    canonical two-block ``head (test) -> body -> head`` form, which is fused
    into one virtual block (head's test plus the body, with the body's
    variable reads rewired to the head's latched values)."""
    loops: List[BasicBlock] = []
    preds = cdfg.predecessors()
    for block in cdfg.reachable_blocks():
        terminator = block.terminator
        if isinstance(terminator, Branch):
            if block in (terminator.if_true, terminator.if_false):
                loops.append(block)
                continue
            for body in (terminator.if_true, terminator.if_false):
                if not isinstance(body, BasicBlock):
                    continue
                body_term = body.terminator
                from ..ir.ops import Jump

                if (
                    isinstance(body_term, Jump)
                    and body_term.target is block
                    and len(preds.get(body.id, [])) == 1
                ):
                    loops.append(_fuse_loop(block, body))
                    break
    return loops


def _fuse_loop(head: BasicBlock, body: BasicBlock) -> BasicBlock:
    """A virtual block equivalent to one loop iteration (head; body).

    Ops are shallow-copied so the original CDFG is untouched; the body's
    VarReads of variables the head latched are substituted with the head's
    write operands, exactly mirroring CFG block merging."""
    import dataclasses

    fused = BasicBlock(label=f"{head.label}+{body.label}")
    substitution: Dict = dict(head.var_writes)

    def rewrite(operand):
        if isinstance(operand, VarRead) and operand.var in substitution:
            return substitution[operand.var]
        return operand

    for op in head.ops:
        fused.ops.append(dataclasses.replace(op, operands=list(op.operands)))
    for op in body.ops:
        copy = dataclasses.replace(op, operands=[rewrite(o) for o in op.operands])
        fused.ops.append(copy)
    fused.var_writes = dict(head.var_writes)
    for var, value in body.var_writes.items():
        fused.var_writes[var] = rewrite(value)
    head_term = head.terminator
    assert isinstance(head_term, Branch)
    exit_target = (
        head_term.if_false if head_term.if_true is body else head_term.if_true
    )
    fused.terminator = Branch(head_term.cond, fused, exit_target)
    return fused


def loop_carried_dependences(block: BasicBlock) -> List[LoopDependence]:
    """Distance-1 dependences across the loop back edge.

    * scalar recurrences: the op producing a latched variable feeds every
      next-iteration reader of that variable;
    * memory recurrences: a store feeds next-iteration loads/stores of the
      same memory unless constant addresses prove independence.
    """
    carried: List[LoopDependence] = []
    producer: Dict[VReg, Operation] = {}
    for op in block.ops:
        if op.dest is not None:
            producer[op.dest] = op

    def readers_of(var) -> List[Operation]:
        readers = []
        for op in block.ops:
            if any(isinstance(o, VarRead) and o.var is var for o in op.operands):
                readers.append(op)
        return readers

    for var, value in block.var_writes.items():
        if not isinstance(value, VReg) or value not in producer:
            continue  # a register copy: no computation on the cycle
        src = producer[value]
        for dst in readers_of(var):
            carried.append(
                LoopDependence(src=src, dst=dst, distance=1,
                               latency=unit_latency(src))
            )
    stores: Dict[str, List[Operation]] = {}
    accesses: Dict[str, List[Operation]] = {}
    for op in block.ops:
        if op.is_memory():
            assert op.array is not None
            name = op.array.unique_name
            accesses.setdefault(name, []).append(op)
            if op.kind is OpKind.STORE:
                stores.setdefault(name, []).append(op)

    def const_addr(op: Operation) -> Optional[int]:
        addr = op.operands[0]
        return addr.value if isinstance(addr, Const) else None

    for name, store_list in stores.items():
        for store in store_list:
            for other in accesses[name]:
                a, b = const_addr(store), const_addr(other)
                if a is not None and b is not None and a != b:
                    continue
                carried.append(
                    LoopDependence(src=store, dst=other, distance=1,
                                   latency=unit_latency(store))
                )
    return carried


def resource_mii(block: BasicBlock, resources: ResourceSet) -> int:
    counts: Dict[str, int] = {}
    for op in block.ops:
        resource = classify(op)
        if resource == FREE:
            continue
        counts[resource] = counts.get(resource, 0) + 1
    mii = 1
    for resource, used in counts.items():
        limit = resources.limit(resource)
        if limit is not None:
            mii = max(mii, -(-used // limit))
    return mii


def recurrence_mii(
    block: BasicBlock,
    graph: Optional[DependenceGraph] = None,
    carried: Optional[List[LoopDependence]] = None,
) -> int:
    """Smallest II with no positive cycle in the dependence graph where
    edge weight = latency − II·distance (binary search + Bellman-Ford)."""
    graph = graph or build_dependence_graph(block)
    carried = carried if carried is not None else loop_carried_dependences(block)
    edges: List[Tuple[int, int, int, int]] = []  # src, dst, latency, distance
    for op in block.ops:
        for succ in graph.successors(op):
            edges.append((op.id, succ, unit_latency(op), 0))
    for dep in carried:
        edges.append((dep.src.id, dep.dst.id, dep.latency, dep.distance))
    if not any(distance > 0 for *_, distance in edges):
        return 1
    node_ids = [op.id for op in block.ops]

    def has_positive_cycle(ii: int) -> bool:
        # Longest-path Bellman-Ford; weight = latency - ii*distance.
        dist = {n: 0 for n in node_ids}
        for iteration in range(len(node_ids)):
            changed = False
            for src, dst, latency, distance in edges:
                weight = latency - ii * distance
                if dist[src] + weight > dist[dst]:
                    dist[dst] = dist[src] + weight
                    changed = True
            if not changed:
                return False
        return True

    low, high = 1, max(1, sum(unit_latency(op) for op in block.ops))
    while low < high:
        mid = (low + high) // 2
        if has_positive_cycle(mid):
            low = mid + 1
        else:
            high = mid
    return low


def _try_modulo_schedule(
    block: BasicBlock,
    ii: int,
    resources: ResourceSet,
    graph: DependenceGraph,
    carried: List[LoopDependence],
    budget_factor: int = 8,
) -> Optional[Dict[int, int]]:
    """One Rau-style attempt at initiation interval ``ii`` (no eviction)."""
    by_id = {op.id: op for op in block.ops}
    # Height-based priority from the distance-0 graph.
    height: Dict[int, int] = {}
    for op in reversed(_topo(graph)):
        height[op.id] = unit_latency(op) + max(
            (height[s] for s in graph.successors(op)), default=0
        )
    order = sorted(block.ops, key=lambda op: (-height[op.id], op.id))
    placed: Dict[int, int] = {}
    mrt: Dict[Tuple[str, int], int] = {}  # (resource, slot) -> count
    horizon = budget_factor * max(ii, 1) + sum(unit_latency(op) for op in block.ops)

    preds_with_carried: Dict[int, List[Tuple[int, int, int]]] = {}
    for op in block.ops:
        entries = [(p, unit_latency(by_id[p]), 0) for p in graph.predecessors(op)]
        preds_with_carried[op.id] = entries
    for dep in carried:
        preds_with_carried[dep.dst.id].append((dep.src.id, dep.latency, dep.distance))

    for op in order:
        earliest = 0
        for pred_id, latency, distance in preds_with_carried[op.id]:
            if pred_id in placed:
                earliest = max(earliest, placed[pred_id] + latency - ii * distance)
        earliest = max(earliest, 0)
        resource = classify(op)
        limit = resources.limit(resource) if resource != FREE else None
        chosen = None
        for step in range(earliest, min(earliest + ii, horizon)):
            if limit is not None:
                slot = (resource, step % ii)
                if mrt.get(slot, 0) >= limit:
                    continue
            # Distance-1 successors already placed impose upper bounds.
            feasible = True
            for dep in carried:
                if dep.src.id == op.id and dep.dst.id in placed:
                    if step + dep.latency - ii * dep.distance > placed[dep.dst.id]:
                        feasible = False
                        break
            if feasible:
                chosen = step
                break
        if chosen is None:
            return None
        placed[op.id] = chosen
        if limit is not None:
            slot = (resource, chosen % ii)
            mrt[slot] = mrt.get(slot, 0) + 1
    return placed


def _topo(graph: DependenceGraph) -> List[Operation]:
    remaining = {op.id: len(graph.predecessors(op)) for op in graph.ops}
    by_id = {op.id: op for op in graph.ops}
    queue = [op for op in graph.ops if remaining[op.id] == 0]
    order: List[Operation] = []
    while queue:
        op = queue.pop(0)
        order.append(op)
        for succ in sorted(graph.successors(op)):
            remaining[succ] -= 1
            if remaining[succ] == 0:
                queue.append(by_id[succ])
    if len(order) != len(graph.ops):
        raise ScheduleError("cycle in distance-0 dependence graph")
    return order


def modulo_schedule(
    block: BasicBlock,
    resources: Optional[ResourceSet] = None,
    max_ii_slack: int = 16,
    trace=None,
) -> ModuloResult:
    """Pipeline one loop block; always returns a result (achieved_ii may be
    None when even II = MII + slack failed, meaning 'effectively
    unpipelineable')."""
    if trace is not None and trace.enabled:
        with trace.span("schedule.modulo", cat="scheduler"):
            result = modulo_schedule(block, resources, max_ii_slack)
            trace.count(
                ops=result.op_count,
                achieved_ii=result.achieved_ii or 0,
                mii=max(result.res_mii, result.rec_mii, 1),
            )
        return result
    resources = resources or ResourceSet.typical()
    graph = build_dependence_graph(block)
    carried = loop_carried_dependences(block)
    res_mii = resource_mii(block, resources)
    rec_mii = recurrence_mii(block, graph, carried)
    mii = max(res_mii, rec_mii, 1)
    sequential = unit_asap(block, graph).n_steps
    achieved: Optional[int] = None
    placement: Dict[int, int] = {}
    for ii in range(mii, mii + max_ii_slack + 1):
        result = _try_modulo_schedule(block, ii, resources, graph, carried)
        if result is not None:
            achieved = ii
            placement = result
            break
    length = sequential
    if placement:
        length = max(
            placement[op.id] + max(unit_latency(op), 1) for op in block.ops
        ) if block.ops else 1
    return ModuloResult(
        block=block,
        res_mii=res_mii,
        rec_mii=rec_mii,
        achieved_ii=achieved,
        schedule_length=length,
        sequential_steps=sequential,
        op_count=len(block.ops),
        op_step=placement,
    )
