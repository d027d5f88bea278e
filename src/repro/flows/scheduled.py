"""Shared machinery for flows that schedule a CDFG into an FSMD system.

Two scheduling styles live here:

* :func:`list_schedule_function` (imported) — the behavioral-synthesis
  style (HardwareC, Bach C, C2Verilog, SpecC): the compiler packs
  operations into cycles under resource limits and timing constraints;
* :func:`chain_schedule_function` — the syntax-directed style
  (Transmogrifier C, SystemC sequential processes): one state per basic
  block, arbitrary-depth combinational chaining within it, and extra states
  only at fences (wait/delay/send/recv).  The clock period then *is* the
  worst chained path — which is exactly why Transmogrifier users had to
  recode to meet timing.

:class:`ScheduledFlow` is the one ``compile`` those seven flows share;
each declares only which style it uses and how its pipeline differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..analysis.pointer import PointerPlan, plan_pointers
from ..binding import allocate_registers, bind_functional_units, estimate_cost
from ..ir import build_function
from ..ir.cdfg import FunctionCDFG
from ..ir.ops import OpKind
from ..ir.passes import inline_program
from ..ir.passes.fixpoint import optimize_cdfg
from ..lang import ast_nodes as ast
from ..lang.semantic import SemanticInfo
from ..rtl.fsmd import FSMD, FSMDSystem, fsmd_from_schedule
from ..rtl.tech import DEFAULT_TECH, Technology
from ..scheduling.base import BlockSchedule, ConstraintInfeasible, FunctionSchedule
from ..scheduling.list_scheduler import list_schedule_function
from ..scheduling.resources import ResourceSet, op_delay_ns
from ..trace import ensure_trace
from .base import (
    DesignCost,
    Flow,
    FSMDSystemDesign,
    TimingInfeasible,
    _roots_of,
)


def _first_within_location(fn: ast.FunctionDef):
    """Where the function's first ``within`` block starts (diagnostics)."""
    for stmt in ast.walk_stmts(fn.body):
        if isinstance(stmt, ast.Within):
            return stmt.location
    return None


def chain_schedule_function(
    cdfg: FunctionCDFG,
    tech: Technology = DEFAULT_TECH,
    scheduler_name: str = "chain",
) -> FunctionSchedule:
    """One state per block; fences get states of their own.

    All non-fence operations of a block share its single step, chained
    combinationally; ``op_finish_ns`` records the dataflow-longest path so
    the cost model can report the (often enormous) implied clock period.
    """
    schedule = FunctionSchedule(
        cdfg=cdfg, clock_ns=0.0, scheduler=scheduler_name, resources=None
    )
    for block in cdfg.reachable_blocks():
        op_step: Dict[int, int] = {}
        start_ns: Dict[int, float] = {}
        finish_ns: Dict[int, float] = {}
        # VReg id -> (step it was computed in, finish time within that step).
        vreg_ready: Dict[int, tuple] = {}
        step = 0
        step_dirty = False
        # Memories stored to in the current step: a subsequent access to the
        # same memory must wait for the synchronous write to commit at the
        # state edge, so it opens a new state (a RAM cannot forward within
        # one combinational cycle).
        stored_this_step: set = set()
        for op in block.ops:
            if (
                op.is_memory()
                and op.array is not None
                and op.array.unique_name in stored_this_step
            ):
                step += 1
                step_dirty = False
                stored_this_step = set()
            if op.kind in (OpKind.BARRIER, OpKind.DELAY, OpKind.SEND, OpKind.RECV):
                if step_dirty:
                    step += 1
                op_step[op.id] = step
                start_ns[op.id] = 0.0
                finish_ns[op.id] = op_delay_ns(op, tech)
                if op.dest is not None:
                    vreg_ready[op.dest.id] = (step, finish_ns[op.id])
                step += max(op.cycles, 1) if op.kind is OpKind.DELAY else 1
                step_dirty = False
                stored_this_step = set()
                continue
            ready = 0.0
            for operand in op.operands:
                operand_id = getattr(operand, "id", None)
                if operand_id is not None and operand_id in vreg_ready:
                    ready_step, ready_time = vreg_ready[operand_id]
                    if ready_step == step:
                        ready = max(ready, ready_time)
                    # Values from earlier steps arrive through a register:
                    # available at the start of this step.
            op_step[op.id] = step
            start_ns[op.id] = ready
            finish_ns[op.id] = ready + op_delay_ns(op, tech)
            if op.dest is not None:
                vreg_ready[op.dest.id] = (step, finish_ns[op.id])
            if op.kind is OpKind.STORE and op.array is not None:
                stored_this_step.add(op.array.unique_name)
            step_dirty = True
        n_steps = step + 1 if (step_dirty or step == 0) else step
        schedule.blocks[block.id] = BlockSchedule(
            block=block,
            op_step=op_step,
            n_steps=max(n_steps, 1),
            op_start_ns=start_ns,
            op_finish_ns=finish_ns,
        )
    return schedule


@dataclass
class SynthesisArtifacts:
    """Everything a scheduled flow produced for one process."""

    fsmd: FSMD
    schedule: FunctionSchedule
    plan: PointerPlan
    cdfg: FunctionCDFG


class FSMDDesign(FSMDSystemDesign):
    """A scheduled multi-process FSMD design: the FSMD system plus the
    schedules it came from, which price it through binding."""

    def __init__(
        self,
        flow_key: str,
        name: str,
        system: FSMDSystem,
        artifacts: List[SynthesisArtifacts],
        tech: Technology = DEFAULT_TECH,
        stats: Optional[Dict[str, object]] = None,
    ):
        super().__init__(flow_key, name, system, tech, stats)
        self.artifacts = artifacts

    def cost(self, tech: Technology = DEFAULT_TECH, trace=None) -> DesignCost:
        t = ensure_trace(trace)
        total_area = 0.0
        clock = 0.0
        critical = 0.0
        states = 0
        registers = 0
        units = 0
        detail: Dict[str, float] = {}
        with t.span("bind", cat="phase"):
            for artifact in self.artifacts:
                with t.span("bind.fu", cat="bind"):
                    binding = bind_functional_units(artifact.schedule, tech)
                with t.span("bind.regalloc", cat="bind"):
                    allocation = allocate_registers(artifact.schedule)
                with t.span("bind.cost", cat="bind"):
                    cost = estimate_cost(
                        artifact.schedule, binding, allocation, tech
                    )
                total_area += cost.total_area_ge
                clock = max(clock, cost.clock_ns)
                critical = max(critical, cost.critical_path_ns)
                states += artifact.fsmd.n_states
                registers += allocation.register_count()
                units += len(binding.units)
                detail[f"{artifact.fsmd.name}.area_ge"] = cost.total_area_ge
            t.count(states=states, registers=registers,
                    functional_units=units)
        return DesignCost(
            area_ge=total_area,
            clock_ns=clock,
            critical_path_ns=critical,
            states=states,
            registers=registers,
            functional_units=units,
            detail=detail,
        )


def synthesize_fsmd_system(
    program: ast.Program,
    info: SemanticInfo,
    function: str,
    flow_key: str,
    resources: Optional[ResourceSet] = None,
    clock_ns: float = 5.0,
    tech: Technology = DEFAULT_TECH,
    scheduler: str = "list",
    pointer_analysis: bool = True,
    call_boundary: bool = False,
    ast_transform: Optional[Callable[[ast.FunctionDef], ast.FunctionDef]] = None,
    inline_max_depth: int = 32,
    plan_override: Optional[Callable[[ast.FunctionDef], PointerPlan]] = None,
    narrow: bool = False,
    opt_level: int = 1,
    trace=None,
) -> FSMDDesign:
    """The common scheduled-flow pipeline:

    inline -> (per-flow AST transform) -> pointer plan -> CDFG -> optimize ->
    schedule (list or chain) -> FSMD, for the entry function and each
    ``process``.

    ``opt_level`` (one of ``OPT_LEVELS``) picks the mid-end pass list
    from :data:`repro.ir.passes.fixpoint.OPT_PIPELINES`: 0 = none, 1 =
    the classic fold/CSE/DCE/simplify loop (the default), 2 = the
    liveness-driven fixpoint pipeline (adds copy propagation, chain
    load/store elimination, and dead-variable elimination).  Level 3
    runs the level-2 list and then bit-width narrowing, which this flow
    applies itself.  ``trace`` receives one phase span per stage.
    """
    t = ensure_trace(trace)
    roots = _roots_of(program, function)
    with t.span("inline", cat="phase"):
        inlined, inline_stats = inline_program(
            program, info, roots=roots, max_depth=inline_max_depth,
            call_boundary=call_boundary,
        )
        t.count(calls_inlined=inline_stats.calls_inlined,
                truncated=inline_stats.truncated_calls)
    narrow = narrow or opt_level >= 3
    artifacts: List[SynthesisArtifacts] = []
    memory_images = {}
    for fn in inlined.functions:
        if ast_transform is not None:
            fn = ast_transform(fn)
        with t.span("cdfg", cat="phase"):
            if plan_override is not None:
                plan = plan_override(fn)
            else:
                with t.span("cdfg.pointer-plan", cat="analysis"):
                    plan = plan_pointers(fn, enable_analysis=pointer_analysis)
            cdfg = build_function(fn, info, plan)
            t.count(ops=cdfg.op_count(), blocks=len(cdfg.blocks))
        with t.span("passes", cat="phase"):
            optimize_cdfg(cdfg, opt_level=opt_level, trace=trace)
            if narrow:
                from ..ir.passes.narrow import narrow_widths

                with t.span("pass.narrow", cat="pass"):
                    narrow_widths(cdfg)
        with t.span("schedule", cat="phase"):
            if scheduler == "chain":
                schedule = chain_schedule_function(
                    cdfg, tech, scheduler_name="chain"
                )
            else:
                try:
                    schedule = list_schedule_function(
                        cdfg, resources or ResourceSet.typical(), tech,
                        clock_ns, trace=trace,
                    )
                except ConstraintInfeasible as error:
                    # Re-raise as the flow-level timing rejection the TIM102
                    # checker rule predicts, anchored at the within block.
                    raise TimingInfeasible(
                        flow_key,
                        f"no schedule meets the within constraint: {error}",
                        location=_first_within_location(fn),
                    ) from error
            fsmd = fsmd_from_schedule(schedule)
            t.count(scheduler=scheduler, states=fsmd.n_states)
        artifacts.append(
            SynthesisArtifacts(fsmd=fsmd, schedule=schedule, plan=plan, cdfg=cdfg)
        )
        if plan.memory_symbol is not None:
            memory_images[plan.memory_symbol] = plan.initial_memory(info.global_inits)
    # The entry function's machine must come first (the simulator's root).
    artifacts.sort(key=lambda a: 0 if a.fsmd.name == function else 1)
    system = FSMDSystem.of_program(
        program, info, [a.fsmd for a in artifacts], function, memory_images
    )
    return FSMDDesign(
        flow_key=flow_key,
        name=function,
        system=system,
        artifacts=artifacts,
        tech=tech,
        stats={
            "calls_inlined": inline_stats.calls_inlined,
            "inline_truncated": inline_stats.truncated_calls,
            "scheduler": scheduler,
        },
    )


class ScheduledFlow(Flow):
    """A flow that lowers each machine to a CDFG and schedules it into
    an FSMD: :func:`synthesize_fsmd_system` with the settings a subclass
    declares.  ``resources`` and ``clock_ns`` steer only the list
    scheduler, so a chain-scheduled flow does not take them.  A ``within``
    block binds wherever the flow accepts one: a flow whose tool had no
    in-language constraints forbids the feature instead."""

    #: ``"list"`` packs operations into cycles under a resource set and a
    #: clock; ``"chain"`` gives each basic block one state.
    SCHEDULER = "list"
    #: The resource set the list scheduler packs against when the caller
    #: names none.
    RESOURCES: Callable[[], ResourceSet] = staticmethod(ResourceSet.typical)
    #: Whether each inlined call costs a cycle of its own.
    CALL_BOUNDARY = False
    #: A rewrite of each function's AST before it is lowered.
    AST_TRANSFORM: Optional[Callable[[ast.FunctionDef], ast.FunctionDef]] = None

    @property
    def options(self):
        if self.SCHEDULER == "list":
            return super().options
        return super().options - {"resources", "clock_ns"}

    def compile(
        self,
        program: ast.Program,
        info: SemanticInfo,
        function: str = "main",
        resources: Optional[ResourceSet] = None,
        clock_ns: float = 5.0,
        tech: Technology = DEFAULT_TECH,
        opt_level: int = 1,
        trace=None,
    ) -> FSMDDesign:
        return self._synthesize(
            program, info, function, trace, resources=resources,
            clock_ns=clock_ns, tech=tech, opt_level=opt_level,
        )

    def _synthesize(self, program, info, function, trace, resources,
                    **settings) -> FSMDDesign:
        """Check the program, then run the pipeline with this flow's
        declarations plus ``settings`` (keywords of
        :func:`synthesize_fsmd_system`)."""
        self.check(program, info, function, trace)
        return synthesize_fsmd_system(
            program, info, function,
            flow_key=self.metadata.key,
            resources=resources or self.RESOURCES(),
            scheduler=self.SCHEDULER,
            call_boundary=self.CALL_BOUNDARY,
            ast_transform=self.AST_TRANSFORM,
            trace=trace,
            **settings,
        )
