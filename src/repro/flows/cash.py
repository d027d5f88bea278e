"""CASH (Budiu & Goldstein, CMU, 2002).

Table 1: *"Synthesizes asynchronous circuits."*  CASH *"is unique because
it generates asynchronous hardware.  It identifies instruction-level
parallelism in ANSI C and generates asynchronous dataflow circuits"* — the
paper's example of a *"VLIW-compiler-like approach, analyzing
inter-instruction dependencies and scheduling instructions to maximize
parallelism."*

The flow compiles plain C (pointers included, via the same Andersen
analysis as C2Verilog — CASH's Pegasus IR did its own) into an optimized
CDFG, then *spatializes* it: every operation is its own asynchronous
functional unit, and execution timing follows token arrival rather than a
clock (:mod:`repro.sim.async_sim`).  Area is correspondingly the sum of all
operators plus per-edge handshake buffering — spatial computation trades
silicon for the absence of a clock.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..analysis.pointer import PointerPlan, plan_pointers
from ..lang import ast_nodes as ast
from ..lang.semantic import (
    FEATURE_CHANNELS,
    FEATURE_DELAY,
    FEATURE_PAR,
    FEATURE_WAIT,
    FEATURE_WITHIN,
    SemanticInfo,
)
from ..lang.symtab import SymbolKind
from ..lang.types import ArrayType
from ..ir import build_function
from ..ir.cdfg import FunctionCDFG
from ..ir.ops import VReg
from ..ir.passes import inline_program
from ..ir.passes.fixpoint import optimize_cdfg
from ..rtl.tech import DEFAULT_TECH, Technology
from ..scheduling.resources import op_area_ge
from ..sim.async_sim import AsyncSimulator
from ..trace import ensure_trace
from .base import (
    CompiledDesign,
    DesignCost,
    Flow,
    FlowMetadata,
    FlowResult,
)

_KEY = "cash"


class CashDesign(CompiledDesign):
    def __init__(
        self,
        name: str,
        cdfg: FunctionCDFG,
        plan: PointerPlan,
        info: SemanticInfo,
        stats: Dict[str, object],
    ):
        super().__init__(_KEY, name)
        self.cdfg = cdfg
        self.plan = plan
        self.info = info
        self.stats = stats

    @property
    def artifact_kind(self) -> str:
        return "dataflow"

    def _initial_state(self):
        register_init = {}
        memory_init = {}
        for symbol in self.cdfg.registers:
            if symbol.kind is SymbolKind.GLOBAL:
                init = self.info.global_inits.get(symbol.name)
                if isinstance(init, int):
                    register_init[symbol] = init
        for array in self.cdfg.arrays:
            if array.kind is SymbolKind.GLOBAL:
                init = self.info.global_inits.get(array.name)
                if isinstance(init, list):
                    memory_init[array] = list(init)
        if self.plan.memory_symbol is not None:
            memory_init[self.plan.memory_symbol] = self.plan.initial_memory(
                self.info.global_inits
            )
        return register_init, memory_init

    def run(
        self,
        args: Sequence[int] = (),
        process_args=None,
        max_cycles: int = 2_000_000,
        sim_profile=None,
        trace=None,
    ) -> FlowResult:
        # Token dataflow: no FSMD, so sim_profile stays empty.
        t = ensure_trace(trace)
        with t.span("sim", cat="phase"):
            register_init, memory_init = self._initial_state()
            sim = AsyncSimulator(
                self.cdfg, args=args, register_init=register_init,
                memory_init=memory_init, max_blocks=max_cycles,
            )
            result = sim.run()
            t.count(ops_fired=result.ops_fired)
        flow_globals: Dict[str, object] = {}
        for symbol in self.cdfg.registers:
            if symbol.kind is SymbolKind.GLOBAL:
                flow_globals[symbol.name] = result.registers[symbol.unique_name]
        for array in self.cdfg.arrays:
            if array.kind is SymbolKind.GLOBAL:
                flow_globals[array.name] = result.memories[array.unique_name]
        # Globals the plan moved into the unified memory surface from there.
        if self.plan.memory_symbol is not None:
            words = result.memories[self.plan.memory_symbol.unique_name]
            for symbol, base in self.plan.layout.items():
                if symbol.kind is SymbolKind.GLOBAL:
                    if isinstance(symbol.type, ArrayType):
                        flow_globals[symbol.name] = words[
                            base : base + symbol.type.size
                        ]
                    else:
                        flow_globals[symbol.name] = words[base]
        return FlowResult(
            value=result.value,
            cycles=0,  # asynchronous: there is no clock to count
            time_ns=result.completion_ns,
            globals=flow_globals,
            stats={
                "ops_fired": result.ops_fired,
                "average_parallelism": result.average_parallelism,
                **self.stats,
            },
        )

    def cost(self, tech: Technology = DEFAULT_TECH, trace=None) -> DesignCost:
        t = ensure_trace(trace)
        if t.enabled:
            with t.span("bind", cat="phase"):
                cost = self.cost(tech)
                t.count(functional_units=cost.functional_units,
                        registers=cost.registers)
            return cost
        # Spatial computation: every static operation is a unit of its own.
        op_area = sum(op_area_ge(op, tech) for op in self.cdfg.iter_ops())
        edges = 0
        for block in self.cdfg.blocks:
            for op in block.ops:
                edges += sum(1 for o in op.operands if isinstance(o, VReg))
        handshake_area = 40.0 * edges  # latch + C-element per dataflow edge
        register_area = sum(
            tech.register_area_ge(s.type.bit_width) for s in self.cdfg.registers
        )
        memory_area = sum(
            tech.memory_area_ge(a.type.size, a.type.element.bit_width, 1)
            for a in self.cdfg.arrays
            if isinstance(a.type, ArrayType)
        )
        ops = list(self.cdfg.iter_ops())
        return DesignCost(
            area_ge=op_area + handshake_area + register_area + memory_area,
            clock_ns=0.0,
            critical_path_ns=0.0,
            states=0,
            registers=len(self.cdfg.registers),
            functional_units=len(ops),
            detail={"handshake_area_ge": handshake_area},
        )


class CashFlow(Flow):
    metadata = FlowMetadata(
        key=_KEY,
        title="CASH",
        year=2002,
        note="Synthesizes asynchronous circuits",
        concurrency="compiler",
        concurrency_detail="VLIW-like dependence analysis; maximal dataflow ILP",
        timing="asynchronous",
        timing_detail="no clock: per-operator handshakes, token-driven",
        artifact="dataflow",
        reference="Budiu & Goldstein, FPL 2002 (LNCS 2438)",
    )

    FORBIDDEN = {
        FEATURE_PAR: "CASH compiles plain ANSI C: no par",
        FEATURE_CHANNELS: "CASH compiles plain ANSI C: no channels",
        FEATURE_WAIT: "CASH circuits have no clock to wait on",
        FEATURE_DELAY: "CASH circuits have no clock to wait on",
        FEATURE_WITHIN: "CASH has no timing constraints",
    }

    NO_PROCESSES = "CASH compiles a single C program"

    def compile(
        self,
        program: ast.Program,
        info: SemanticInfo,
        function: str = "main",
        pointer_analysis: bool = True,
        opt_level: int = 1,
        trace=None,
    ) -> CompiledDesign:
        t = ensure_trace(trace)
        roots = self.check(program, info, function, trace)
        with t.span("inline", cat="phase"):
            inlined, inline_stats = inline_program(program, info, roots=roots)
            t.count(calls_inlined=inline_stats.calls_inlined)
        fn = inlined.function(function)
        with t.span("cdfg", cat="phase"):
            with t.span("cdfg.pointer-plan", cat="analysis"):
                plan = plan_pointers(fn, enable_analysis=pointer_analysis)
            cdfg = build_function(fn, info, plan)
            t.count(ops=cdfg.op_count())
        with t.span("passes", cat="phase"):
            optimize_cdfg(cdfg, opt_level=opt_level, trace=trace)
        return CashDesign(
            name=function,
            cdfg=cdfg,
            plan=plan,
            info=info,
            stats={"calls_inlined": inline_stats.calls_inlined},
        )
