"""Design wrapper for FSMDs built directly (without a scheduler):
the syntax-directed Handel-C flow and the structural Ocapi API."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..rtl.fsmd import FSMDSystem
from ..rtl.tech import DEFAULT_TECH, Technology
from ..sim import simulate
from ..sim.profile import SimProfile
from ..trace import ensure_trace
from .base import CompiledDesign, DesignCost, FlowResult


class DirectDesign(CompiledDesign):
    """An FSMD system whose states were authored directly."""

    def __init__(
        self,
        flow_key: str,
        name: str,
        system: FSMDSystem,
        tech: Technology = DEFAULT_TECH,
        stats: Optional[Dict[str, object]] = None,
    ):
        super().__init__(flow_key, name)
        self.system = system
        self.tech = tech
        self.stats: Dict[str, object] = stats or {}

    @property
    def artifact_kind(self) -> str:
        return "fsmd-system"

    def run(
        self,
        args: Sequence[int] = (),
        process_args: Optional[Dict[str, Sequence[int]]] = None,
        max_cycles: int = 2_000_000,
        sim_backend: str = "interp",
        sim_profile=None,
        trace=None,
    ) -> FlowResult:
        t = ensure_trace(trace)
        profile = sim_profile
        if t.enabled and profile is None:
            profile = SimProfile(backend=sim_backend)
        with t.span("sim", cat="phase"):
            sim = simulate(
                self.system, args=args, process_args=process_args,
                max_cycles=max_cycles, sim_backend=sim_backend,
                profile=profile,
            )
            if t.enabled and profile is not None:
                t.leaf("sim.compile", profile.compile_s, cat="sim")
                t.leaf("sim.execute", profile.execute_s, cat="sim",
                       cycles=profile.cycles)
                t.count(backend=sim_backend, cycles=sim.cycles,
                        stall_cycles=sim.stall_cycles)
        cost = self.own_cost()
        return FlowResult(
            value=sim.value,
            cycles=sim.cycles,
            time_ns=sim.cycles * cost.clock_ns,
            globals=sim.globals,
            channel_log=sim.channel_log,
            stats={"stall_cycles": sim.stall_cycles, **self.stats},
        )

    def cost(self, tech: Technology = DEFAULT_TECH, trace=None) -> DesignCost:
        from ..binding.datapath_cost import estimate_fsmd_cost

        t = ensure_trace(trace)
        with t.span("bind", cat="phase"):
            costs = [estimate_fsmd_cost(f, tech) for f in self.system.fsmds]
            states = sum(f.n_states for f in self.system.fsmds)
            registers = sum(len(f.registers) for f in self.system.fsmds)
            t.count(states=states, registers=registers)
        return DesignCost(
            area_ge=sum(c.total_area_ge for c in costs),
            clock_ns=max(c.clock_ns for c in costs),
            critical_path_ns=max(c.critical_path_ns for c in costs),
            states=states,
            registers=registers,
            functional_units=0,
        )

    def verilog(self, trace=None) -> str:
        from ..rtl.verilog import emit_fsmd_system

        t = ensure_trace(trace)
        with t.span("emit", cat="phase"):
            text = emit_fsmd_system(self.system, trace=trace)
            t.count(lines=text.count("\n"))
        return text
