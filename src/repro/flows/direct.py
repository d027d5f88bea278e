"""Design wrapper for FSMDs built directly (without a scheduler):
the syntax-directed Handel-C flow and the structural Ocapi API."""

from __future__ import annotations

from ..rtl.tech import DEFAULT_TECH, Technology
from ..trace import ensure_trace
from .base import DesignCost, FSMDSystemDesign


class DirectDesign(FSMDSystemDesign):
    """An FSMD system whose states were authored directly, priced per
    FSMD from its states and registers."""

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
