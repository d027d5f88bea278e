"""SpecC (Gajski et al., UC Irvine, 2000).

Table 1: *"Resolutely refinement-based."*  SpecC adds FSM, concurrency,
pipelining, and structure constructs through thirty-three keywords, and
*"systems written in the complete language must be refined into the
synthesizable subset."*

The flow models the refinement ladder with a ``refine`` option:

* ``"specification"`` — implicit clock boundaries: unconstrained scheduling
  (unlimited resources), the early exploratory model;
* ``"implementation"`` — boundaries made concrete under real resource
  limits, the refined synthesizable model.

Compiling the same program at both levels shows the cycle/area movement the
refinement methodology trades in.
"""

from __future__ import annotations

from typing import Optional

from ..lang import ast_nodes as ast
from ..lang.semantic import FEATURE_RECURSION, SemanticInfo
from ..rtl.tech import DEFAULT_TECH, Technology
from ..scheduling.resources import ResourceSet
from .base import FlowError, FlowMetadata
from .scheduled import FSMDDesign, ScheduledFlow


class SpecCFlow(ScheduledFlow):
    metadata = FlowMetadata(
        key="specc",
        title="SpecC",
        year=2000,
        note="Resolutely refinement-based",
        concurrency="explicit",
        concurrency_detail="par/pipe/FSM constructs (33 added keywords)",
        timing="refinement",
        timing_detail="implicit boundaries made concrete during refinement",
        artifact="fsmd",
        reference="Gajski et al., Kluwer 2000",
    )

    FORBIDDEN = {
        FEATURE_RECURSION: "the SpecC synthesizable subset forbids recursion",
    }

    def compile(
        self,
        program: ast.Program,
        info: SemanticInfo,
        function: str = "main",
        refine: str = "implementation",
        resources: Optional[ResourceSet] = None,
        clock_ns: float = 5.0,
        tech: Technology = DEFAULT_TECH,
        opt_level: int = 1,
        trace=None,
    ) -> FSMDDesign:
        if refine == "specification":
            resources = ResourceSet.unlimited()
        elif refine != "implementation":
            raise FlowError(
                self.metadata.key,
                f"unknown refinement level {refine!r}"
                " (use 'specification' or 'implementation')",
            )
        design = super().compile(
            program, info, function, resources, clock_ns, tech, opt_level,
            trace,
        )
        design.stats["refine"] = refine
        return design
