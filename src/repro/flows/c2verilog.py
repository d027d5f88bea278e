"""C2Verilog (CompiLogic / C Level Design, 1998).

Table 1: *"Comprehensive; company defunct."*  The broadest C support of the
survey: *"It can translate pointers, recursion, dynamic memory allocation,
and other thorny C constructs"* — and purely compiler-driven concurrency
and timing: *"The C2Verilog compiler inserts cycles using complex rules and
provides mechanisms for imposing timing constraints.  Unlike HardwareC,
these constraints are outside the language."*

Accordingly this flow accepts pointers (lowered via Andersen analysis, with
the unified-memory fallback), unrolls bounded recursion, rejects the
*language-level* hardware extensions (``par``, channels, ``within``), and
exposes its timing knobs as compile options (``clock_ns``, ``resources``).
"""

from __future__ import annotations

from typing import Optional

from ..lang import ast_nodes as ast
from ..lang.semantic import (
    FEATURE_CHANNELS,
    FEATURE_DELAY,
    FEATURE_PAR,
    FEATURE_WAIT,
    FEATURE_WITHIN,
    SemanticInfo,
)
from ..rtl.tech import DEFAULT_TECH, Technology
from ..scheduling.resources import ResourceSet
from .base import FlowMetadata
from .scheduled import FSMDDesign, ScheduledFlow


class C2VerilogFlow(ScheduledFlow):
    metadata = FlowMetadata(
        key="c2verilog",
        title="C2Verilog",
        year=1998,
        note="Comprehensive; company defunct",
        concurrency="compiler",
        concurrency_detail="compiler-extracted ILP from plain ANSI C",
        timing="compiler",
        timing_detail="cycles inserted by compiler rules; constraints are"
                      " compile options outside the language",
        artifact="fsmd",
        reference="Soderman & Panchul, FCCM 1998; US patent 6,226,776",
    )

    FORBIDDEN = {
        FEATURE_PAR: "C2Verilog compiles plain C; no par construct",
        FEATURE_CHANNELS: "C2Verilog compiles plain C; no channels",
        FEATURE_WITHIN: "C2Verilog timing constraints live outside"
                        " the language (use clock_ns/resources"
                        " compile options)",
        FEATURE_WAIT: "C2Verilog compiles plain C; no wait()",
        FEATURE_DELAY: "C2Verilog compiles plain C; no delay()",
    }

    def compile(
        self,
        program: ast.Program,
        info: SemanticInfo,
        function: str = "main",
        resources: Optional[ResourceSet] = None,
        clock_ns: float = 5.0,
        tech: Technology = DEFAULT_TECH,
        pointer_analysis: bool = True,
        recursion_depth: int = 32,
        narrow: bool = False,
        opt_level: int = 1,
        trace=None,
    ) -> FSMDDesign:
        return self._synthesize(
            program, info, function, trace, resources=resources,
            clock_ns=clock_ns, tech=tech, opt_level=opt_level,
            pointer_analysis=pointer_analysis,
            inline_max_depth=recursion_depth, narrow=narrow,
        )
