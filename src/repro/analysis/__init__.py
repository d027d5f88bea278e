"""Program analyses: pointers/memory planning, ILP limits, dependences,
call graphs, and the synthesizability linter (liveness lives with the IR,
in :mod:`repro.ir.liveness`)."""

from .callgraph import CallGraph, build_callgraph
from .dependence import BlockDependenceStats, block_stats, function_stats
from .ilp import ILPProfile, Trace, ilp, ilp_profile, trace_execution
from .memory import (
    MemoryComparison,
    arrays_of,
    compare_memory_models,
    monolithic_plan,
    partitioned_plan,
)
from .pointer import PointerPlan, PointerStats, plan_pointers

# The linter builds CDFGs, so importing it here eagerly would close a cycle
# (ir.builder imports analysis.pointer).  Re-export lazily instead; ``lint``
# resolves to the subpackage, whose ``lint()`` function is the entry point.
_LINT_EXPORTS = ("Diagnostic", "LintReport", "Severity", "lint", "lint_file")

# The time-sensitive tier compiles through the flows, so it is lazy too;
# ``timing`` resolves to the subpackage, the rest to its entry points.
_TIMING_EXPORTS = (
    "CheckOptions",
    "CheckRejected",
    "TimingObligations",
    "check",
    "check_file",
    "enforce",
    "obligations_for",
    "timing",
)


def __getattr__(name: str):
    if name in _LINT_EXPORTS:
        import importlib

        module = importlib.import_module(".lint", __name__)
        if name == "lint":
            return module
        return getattr(module, name)
    if name in _TIMING_EXPORTS:
        import importlib

        module = importlib.import_module(".timing", __name__)
        if name == "timing":
            return module
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CheckOptions",
    "CheckRejected",
    "Diagnostic",
    "LintReport",
    "Severity",
    "TimingObligations",
    "check",
    "check_file",
    "enforce",
    "lint",
    "lint_file",
    "obligations_for",
    "timing",
    "BlockDependenceStats",
    "CallGraph",
    "ILPProfile",
    "MemoryComparison",
    "PointerPlan",
    "PointerStats",
    "Trace",
    "arrays_of",
    "block_stats",
    "build_callgraph",
    "compare_memory_models",
    "function_stats",
    "ilp",
    "ilp_profile",
    "monolithic_plan",
    "partitioned_plan",
    "plan_pointers",
    "trace_execution",
]
