"""Program analyses: pointers/memory planning, ILP limits, the
synthesizability linter (:mod:`.lint`) and the time-sensitive checker
(:mod:`.timing`); liveness lives with the IR, in :mod:`repro.ir.liveness`.

Every name loads its submodule on first use (:mod:`repro._exports`): the
linter and the checker compile through the flows, and the ILP and memory
analyses are for experiments, not for synthesis."""

from .._exports import lazy_exports

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
    "ILPProfile",
    "MemoryComparison",
    "PointerPlan",
    "PointerStats",
    "Trace",
    "arrays_of",
    "compare_memory_models",
    "ilp",
    "ilp_profile",
    "monolithic_plan",
    "partitioned_plan",
    "plan_pointers",
    "trace_execution",
]

# ``lint`` and ``timing`` are not listed: they resolve to the
# subpackages, whose entry points are ``lint.lint`` and ``timing.check``.
__getattr__, __dir__ = lazy_exports(__name__, {
    "ILPProfile": ".ilp",
    "Trace": ".ilp",
    "ilp": ".ilp",
    "ilp_profile": ".ilp",
    "trace_execution": ".ilp",
    "MemoryComparison": ".memory",
    "arrays_of": ".memory",
    "compare_memory_models": ".memory",
    "monolithic_plan": ".memory",
    "partitioned_plan": ".memory",
    "PointerPlan": ".pointer",
    "PointerStats": ".pointer",
    "plan_pointers": ".pointer",
    "Diagnostic": ".lint",
    "LintReport": ".lint",
    "Severity": ".lint",
    "lint_file": ".lint",
    "CheckOptions": ".timing",
    "CheckRejected": ".timing",
    "TimingObligations": ".timing",
    "check": ".timing",
    "check_file": ".timing",
    "enforce": ".timing",
    "obligations_for": ".timing",
})
