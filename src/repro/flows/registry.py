"""The flow registry — the executable version of the paper's Table 1.

Every row of Table 1 ("C-like languages/compilers, chronological order")
maps to an implemented flow; :func:`table1_rows` regenerates the table from
the registry, which is what ``benchmarks/bench_table1.py`` prints.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.lint.rules import (
    AliasFallbackRule,
    FeatureRule,
    NoProcessRule,
    ParStructureRule,
    ReceivePositionRule,
    Rule,
    SharedRaceRule,
    StaticLoopBoundRule,
    UnboundedLatencyRule,
    ZeroTimeLoopRule,
)
from .base import CompiledDesign, Flow, FlowError, FlowMetadata, FlowResult
from .bachc import BachCFlow
from .c2verilog import C2VerilogFlow
from .cash import CashFlow
from .cones import ConesFlow
from .cyber import CyberFlow
from .handelc import HandelCFlow
from .hardwarec import HardwareCFlow
from .ocapi import OcapiFlow
from .specc import SpecCFlow
from .systemc import SystemCFlow
from .transmogrifier import TransmogrifierFlow

# Chronological, exactly as in Table 1 of the paper.
_FLOW_CLASSES = [
    ConesFlow,          # 1988
    HardwareCFlow,      # 1990
    TransmogrifierFlow, # 1995
    SystemCFlow,        # (1999 lib, 2002 book) — Table 1 position
    OcapiFlow,          # 1998
    C2VerilogFlow,      # 1998
    CyberFlow,          # 1999
    HandelCFlow,        # 1998/2003
    SpecCFlow,          # 2000
    BachCFlow,          # 2001
    CashFlow,           # 2002
]

REGISTRY: Dict[str, Flow] = {cls.metadata.key: cls() for cls in _FLOW_CLASSES}

# Flows that accept C-like source through compile() (Ocapi is structural).
COMPILABLE = [key for key, flow in REGISTRY.items() if key != "ocapi"]


def get_flow(key: str) -> Flow:
    if key not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown flow {key!r}; known flows: {known}")
    return REGISTRY[key]


def compile_flow(
    source: str, flow="c2verilog", function: str = "main", trace=None,
    **options,
) -> CompiledDesign:
    """Parse and synthesize ``source`` with the named flow.

    Legacy shim: new code should use :func:`repro.api.synthesize`.
    ``flow`` also accepts a :class:`repro.api.SynthesisOptions` (no
    deprecation warning on that path); the string + ad-hoc keyword form
    warns once per process."""
    from ..api import SynthesisOptions, synthesize, warn_legacy

    if isinstance(flow, SynthesisOptions):
        chosen = SynthesisOptions.make(flow, **options) if options else flow
        return synthesize(source, chosen, trace=trace).design
    warn_legacy(
        "compile_flow",
        "use repro.api.synthesize(source, SynthesisOptions(flow=...))",
    )
    return synthesize(
        source, flow=flow, function=function, trace=trace, **options
    ).design


def run_flow(
    source: str,
    args: Sequence[int] = (),
    flow="c2verilog",
    function: str = "main",
    process_args=None,
    max_cycles: int = 2_000_000,
    sim_backend: str = "interp",
    sim_profile=None,
    trace=None,
    **options,
) -> FlowResult:
    """Compile and simulate in one call.

    Legacy shim over :func:`repro.api.synthesize` +
    :meth:`repro.api.SynthesisResult.run`; same option handling as
    :func:`compile_flow`."""
    from ..api import SynthesisOptions, synthesize, warn_legacy

    if isinstance(flow, SynthesisOptions):
        chosen = SynthesisOptions.make(flow, **options) if options else flow
        result = synthesize(source, chosen, trace=trace)
    else:
        warn_legacy(
            "run_flow",
            "use repro.api.synthesize(...).run(...)",
        )
        result = synthesize(
            source, flow=flow, function=function, sim_backend=sim_backend,
            trace=trace, **options,
        )
    return result.run(
        args=args, process_args=process_args, max_cycles=max_cycles,
        sim_profile=sim_profile,
    )


# Structural and CDFG-level lint rules per flow, beyond the feature table
# each flow declares in its FORBIDDEN attribute.  Declared here, next to the
# registry, so a flow's lint configuration lives with its Table 1 row.
_STRUCTURAL_RULES: Dict[str, List[Rule]] = {
    "cones": [
        NoProcessRule("Cones has no processes"),
        StaticLoopBoundRule(),
    ],
    "cash": [NoProcessRule("CASH compiles a single C program")],
    "handelc": [
        ZeroTimeLoopRule(),
        ParStructureRule(),
        ReceivePositionRule(),
    ],
}

# Flows whose pointer support goes through plan_pointers: warn when the
# analysis falls back to the unified memory.
_POINTER_FLOWS = ("c2verilog", "cash", "specc")

_lint_rule_cache: Dict[str, Tuple[Rule, ...]] = {}


def lint_rules(key: str) -> Tuple[Rule, ...]:
    """The lint rule set predicting what ``key``'s compile would reject,
    plus the hazard warnings that apply to its execution model."""
    if key in _lint_rule_cache:
        return _lint_rule_cache[key]
    flow = get_flow(key)
    rules: List[Rule] = [
        FeatureRule(feature, reason)
        for feature, reason in flow.FORBIDDEN.items()
    ]
    rules.extend(_STRUCTURAL_RULES.get(key, ()))
    if key in _POINTER_FLOWS:
        rules.append(AliasFallbackRule())
    if flow.metadata.concurrency == "explicit":
        rules.append(SharedRaceRule())
    if key != "cones":
        rules.append(UnboundedLatencyRule())
    result = tuple(rules)
    _lint_rule_cache[key] = result
    return result


def timing_rules(key: str, options=None) -> Tuple[Rule, ...]:
    """The TIM (time-sensitive) rule set for ``key`` — schedule-aware
    obligations layered on top of :func:`lint_rules`.  Unlike the lint
    rules these are *not* cached: each instance carries a per-check
    scratch of replicated schedules/FSMDs, so callers get fresh rules
    per invocation (``repro.analysis.timing.check`` shares one scratch
    across flows itself)."""
    from ..analysis.timing.rules import timing_rules_for

    return tuple(timing_rules_for(key, options))


def registry_fingerprint() -> str:
    """A digest of the registry's semantic surface: flow keys, class names,
    and each flow's feature table.  The artifact cache folds this into
    every cell key, so editing a flow's restrictions (or adding a flow)
    invalidates exactly the cached results that could change."""
    import hashlib

    parts = []
    for key in sorted(REGISTRY):
        flow = REGISTRY[key]
        forbidden = ",".join(sorted(flow.FORBIDDEN))
        parts.append(f"{key}:{type(flow).__name__}:{forbidden}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def table1_rows() -> List[Dict[str, str]]:
    """Table 1, regenerated from the implemented registry."""
    rows = []
    for cls in _FLOW_CLASSES:
        meta: FlowMetadata = cls.metadata
        rows.append(
            {
                "language": meta.title,
                "year": str(meta.year),
                "note": meta.note,
                "concurrency": meta.concurrency,
                "timing": meta.timing,
                "artifact": meta.artifact,
            }
        )
    return rows
