"""The flow registry — the executable version of the paper's Table 1.

Every row of Table 1 ("C-like languages/compilers, chronological order")
maps to an implemented flow; :func:`table1_rows` regenerates the table from
the registry, which is what ``benchmarks/bench_table1.py`` prints.

The table itself is data, :data:`FLOW_TABLE`: one ``(key, module, class)``
row per language.  :func:`get_flow` imports a flow's module the first time
it is asked for, so a program compiled with one flow loads that flow
alone.  ``REGISTRY``, a dict of all eleven flows in Table 1 order, is
built the first time something reads it.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:
    from ..analysis.lint.rules import Rule
    from .base import Flow

# Chronological, exactly as in Table 1 of the paper.
FLOW_TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("cones", ".cones", "ConesFlow"),                               # 1988
    ("hardwarec", ".hardwarec", "HardwareCFlow"),                   # 1990
    ("transmogrifier", ".transmogrifier", "TransmogrifierFlow"),    # 1995
    # (1999 lib, 2002 book) — Table 1 position
    ("systemc", ".systemc", "SystemCFlow"),
    ("ocapi", ".ocapi", "OcapiFlow"),                               # 1998
    ("c2verilog", ".c2verilog", "C2VerilogFlow"),                   # 1998
    ("cyber", ".cyber", "CyberFlow"),                               # 1999
    ("handelc", ".handelc", "HandelCFlow"),                         # 1998/2003
    ("specc", ".specc", "SpecCFlow"),                               # 2000
    ("bachc", ".bachc", "BachCFlow"),                               # 2001
    ("cash", ".cash", "CashFlow"),                                  # 2002
)

_ROWS: Dict[str, Tuple[str, str]] = {
    key: (module, cls) for key, module, cls in FLOW_TABLE
}

# Flows that accept C-like source through compile() (Ocapi is structural).
COMPILABLE = [key for key, _, _ in FLOW_TABLE if key != "ocapi"]

# One instance per flow, made by its first get_flow().
_flows: Dict[str, Flow] = {}


def get_flow(key: str) -> Flow:
    flow = _flows.get(key)
    if flow is not None:
        return flow
    if key not in _ROWS:
        known = ", ".join(sorted(_ROWS))
        raise KeyError(f"unknown flow {key!r}; known flows: {known}")
    module, cls = _ROWS[key]
    made = getattr(importlib.import_module(module, __package__), cls)()
    return _flows.setdefault(key, made)


def __getattr__(name: str):
    if name == "REGISTRY":
        registry: Dict[str, Flow] = {
            key: get_flow(key) for key, _, _ in FLOW_TABLE
        }
        globals()["REGISTRY"] = registry
        return registry
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Flows whose pointer support goes through plan_pointers: warn when the
# analysis falls back to the unified memory.
_POINTER_FLOWS = ("c2verilog", "cash", "specc")

_lint_rule_cache: Dict[str, Tuple[Rule, ...]] = {}


def lint_rules(key: str) -> Tuple[Rule, ...]:
    """The lint rule set predicting what ``key``'s compile would reject,
    plus the hazard warnings that apply to its execution model."""
    if key in _lint_rule_cache:
        return _lint_rule_cache[key]
    from ..analysis.lint.rules import (
        AliasFallbackRule,
        FeatureRule,
        NoProcessRule,
        ParStructureRule,
        ReceivePositionRule,
        SharedRaceRule,
        StaticLoopBoundRule,
        UnboundedLatencyRule,
        ZeroTimeLoopRule,
    )

    flow = get_flow(key)
    rules: List[Rule] = [
        FeatureRule(feature, reason)
        for feature, reason in flow.FORBIDDEN.items()
    ]
    if flow.NO_PROCESSES:
        rules.append(NoProcessRule(flow.NO_PROCESSES))
    # Structural and CDFG-level rules, beyond what each flow declares in
    # its FORBIDDEN and NO_PROCESSES attributes: a flow's lint
    # configuration lives here, with its Table 1 row.
    if key == "cones":
        rules.append(StaticLoopBoundRule())
    elif key == "handelc":
        rules += [ZeroTimeLoopRule(), ParStructureRule(), ReceivePositionRule()]
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
    for key in sorted(_ROWS):
        flow = get_flow(key)
        forbidden = ",".join(sorted(flow.FORBIDDEN))
        parts.append(f"{key}:{type(flow).__name__}:{forbidden}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def table1_rows() -> List[Dict[str, str]]:
    """Table 1, regenerated from the implemented registry."""
    rows = []
    for key, _, _ in FLOW_TABLE:
        meta = get_flow(key).metadata
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
