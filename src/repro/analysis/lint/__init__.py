"""Flow-aware synthesizability linter.

``lint(source, flow=...)`` predicts, per flow, which constructs that
flow's ``compile()`` would reject — with stable rule ids, source
locations, and fix hints — plus warnings for hazards the paper calls out
(shared-variable races, unified-memory fallback, unbounded latency).

The rule ids and report types load with the package (every flow cites
them in its rejections); the engine and the rules, which build CDFGs,
load on first use (:mod:`repro._exports`).
"""

from ..._exports import lazy_exports
from .diagnostics import (
    ALL_FLOWS,
    Diagnostic,
    FEATURE_TO_RULE,
    LintReport,
    RULE_ALIAS,
    RULE_CHANNEL,
    RULE_COMB_CYCLE,
    RULE_DELAY,
    RULE_DOCS,
    RULE_DYNAMIC_MEMORY,
    RULE_INTERNAL,
    RULE_PAR,
    RULE_PARSE,
    RULE_POINTER,
    RULE_PROCESS,
    RULE_RECURSION,
    RULE_SHARED_RACE,
    RULE_STRUCTURE,
    RULE_TIM_CYCLE_BUDGET,
    RULE_TIM_II_CONFLICT,
    RULE_TIM_PAR_SHARED_CYCLE,
    RULE_TIM_PORT_OVERSUBSCRIBED,
    RULE_TIM_RENDEZVOUS,
    RULE_TIM_UNBOUNDED_IN_WITHIN,
    RULE_TIM_WITHIN_INFEASIBLE,
    RULE_UNBOUNDED_LOOP,
    RULE_WAIT,
    RULE_WITHIN,
    Severity,
    TIM_RULES,
    TIM_VALIDATES,
)

__all__ = [
    "ALL_FLOWS",
    "Diagnostic",
    "FEATURE_TO_RULE",
    "LintContext",
    "LintReport",
    "RULE_ALIAS",
    "RULE_CHANNEL",
    "RULE_COMB_CYCLE",
    "RULE_DELAY",
    "RULE_DOCS",
    "RULE_DYNAMIC_MEMORY",
    "RULE_INTERNAL",
    "RULE_PAR",
    "RULE_PARSE",
    "RULE_POINTER",
    "RULE_PROCESS",
    "RULE_RECURSION",
    "RULE_SHARED_RACE",
    "RULE_STRUCTURE",
    "RULE_TIM_CYCLE_BUDGET",
    "RULE_TIM_II_CONFLICT",
    "RULE_TIM_PAR_SHARED_CYCLE",
    "RULE_TIM_PORT_OVERSUBSCRIBED",
    "RULE_TIM_RENDEZVOUS",
    "RULE_TIM_UNBOUNDED_IN_WITHIN",
    "RULE_TIM_WITHIN_INFEASIBLE",
    "RULE_UNBOUNDED_LOOP",
    "RULE_WAIT",
    "RULE_WITHIN",
    "Rule",
    "Severity",
    "TIM_RULES",
    "TIM_VALIDATES",
    "lint",
    "lint_file",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "lint": ".engine",
    "lint_file": ".engine",
    "LintContext": ".rules",
    "Rule": ".rules",
})
