"""The structured diagnostics model shared by the linter and the flows.

A :class:`Diagnostic` is one finding: a stable rule id (``SYN101-recursion``),
a severity, the flow it applies to, a source location, and a fix hint.  A
:class:`LintReport` aggregates findings across flows so callers can ask "is
this program clean for flow X?" without re-running anything.

Severity semantics are load-bearing:

* ``ERROR`` predicts a compile rejection — the flow's ``compile()`` would
  raise ``UnsupportedFeature``/``FlowError`` for the same construct, with the
  same rule id.  ``LintReport.is_clean(flow)`` means "no errors", and the
  property suite asserts clean programs compile.
* ``WARNING`` marks constructs that compile but carry a hazard the paper
  calls out: shared-variable races, unified-memory pointer fallback,
  statically unbounded latency.

Rule ids are grouped by layer: ``SYN1xx`` are AST/feature rules, ``SYN2xx``
are CDFG-level rules, ``SYN3xx`` are frontend failures.

The time-sensitive checking tier (:mod:`repro.analysis.timing`) adds the
``TIM`` families on top: ``TIM1xx`` timing obligations (fixed-latency
contexts), ``TIM2xx`` concurrency obligations (rendezvous legality,
same-cycle conflicts under ``par``), ``TIM3xx`` resource obligations
(memory ports, initiation intervals).  A ``TIM`` **ERROR** means the flow's
schedule cannot meet (or cannot even state) the obligation; unlike ``SYN``
errors it does not always predict a compile-time rejection — some violations
compile into hardware that is unrealizable or deadlocks, which is exactly
the paper's point.  Each TIM rule documents which observable outcome
validates it (see ``TIM_VALIDATES``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ...lang.errors import SourceLocation, UNKNOWN_LOCATION
from ...lang.semantic import (
    FEATURE_CHANNELS,
    FEATURE_DELAY,
    FEATURE_PAR,
    FEATURE_POINTERS,
    FEATURE_RECURSION,
    FEATURE_WAIT,
    FEATURE_WITHIN,
)

# ---------------------------------------------------------------------------
# Rule ids
# ---------------------------------------------------------------------------

RULE_RECURSION = "SYN101-recursion"
RULE_POINTER = "SYN102-pointer"
RULE_ALIAS = "SYN103-alias"
RULE_DYNAMIC_MEMORY = "SYN104-dynamic-memory"
RULE_UNBOUNDED_LOOP = "SYN105-unbounded-loop"
RULE_PROCESS = "SYN106-process"
RULE_CHANNEL = "SYN107-channel"
RULE_PAR = "SYN108-par"
RULE_WAIT = "SYN109-wait"
RULE_DELAY = "SYN110-delay"
RULE_WITHIN = "SYN111-within"
RULE_STRUCTURE = "SYN112-structure"
RULE_COMB_CYCLE = "SYN201-comb-cycle"
RULE_SHARED_RACE = "SYN202-shared-race"
RULE_PARSE = "SYN301-parse"
RULE_INTERNAL = "SYN999-internal"

# Time-sensitive checking tier (repro.analysis.timing).  Stable ids, same
# contract as SYN ids: tests, corpus entries, and CLI output all key on them.
RULE_TIM_UNBOUNDED_IN_WITHIN = "TIM101-unbounded-in-within"
RULE_TIM_WITHIN_INFEASIBLE = "TIM102-within-infeasible"
RULE_TIM_CYCLE_BUDGET = "TIM103-cycle-budget"
RULE_TIM_RENDEZVOUS = "TIM201-rendezvous"
RULE_TIM_PAR_SHARED_CYCLE = "TIM202-par-shared-cycle"
RULE_TIM_II_CONFLICT = "TIM301-ii-port-conflict"
RULE_TIM_PORT_OVERSUBSCRIBED = "TIM302-port-oversubscribed"

TIM_RULES = (
    RULE_TIM_UNBOUNDED_IN_WITHIN,
    RULE_TIM_WITHIN_INFEASIBLE,
    RULE_TIM_CYCLE_BUDGET,
    RULE_TIM_RENDEZVOUS,
    RULE_TIM_PAR_SHARED_CYCLE,
    RULE_TIM_II_CONFLICT,
    RULE_TIM_PORT_OVERSUBSCRIBED,
)

# Language features (as recorded by semantic analysis) that map one-to-one
# onto rejection rules.  ``Flow.check`` and the linter's FeatureRule
# both read this table, so the exception a flow raises and the diagnostic the
# linter predicts always carry the same id.
FEATURE_TO_RULE: Dict[str, str] = {
    FEATURE_RECURSION: RULE_RECURSION,
    FEATURE_POINTERS: RULE_POINTER,
    FEATURE_CHANNELS: RULE_CHANNEL,
    FEATURE_PAR: RULE_PAR,
    FEATURE_WAIT: RULE_WAIT,
    FEATURE_DELAY: RULE_DELAY,
    FEATURE_WITHIN: RULE_WITHIN,
}

# One-line documentation per rule (DESIGN.md maps these onto paper claims).
RULE_DOCS: Dict[str, str] = {
    RULE_RECURSION: "recursive call cycle; no stack in hardware",
    RULE_POINTER: "pointer construct outside this flow's subset",
    RULE_ALIAS: "pointer analysis fell back to the unified memory",
    RULE_DYNAMIC_MEMORY: "dynamic allocation has no hardware equivalent",
    RULE_UNBOUNDED_LOOP: "loop bound is not a compile-time constant",
    RULE_PROCESS: "concurrent processes unsupported by this flow",
    RULE_CHANNEL: "channel communication unsupported by this flow",
    RULE_PAR: "par construct unsupported by this flow",
    RULE_WAIT: "wait() unsupported by this flow",
    RULE_DELAY: "delay() unsupported by this flow",
    RULE_WITHIN: "within timing constraints unsupported by this flow",
    RULE_STRUCTURE: "construct shape this flow's translation cannot handle",
    RULE_COMB_CYCLE: "combinational cycle (zero-time loop)",
    RULE_SHARED_RACE: "processes share a variable without a channel",
    RULE_PARSE: "source does not parse or type-check",
    RULE_INTERNAL: "linter rule crashed; prediction incomplete",
    RULE_TIM_UNBOUNDED_IN_WITHIN:
        "rendezvous inside a within block: fixed-cycle budget over an"
        " unbounded-latency operation",
    RULE_TIM_WITHIN_INFEASIBLE:
        "within budget smaller than any feasible schedule of its body",
    RULE_TIM_CYCLE_BUDGET:
        "single-cycle statement implies a combinational path beyond the"
        " clock budget",
    RULE_TIM_RENDEZVOUS:
        "rendezvous channel with a missing or self-paired endpoint:"
        " guaranteed deadlock",
    RULE_TIM_PAR_SHARED_CYCLE:
        "par lockstep merge puts conflicting accesses to one memory in the"
        " same cycle",
    RULE_TIM_II_CONFLICT:
        "requested initiation interval below the loop's resource/recurrence"
        " minimum",
    RULE_TIM_PORT_OVERSUBSCRIBED:
        "one cycle needs more memory ports than the RAM has",
}

# What observable outcome validates each TIM error (the cross-validation
# harness asserts these; docs/timing.md documents them per flow).
TIM_VALIDATES: Dict[str, str] = {
    RULE_TIM_UNBOUNDED_IN_WITHIN:
        "the compiled schedule carries a SEND/RECV inside a constraint group",
    RULE_TIM_WITHIN_INFEASIBLE:
        "compile rejects with the same rule id (TimingInfeasible)",
    RULE_TIM_CYCLE_BUDGET:
        "estimated combinational delay of the statement exceeds the budget",
    RULE_TIM_RENDEZVOUS:
        "simulation raises a rendezvous-deadlock error",
    RULE_TIM_PAR_SHARED_CYCLE:
        "a compiled FSMD state holds >=2 accesses to one memory, one a write,"
        " from different par branches",
    RULE_TIM_II_CONFLICT:
        "modulo scheduling reports MII above the requested II",
    RULE_TIM_PORT_OVERSUBSCRIBED:
        "a compiled FSMD state's measured port occupancy exceeds the RAM's",
}

# Diagnostics with this flow key apply to every flow (frontend failures).
ALL_FLOWS = "*"


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"

    @property
    def rank(self) -> int:
        return 0 if self is Severity.ERROR else 1


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding, addressed to one flow (or ``ALL_FLOWS``)."""

    flow: str
    rule: str
    severity: Severity
    message: str
    location: SourceLocation = UNKNOWN_LOCATION
    hint: str = ""

    def applies_to(self, flow: str) -> bool:
        return self.flow == flow or self.flow == ALL_FLOWS

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form (``repro lint/check --format json``)."""
        return {
            "flow": self.flow,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.location.filename,
            "line": self.location.line,
            "column": self.location.column,
            "hint": self.hint,
        }

    def sort_key(self) -> tuple:
        """Deterministic (location, rule id) ordering: reports must be
        byte-stable across runs and hash-cacheable."""
        return (
            self.location.filename,
            self.location.line,
            self.location.column,
            self.rule,
            self.flow,
            self.severity.rank,
            self.message,
        )

    def __str__(self) -> str:
        text = (
            f"{self.location}: {self.severity.value}"
            f" {self.rule} [{self.flow}] {self.message}"
        )
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text


@dataclass
class LintReport:
    """All diagnostics the linter produced for one source buffer."""

    filename: str = "<input>"
    flows: List[str] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def for_flow(self, flow: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.applies_to(flow)]

    def errors(self, flow: Optional[str] = None) -> List[Diagnostic]:
        found = self.diagnostics if flow is None else self.for_flow(flow)
        return [d for d in found if d.severity is Severity.ERROR]

    def warnings(self, flow: Optional[str] = None) -> List[Diagnostic]:
        found = self.diagnostics if flow is None else self.for_flow(flow)
        return [d for d in found if d.severity is Severity.WARNING]

    def is_clean(self, flow: str) -> bool:
        """No errors for ``flow``: its compile() is predicted to succeed."""
        return not self.errors(flow)

    def rules(self, flow: str, severity: Optional[Severity] = None) -> Set[str]:
        return {
            d.rule
            for d in self.for_flow(flow)
            if severity is None or d.severity is severity
        }

    def sorted(self) -> List[Diagnostic]:
        return sorted(self.diagnostics, key=Diagnostic.sort_key)

    def to_dict(self) -> Dict[str, object]:
        """The whole report, JSON-ready and deterministically ordered."""
        return {
            "filename": self.filename,
            "flows": list(self.flows),
            "diagnostics": [d.to_dict() for d in self.sorted()],
            "verdicts": {
                flow: ("reject" if not self.is_clean(flow)
                       else "warn" if self.warnings(flow) else "clean")
                for flow in self.flows
            },
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Plain-text listing, grouped by flow, for terminals and tests."""
        lines: List[str] = []
        for diagnostic in self.sorted():
            lines.append(str(diagnostic))
        if not lines:
            lines.append(f"{self.filename}: clean for all linted flows")
        return "\n".join(lines)
