"""Cross-validation: checker verdicts vs. actual flow outcomes.

The headline deliverable of the timing tier.  For every (workload, flow)
cell the harness compares what the checker *predicted* with what the flow
*did*, rule family by rule family, because TIM rules validate differently
on purpose (``TIM_VALIDATES``):

* SYN errors and **TIM102** predict a compile rejection — validated against
  the runner verdict (``rejected``);
* **TIM201** predicts a rendezvous deadlock — validated by the simulation
  failing (the runner classifies the deadlock as an error/timeout, never
  ``ok``);
* **TIM101/TIM202/TIM302** predict *measurable artifact properties* of
  designs that still compile (constraint groups spanning channel ops, par
  merge conflicts, per-state port occupancy) — validated by compiling and
  measuring;
* **TIM103** is a hazard warning and never affects verdicts;
* **TIM301** only exists under an explicit II request and is validated by
  the modulo scheduler's MII on the compiled loops (see
  :func:`validate_probe`).

A clean checker report must mean a clean run: checker-clean cells whose
runner verdict is not ``ok`` are *false accepts* and fail the matrix test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...lang.errors import UNKNOWN_LOCATION
from ...scheduling.modulo import find_pipelineable_loops, modulo_schedule
from ..lint.diagnostics import (
    LintReport,
    RULE_TIM_II_CONFLICT,
    RULE_TIM_PAR_SHARED_CYCLE,
    RULE_TIM_PORT_OVERSUBSCRIBED,
    RULE_TIM_RENDEZVOUS,
    RULE_TIM_UNBOUNDED_IN_WITHIN,
    RULE_TIM_WITHIN_INFEASIBLE,
)
from .checker import check
from .obligations import CheckOptions
from .occupancy import constrained_channel_ops, system_port_violations

#: Rules validated by compiling the design and measuring the artifact.
MEASURED_RULES = (
    RULE_TIM_UNBOUNDED_IN_WITHIN,
    RULE_TIM_PAR_SHARED_CYCLE,
    RULE_TIM_PORT_OVERSUBSCRIBED,
)
#: Rules validated by the runner verdict being ``rejected``.
REJECTING_RULES = (RULE_TIM_WITHIN_INFEASIBLE,)
#: Rules validated by the simulation failing (deadlock).
DEADLOCK_RULES = (RULE_TIM_RENDEZVOUS,)


@dataclass
class RuleValidation:
    """One predicted obligation violation and whether reality agreed."""

    rule: str
    validated: bool
    detail: str = ""


@dataclass
class CellCheck:
    """One (workload, flow) cell's cross-validation outcome."""

    workload: str
    flow: str
    checker_verdict: str        # "reject" | "warn" | "clean"
    runner_verdict: str         # the matrix engine's verdict string
    validations: List[RuleValidation] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        return all(v.validated for v in self.validations)


@dataclass
class MatrixValidation:
    """The whole sweep's cross-validation result."""

    checks: List[CellCheck] = field(default_factory=list)

    @property
    def cells(self) -> int:
        return len(self.checks)

    @property
    def agreements(self) -> int:
        return sum(1 for c in self.checks if c.agreed)

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.cells if self.checks else 1.0

    def disagreements(self) -> List[CellCheck]:
        return [c for c in self.checks if not c.agreed]

    def false_accepts(self) -> List[CellCheck]:
        """Checker said clean/warn but the flow did not run OK — the one
        outcome the tier must never produce."""
        return [
            c for c in self.checks
            if c.checker_verdict != "reject" and c.runner_verdict != "ok"
        ]


def _compile_quietly(source: str, flow: str, function: str):
    """Compile for measurement; (design, error) — never raises."""
    from ...api import SynthesisOptions, synthesize

    try:
        result = synthesize(
            source, SynthesisOptions(flow=flow, function=function)
        )
        return result.design, None
    except Exception as error:  # noqa: BLE001 - measurement probe only
        return None, error


def _measure(rule: str, design, options: CheckOptions) -> Tuple[bool, str]:
    """Measure the artifact property one TIM rule predicts."""
    if rule == RULE_TIM_UNBOUNDED_IN_WITHIN:
        spans = constrained_channel_ops(design)
        return bool(spans), f"{len(spans)} channel op(s) in constraint groups"
    if rule == RULE_TIM_PAR_SHARED_CYCLE:
        conflicts = int(design.stats.get("par_memory_conflicts", 0))
        return conflicts > 0, f"builder counted {conflicts} merge conflict(s)"
    if rule == RULE_TIM_PORT_OVERSUBSCRIBED:
        found = system_port_violations(design.system, options.memory_ports)
        return bool(found), f"{len(found)} oversubscribed state(s)"
    if rule == RULE_TIM_II_CONFLICT:
        requested = options.pipeline_ii
        for artifact in design.artifacts:
            for loop in find_pipelineable_loops(artifact.cdfg):
                result = modulo_schedule(loop, artifact.schedule.resources)
                if result.mii > requested:
                    return True, (
                        f"modulo MII={result.mii} > requested {requested}"
                        f" (achieved II={result.achieved_ii})"
                    )
        return False, "no loop's MII exceeds the requested II"
    return False, f"no measurement defined for {rule}"


def cross_validate_cell(
    workload: str,
    source: str,
    flow: str,
    runner_verdict: str,
    report: Optional[LintReport] = None,
    options: Optional[CheckOptions] = None,
    function: str = "main",
) -> CellCheck:
    """Validate one cell's checker output against its runner verdict and,
    for measured rules, against the compiled artifact itself."""
    options = options or CheckOptions()
    if report is None:
        report = check(source, flow=flow, function=function, options=options)
    errors = report.errors(flow)
    error_rules = {d.rule for d in errors}
    syn_errors = sorted(r for r in error_rules if r.startswith("SYN"))
    verdict = (
        "reject" if errors else "warn" if report.warnings(flow) else "clean"
    )
    cell = CellCheck(
        workload=workload, flow=flow,
        checker_verdict=verdict, runner_verdict=runner_verdict,
    )

    rejecting = bool(syn_errors) or any(
        r in error_rules for r in REJECTING_RULES
    )
    deadlocking = any(r in error_rules for r in DEADLOCK_RULES)

    if syn_errors:
        cell.validations.append(RuleValidation(
            rule=syn_errors[0],
            validated=runner_verdict == "rejected",
            detail=f"SYN errors {syn_errors} predict a compile rejection",
        ))
    for rule in REJECTING_RULES:
        if rule in error_rules:
            cell.validations.append(RuleValidation(
                rule=rule,
                validated=runner_verdict == "rejected",
                detail="predicts TimingInfeasible at compile",
            ))
    for rule in DEADLOCK_RULES:
        if rule in error_rules:
            cell.validations.append(RuleValidation(
                rule=rule,
                validated=runner_verdict != "ok",
                detail="predicts a rendezvous deadlock in simulation",
            ))

    measured = [r for r in MEASURED_RULES if r in error_rules]
    if measured:
        if rejecting:
            for rule in measured:
                cell.validations.append(RuleValidation(
                    rule=rule, validated=True,
                    detail="not measurable: compile rejected first",
                ))
        else:
            design, error = _compile_quietly(source, flow, function)
            for rule in measured:
                if design is None:
                    cell.validations.append(RuleValidation(
                        rule=rule, validated=False,
                        detail=f"measurement compile failed: {error}",
                    ))
                else:
                    ok, detail = _measure(rule, design, options)
                    cell.validations.append(
                        RuleValidation(rule=rule, validated=ok, detail=detail)
                    )

    if not rejecting and not deadlocking:
        # No verdict-affecting prediction: the flow must have run clean.
        # (Measured-rule errors intentionally coexist with an OK verdict —
        # that asymmetry is the tier's whole point.)
        cell.validations.append(RuleValidation(
            rule="(clean)" if not measured else "(measured-only)",
            validated=runner_verdict == "ok",
            detail="no rejection predicted, so the cell must run OK",
        ))
    return cell


def cross_validate_matrix(
    cells: Dict[Tuple[str, str], str],
    workloads=None,
    flows: Optional[Sequence[str]] = None,
    options: Optional[CheckOptions] = None,
) -> MatrixValidation:
    """Cross-validate the full workload × flow matrix.

    ``cells`` maps ``(workload name, flow key)`` to the runner's verdict
    string (a :class:`repro.runner.CellResult` ``verdict``).  One
    ``check()`` runs per workload (all flows share the parse),
    then each cell is validated per the rule-family semantics above."""
    from ...flows import COMPILABLE
    from ...workloads import WORKLOADS

    options = options or CheckOptions()
    selected = list(workloads) if workloads is not None else list(WORKLOADS)
    flow_keys = list(flows) if flows is not None else list(COMPILABLE)
    result = MatrixValidation()
    for w in selected:
        report = check(w.source, flows=flow_keys, options=options)
        for key in flow_keys:
            verdict = cells.get((w.name, key))
            if verdict is None:
                continue
            result.checks.append(cross_validate_cell(
                w.name, w.source, key, verdict,
                report=report, options=options,
            ))
    return result


# ---------------------------------------------------------------------------
# Probe validation (the fuzzer's timing-boundary cross-check)
# ---------------------------------------------------------------------------


@dataclass
class ProbeOutcome:
    """What happened when one timing-boundary probe met the checker and
    the real flow."""

    kind: str
    flow: str
    seed: int
    rule: str
    rejected: bool = False        # checker emitted the predicted rule id
    located: bool = False         # ... with a real source location
    outcome_validated: bool = False  # the real flow/simulator agreed
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.rejected and self.located and self.outcome_validated


def validate_probe(probe, options: Optional[CheckOptions] = None) -> ProbeOutcome:
    """Run one :class:`repro.fuzz.timing.TimingProbe` through the checker
    and cross-check the predicted outcome against the real flow."""
    options = options or CheckOptions(pipeline_ii=probe.pipeline_ii)
    report = check(probe.source, flow=probe.flow, options=options)
    hits = [d for d in report.errors(probe.flow) if d.rule == probe.rule]
    outcome = ProbeOutcome(
        kind=probe.kind, flow=probe.flow, seed=probe.seed, rule=probe.rule,
        rejected=bool(hits),
        located=any(h.location != UNKNOWN_LOCATION for h in hits),
    )
    if not hits:
        others = sorted({d.rule for d in report.for_flow(probe.flow)})
        outcome.detail = f"predicted rule missing; got {others}"
        return outcome
    outcome.outcome_validated, outcome.detail = _validate_probe_outcome(
        probe, options
    )
    return outcome


def _validate_probe_outcome(probe, options: CheckOptions) -> Tuple[bool, str]:
    from ...flows.base import TimingInfeasible

    if probe.rule == RULE_TIM_WITHIN_INFEASIBLE:
        design, error = _compile_quietly(probe.source, probe.flow, "main")
        if isinstance(error, TimingInfeasible):
            return True, f"compile raised TimingInfeasible: {error.reason}"
        return False, f"expected TimingInfeasible, got {error or 'a design'}"

    if probe.rule == RULE_TIM_RENDEZVOUS:
        design, error = _compile_quietly(probe.source, probe.flow, "main")
        if design is None:
            return False, f"compile failed before simulation: {error}"
        try:
            design.run(args=tuple(probe.args), max_cycles=10_000)
        except Exception as sim_error:  # noqa: BLE001 - deadlock expected
            text = str(sim_error)
            if "deadlock" in text:
                return True, f"simulation deadlocked: {text}"
            return False, f"simulation failed differently: {text}"
        return False, "simulation completed; no deadlock"

    # Measured rules and TIM301: compile and measure the artifact.
    design, error = _compile_quietly(probe.source, probe.flow, "main")
    if design is None:
        return False, f"measurement compile failed: {error}"
    return _measure(probe.rule, design, options)
