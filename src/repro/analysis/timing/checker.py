"""The time-sensitive checker's entry points.

``check()`` is ``lint()`` plus the TIM tier: one parse, the registry's SYN
rules, then the flow's TIM rules layered through the engine's
``extra_rules`` hook — same context caches, same deterministic report.
Rules that judge a schedule or a machine read each flow's own compile
(:class:`~repro.analysis.timing.rules.FlowCompile`), at the flow's
defaults.  ``enforce()`` is the synthesize-facade gate: with
``SynthesisOptions(check=True)`` it compiles under those options, checks
that compile, and hands it back — or refuses the program with
:class:`CheckRejected` (a :class:`FlowError`, so the matrix engine
classifies it as a rejection with the rule id attached).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from ...api import SynthesisOptions, SynthesisResult
from ...flows.base import FlowError
from ...trace import ensure_trace
from ..lint.diagnostics import Diagnostic, LintReport
from ..lint.engine import lint
from .obligations import CheckOptions
from .rules import FlowCompile, timing_rules_for


class CheckRejected(FlowError):
    """The pre-compile check found obligations this flow cannot meet.

    Carries the triggering diagnostics (``diagnostics``) and the full
    report (``report``); ``rule``/``location`` come from the first error
    in deterministic report order, so the exception text matches what
    ``repro check`` prints first."""

    def __init__(self, flow: str, errors: List[Diagnostic], report: LintReport):
        first = errors[0]
        super().__init__(
            flow,
            f"check rejected: {first.message}"
            + (f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""),
            rule=first.rule,
            location=first.location,
        )
        self.diagnostics = list(errors)
        self.report = report

    def __reduce__(self):
        # FlowError's field-replay reduce does not fit this signature;
        # rebuild from the diagnostics (the report shrinks to just them).
        report = LintReport(
            filename=self.report.filename,
            flows=list(self.report.flows),
            diagnostics=list(self.diagnostics),
        )
        return (self.__class__, (self.flow, self.diagnostics, report))


def check(
    source: str,
    flow: Optional[str] = None,
    flows: Optional[Sequence[str]] = None,
    function: str = "main",
    filename: str = "<input>",
    options: Optional[CheckOptions] = None,
    **kwargs,
) -> LintReport:
    """Lint plus the TIM tier for one flow, a list, or every compilable
    flow.  ``options`` (or loose :class:`CheckOptions` keywords such as
    ``pipeline_ii=2``) parameterize the timing rules.  A flow is compiled,
    at its defaults, only when one of its rules reads the compile."""
    if options is None:
        options = CheckOptions(**kwargs)
    elif kwargs:
        raise TypeError("pass either options= or loose keywords, not both")
    return lint(
        source,
        flow=flow,
        flows=flows,
        function=function,
        filename=filename,
        extra_rules=lambda key: timing_rules_for(FlowCompile(
            source, SynthesisOptions(flow=key, function=function)
        ), options),
    )


def check_file(
    path: str,
    flow: Optional[str] = None,
    flows: Optional[Sequence[str]] = None,
    function: str = "main",
    options: Optional[CheckOptions] = None,
) -> LintReport:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return check(source, flow=flow, flows=flows, function=function,
                 filename=path, options=options)


def enforce(source: str, options: SynthesisOptions,
            trace=None) -> SynthesisResult:
    """The compile ``synthesize`` makes under ``options`` with
    ``check=True``: compile ``source`` once under ``options``, judge that
    compile with the checker, and return it as a
    :class:`~repro.api.SynthesisResult`.  Raises :class:`CheckRejected`
    when the check finds errors, and otherwise whatever the compile
    raised.  The compile runs before the ``check`` span opens, so its
    phase spans stay top-level in ``trace``."""
    compiled = FlowCompile(source, options.with_(check=False), trace)
    outcome = compiled.outcome()
    with ensure_trace(trace).span("check", cat="phase"):
        report = lint(source, flow=options.flow, function=options.function,
                      extra_rules=lambda key: timing_rules_for(compiled))
    flagged = set(report.errors(options.flow))
    errors = [d for d in report.sorted() if d in flagged]
    if errors:
        raise CheckRejected(options.flow, errors, report)
    if isinstance(outcome, Exception):
        raise outcome
    return replace(outcome, options=options)
