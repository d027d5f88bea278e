"""Time-sensitive checking tier: schedule-aware timing/resource obligations.

Where the ``SYN`` linter predicts *compile-time* rejections (Table 1's
feature restrictions), this tier checks the obligations a flow's *schedule*
must meet — the paper's deeper point that C-like source fixes far less of
the timing/concurrency contract than hardware needs:

* ``TIM1xx`` — timing obligations: ``within`` budgets vs. feasible
  schedules, unbounded-latency operations under fixed-cycle constraints,
  implicit one-cycle rules vs. the clock budget;
* ``TIM2xx`` — concurrency obligations: rendezvous endpoint legality,
  same-cycle memory conflicts under lockstep ``par``;
* ``TIM3xx`` — resource obligations: memory-port occupancy, pipeline
  initiation-interval floors.

Entry points:

* :func:`check` — lint + TIM rules in one :class:`LintReport`;
* :func:`repro.analysis.timing.harness.cross_validate_matrix` — checker
  verdicts vs. actual schedule/simulation outcomes over the matrix;
* ``repro check`` / ``repro matrix --check`` on the CLI.

The rules that speak about a schedule or a machine judge the flow's own
compile, made through :func:`repro.api.synthesize`; nothing rebuilds the
pipeline.  Every TIM **error** is validated against an observable
outcome (see ``TIM_VALIDATES`` in the diagnostics module and
``docs/timing.md``): a compile-time
:class:`~repro.flows.base.TimingInfeasible`, a simulated rendezvous
deadlock, or a measured property of the compiled artifact (constraint
groups spanning channel ops, per-state port occupancy, modulo MII).  The
cross-validation harness asserts those outcomes cell by cell.
"""

from ..lint.diagnostics import TIM_RULES, TIM_VALIDATES
from .checker import CheckRejected, check, check_file, enforce
from .obligations import (
    CheckOptions,
    IMPLICIT_CYCLE_FLOWS,
    TimingObligations,
    obligations_for,
)
from .occupancy import fsmd_port_violations, state_memory_occupancy
from .rules import FlowCompile, timing_rules_for

__all__ = [
    "CheckOptions",
    "CheckRejected",
    "FlowCompile",
    "IMPLICIT_CYCLE_FLOWS",
    "TIM_RULES",
    "TIM_VALIDATES",
    "TimingObligations",
    "check",
    "check_file",
    "enforce",
    "fsmd_port_violations",
    "obligations_for",
    "state_memory_occupancy",
    "timing_rules_for",
]
