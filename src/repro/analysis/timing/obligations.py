"""Per-flow timing/resource obligations, derived from the registry.

A flow's *obligations* are the schedule-level contract its execution model
imposes: does it enforce ``within`` budgets, does it rendezvous over
channels, does it merge ``par`` branches in lockstep, does it pack cycles under
resource limits.  The feature-dependent bits are derived from each
flow's ``FORBIDDEN`` table (the same source the linter and the fuzzer
masks use), and the scheduler style from the ``SCHEDULER`` each
:class:`repro.flows.scheduled.ScheduledFlow` declares, so a changed flow
retargets the checker with no checker change.  What a schedule holds
(resources, clock, states) the rules read off the flow's own compile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ...lang.semantic import FEATURE_CHANNELS, FEATURE_WITHIN

#: Flows whose timing model charges exactly one cycle per statement, so a
#: fat expression silently stretches the clock (Handel-C's rule, and the
#: chain flows' per-block variant).
IMPLICIT_CYCLE_FLOWS: Tuple[str, ...] = ("handelc", "transmogrifier", "systemc")
#: The lockstep-par flow (branch k-th statements share one state/cycle).
LOCKSTEP_PAR_FLOWS: Tuple[str, ...] = ("handelc",)


def __getattr__(name: str) -> Tuple[str, ...]:
    """``LIST_FLOWS`` (list-scheduled under resource limits) and
    ``CHAIN_FLOWS`` (one chained state per block): the flows whose
    ``SCHEDULER`` says so, read off the flows when first asked for."""
    from ...flows.registry import COMPILABLE, get_flow

    style = {"LIST_FLOWS": "list", "CHAIN_FLOWS": "chain"}.get(name)
    if style is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return tuple(key for key in COMPILABLE
                 if getattr(get_flow(key), "SCHEDULER", None) == style)


@dataclass(frozen=True)
class CheckOptions:
    """Knobs for the time-sensitive checker.

    ``pipeline_ii`` — a requested loop initiation interval; when set, the
    TIM301 rule checks it against every pipelineable loop's MII floor.
    ``clock_budget_ns`` — the combinational budget a single implicit cycle
    may use before TIM103 warns (the recode-to-meet-timing threshold).
    ``memory_ports`` — ports per RAM the TIM302 occupancy check assumes.
    """

    pipeline_ii: Optional[int] = None
    clock_budget_ns: float = 25.0
    memory_ports: int = 1


@dataclass(frozen=True)
class TimingObligations:
    """What one flow's schedule must provide."""

    flow: str
    enforces_within: bool       # schedules under within constraint groups
    rendezvous: bool            # blocking CSP channels can deadlock
    lockstep_par: bool          # par branches merge cycle-by-cycle
    implicit_cycle: bool        # one statement/block = one cycle, any width
    list_scheduled: bool        # resource-limited cycle packing
    chain_scheduled: bool       # combinational chaining per block

    @property
    def pipelined(self) -> bool:
        """Whether loop pipelining (and so an II request) is meaningful."""
        return self.list_scheduled


def obligations_for(flow: str) -> TimingObligations:
    """The obligations ``flow``'s execution model imposes."""
    from ...flows.registry import get_flow

    spec = get_flow(flow)
    scheduler = getattr(spec, "SCHEDULER", None)
    list_scheduled = scheduler == "list"
    return TimingObligations(
        flow=flow,
        enforces_within=FEATURE_WITHIN not in spec.FORBIDDEN and list_scheduled,
        rendezvous=FEATURE_CHANNELS not in spec.FORBIDDEN,
        lockstep_par=flow in LOCKSTEP_PAR_FLOWS,
        implicit_cycle=flow in IMPLICIT_CYCLE_FLOWS,
        list_scheduled=list_scheduled,
        chain_scheduled=scheduler == "chain",
    )
