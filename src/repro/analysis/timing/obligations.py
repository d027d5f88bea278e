"""Per-flow timing/resource obligations, derived from the registry.

A flow's *obligations* are the schedule-level contract its execution model
imposes: does it enforce ``within`` budgets, does it rendezvous over
channels, does it merge ``par`` branches in lockstep, which resource set
does its scheduler pack against.  The feature-dependent bits are derived
from each flow's ``FORBIDDEN`` table (the same source the linter and the
fuzzer masks use), so a changed restriction retargets the checker with no
checker change; only the scheduler *style* is declared here, mirroring the
``SCHEDULER`` and ``RESOURCES`` each
:class:`repro.flows.scheduled.ScheduledFlow` declares (a test holds the
two equal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ...lang.semantic import FEATURE_CHANNELS, FEATURE_WITHIN
from ...scheduling.resources import ResourceSet

# Scheduler style per flow (mirrors each flow's declarations).
#: Flows that list-schedule a CDFG under resource limits and honour
#: ``within`` constraint groups (5 ns clock).
LIST_FLOWS: Tuple[str, ...] = (
    "hardwarec", "c2verilog", "cyber", "specc", "bachc",
)
#: Syntax-directed flows: one state per block (or per assignment), with
#: combinational chaining — the clock period *is* the worst chained path.
CHAIN_FLOWS: Tuple[str, ...] = ("transmogrifier", "systemc")
#: Flows whose timing model charges exactly one cycle per statement, so a
#: fat expression silently stretches the clock (Handel-C's rule, and the
#: chain flows' per-block variant).
IMPLICIT_CYCLE_FLOWS: Tuple[str, ...] = ("handelc", "transmogrifier", "systemc")
#: The lockstep-par flow (branch k-th statements share one state/cycle).
LOCKSTEP_PAR_FLOWS: Tuple[str, ...] = ("handelc",)
#: Flows whose list scheduler packs against an unlimited functional-unit
#: set (Bach C models a freely-sized datapath); everyone else uses the
#: typical mid-sized datapath.
UNLIMITED_RESOURCE_FLOWS: Tuple[str, ...] = ("bachc",)


@dataclass(frozen=True)
class CheckOptions:
    """Knobs for the time-sensitive checker.

    ``pipeline_ii`` — a requested loop initiation interval; when set, the
    TIM301 rule checks it against every pipelineable loop's MII floor.
    ``clock_ns`` — the clock the list-scheduled flows pack cycles at.
    ``clock_budget_ns`` — the combinational budget a single implicit cycle
    may use before TIM103 warns (the recode-to-meet-timing threshold).
    ``memory_ports`` — ports per RAM the TIM302 occupancy check assumes.
    """

    pipeline_ii: Optional[int] = None
    clock_ns: float = 5.0
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
    resources: ResourceSet = field(compare=False, default_factory=ResourceSet)
    clock_ns: float = 5.0

    @property
    def pipelined(self) -> bool:
        """Whether loop pipelining (and so an II request) is meaningful."""
        return self.list_scheduled


def obligations_for(flow: str, options: Optional[CheckOptions] = None) -> TimingObligations:
    """The obligations ``flow``'s execution model imposes."""
    from ...flows.registry import get_flow

    options = options or CheckOptions()
    forbidden = get_flow(flow).FORBIDDEN
    list_scheduled = flow in LIST_FLOWS
    return TimingObligations(
        flow=flow,
        enforces_within=FEATURE_WITHIN not in forbidden and list_scheduled,
        rendezvous=FEATURE_CHANNELS not in forbidden,
        lockstep_par=flow in LOCKSTEP_PAR_FLOWS,
        implicit_cycle=flow in IMPLICIT_CYCLE_FLOWS,
        list_scheduled=list_scheduled,
        chain_scheduled=flow in CHAIN_FLOWS,
        resources=(
            ResourceSet.unlimited()
            if flow in UNLIMITED_RESOURCE_FLOWS
            else ResourceSet.typical()
        ),
        clock_ns=options.clock_ns,
    )
