"""Bach C (Sharp, 2001).

Table 1: *"Untimed semantics (Sharp)."*  Explicit concurrency (``par``) and
rendezvous communication, arrays but **no pointers**, and — the defining
trait — untimed semantics: *"The compiler does the scheduling; the number
of cycles taken by each construct is not set by a rule."*  The flow
therefore hands the whole program to the list scheduler with generous
resources and lets it pick the cycles.
"""

from __future__ import annotations

from ..lang.semantic import FEATURE_POINTERS, FEATURE_RECURSION
from ..scheduling.resources import ResourceSet
from .base import FlowMetadata
from .scheduled import ScheduledFlow


class BachCFlow(ScheduledFlow):
    metadata = FlowMetadata(
        key="bachc",
        title="Bach C",
        year=2001,
        note="Untimed semantics (Sharp)",
        concurrency="explicit",
        concurrency_detail="explicit par statements and rendezvous channels",
        timing="untimed",
        timing_detail="compiler schedules freely; no per-construct cycle rule",
        artifact="fsmd",
        reference="Kambe et al., ASP-DAC 2001",
    )

    FORBIDDEN = {
        FEATURE_POINTERS: "Bach C supports arrays but not pointers",
        FEATURE_RECURSION: "Bach C forbids recursion",
    }

    RESOURCES = staticmethod(ResourceSet.unlimited)
