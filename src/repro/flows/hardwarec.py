"""HardwareC (Ku & De Micheli, Stanford Olympus, 1990).

Table 1: *"Behavioral synthesis-centric."*  The flow models HardwareC's two
signatures: explicit process-level concurrency, and in-language timing
constraints — *"these three statements must execute in two cycles"* — which
our ``within (n) { ... }`` blocks express and the constraint-driven list
scheduler enforces (raising
:class:`~repro.scheduling.base.ConstraintInfeasible` when the designer asks
the impossible, the "challenging for the compiler" half of the paper's
sentence).
"""

from __future__ import annotations

from ..lang.semantic import FEATURE_POINTERS, FEATURE_RECURSION
from .base import FlowMetadata
from .scheduled import ScheduledFlow


class HardwareCFlow(ScheduledFlow):
    metadata = FlowMetadata(
        key="hardwarec",
        title="HardwareC",
        year=1990,
        note="Behavioral synthesis-centric",
        concurrency="explicit",
        concurrency_detail="process-level constructs; compiler ILP inside blocks",
        timing="constraints",
        timing_detail="in-language timing constraints solved by the scheduler",
        artifact="fsmd",
        reference="Ku & De Micheli, CSTL-TR-90-419",
    )

    FORBIDDEN = {
        FEATURE_POINTERS: "HardwareC has no pointers",
        FEATURE_RECURSION: "HardwareC forbids recursion",
    }
