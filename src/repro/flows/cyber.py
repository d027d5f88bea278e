"""Cyber (Wakabayashi, NEC, 1999).

Table 1: *"Restricted C with extensions (NEC)."*  Cyber accepts BDL, a C
variant with hardware extensions that *"prohibits recursive functions and
pointers.  Timing can be implicit or explicit."*  The flow enforces exactly
those restrictions: explicit timing through ``wait``/``delay`` is accepted
alongside compiler-scheduled implicit timing.
"""

from __future__ import annotations

from ..lang.semantic import FEATURE_POINTERS, FEATURE_RECURSION
from .base import FlowMetadata
from .scheduled import ScheduledFlow


class CyberFlow(ScheduledFlow):
    metadata = FlowMetadata(
        key="cyber",
        title="Cyber (BDL)",
        year=1999,
        note="Restricted C with extensions (NEC)",
        concurrency="explicit",
        concurrency_detail="BDL processes and hardware extensions",
        timing="mixed",
        timing_detail="implicit (scheduled) or explicit (wait/delay) timing",
        artifact="fsmd",
        reference="Wakabayashi, DATE 1999",
    )

    FORBIDDEN = {
        FEATURE_POINTERS: "BDL prohibits pointers",
        FEATURE_RECURSION: "BDL prohibits recursive functions",
    }
