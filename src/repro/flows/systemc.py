"""SystemC (OSCI / Grötker et al., 2002) — the synthesizable subset.

Table 1: *"Verilog in C++."*  A system is a collection of clock-edge-
triggered processes; *"sequential processes denote cycle boundaries with
wait calls."*  The flow models exactly that:

* concurrency is explicit: ``process`` functions run as parallel machines;
* ``wait()`` is the only cycle boundary the designer writes — everything
  between waits chains combinationally (the chain scheduler), like the
  body of a Verilog always-block;
* a loop whose body can iterate without reaching a ``wait()`` (or a
  channel synchronization) would be a combinational cycle, the error a
  SystemC synthesis tool reports.

Deviations noted for honesty: control-flow joins still cost a state in our
FSMD encoding, so programs see block-boundary cycles a production SystemC
synthesizer would fold into the same clock tick; the wait-placed boundaries
dominate in practice.  The same encoding gives every loop back-edge a
state, so the flow accepts a loop without a ``wait()`` rather than
rejecting it.
"""

from __future__ import annotations

from ..lang.semantic import FEATURE_POINTERS, FEATURE_RECURSION, FEATURE_WITHIN
from .base import FlowMetadata
from .scheduled import ScheduledFlow


class SystemCFlow(ScheduledFlow):
    metadata = FlowMetadata(
        key="systemc",
        title="SystemC",
        year=2002,
        note="Verilog in C++",
        concurrency="explicit",
        concurrency_detail="clock-edge-triggered processes, like Verilog/VHDL",
        timing="explicit-wait",
        timing_detail="sequential processes mark cycle boundaries with wait()",
        artifact="fsmd",
        reference="Grötker, Liao, Martin & Swan, Kluwer 2002",
    )

    FORBIDDEN = {
        FEATURE_POINTERS: "the SystemC synthesizable subset"
                          " excludes pointers",
        FEATURE_WITHIN: "SystemC has no statement-level timing"
                        " constraints",
        FEATURE_RECURSION: "the SystemC synthesizable subset"
                           " forbids recursion",
    }

    SCHEDULER = "chain"
