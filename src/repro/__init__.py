"""repro — a C-like hardware synthesis framework.

This package reproduces Stephen A. Edwards, *The Challenges of Hardware
Synthesis from C-like Languages* (DATE 2005), as an executable system: a
shared C-like frontend and IR, classic high-level-synthesis scheduling and
binding, RTL-level artifacts with cycle-accurate simulators, and one
synthesis *flow* per language the paper surveys (Cones, HardwareC,
Transmogrifier C, SystemC, Ocapi, C2Verilog, Cyber, Handel-C, SpecC,
Bach C, CASH).

Quickstart::

    from repro import SynthesisOptions, synthesize
    result = synthesize("int main() { return 2 + 3; }",
                        SynthesisOptions(flow="handelc"))
    run = result.run()
    print(run.value, run.cycles)

Pass ``SynthesisOptions(..., trace=True)`` to record a per-phase trace of
the whole pipeline (``result.trace.write_chrome("out.json")`` opens in
Perfetto); see :mod:`repro.trace`.
"""

from __future__ import annotations

__version__ = "1.0.0"

from ._exports import lazy_exports


def synthesize(source, options=None, trace=None, **overrides):
    """Parse, check, and compile ``source`` under one
    :class:`~repro.api.SynthesisOptions` set; returns a
    :class:`~repro.api.SynthesisResult`.  See :mod:`repro.api`."""
    from .api import synthesize as _synthesize

    return _synthesize(source, options, trace=trace, **overrides)


__all__ = [
    "SynthesisOptions",
    "SynthesisResult",
    "parse",
    "synthesize",
    "__version__",
]

# Lazy so `import repro` stays cheap.  ``synthesize`` above is a function
# that defers its import on each call; these are resolved once, on first
# use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "SynthesisOptions": ".api",
    "SynthesisResult": ".api",
    "parse": ".lang",
})
