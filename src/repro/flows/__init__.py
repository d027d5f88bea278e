"""Synthesis flows — one per language the paper surveys.

========  ====================================  =============  ==========
key       language                              concurrency    timing
========  ====================================  =============  ==========
cones     Cones (1988)                          compiler       none (combinational)
hardwarec HardwareC (1990)                      explicit       in-language constraints
transmogrifier Transmogrifier C (1995)          compiler       1 cycle/iteration+call
systemc   SystemC (2002)                        explicit       wait() boundaries
ocapi     Ocapi (1998)                          structural     designer-placed states
c2verilog C2Verilog (1998)                      compiler       compiler rules
cyber     Cyber/BDL (1999)                      explicit       implicit or explicit
handelc   Handel-C (2003)                       explicit       1 cycle/assignment
specc     SpecC (2000)                          explicit       refinement
bachc     Bach C (2001)                         explicit       untimed (scheduled)
cash      CASH (2002)                           compiler       asynchronous
========  ====================================  =============  ==========

Every name loads its submodule on first use (:mod:`repro._exports`), and
the registry loads a flow on its first :func:`get_flow`, so compiling
with one flow imports that flow alone.
"""

from .._exports import lazy_exports

# The stable public surface.  ``synthesize``/``SynthesisOptions``/
# ``SynthesisResult`` (from repro.api) are the entry points.
__all__ = [
    "COMPILABLE",
    "CompiledDesign",
    "DesignCost",
    "Flow",
    "FlowError",
    "FlowMetadata",
    "FlowResult",
    "OcapiModule",
    "OcapiState",
    "REGISTRY",
    "SynthesisOptions",
    "SynthesisResult",
    "UnsupportedFeature",
    "get_flow",
    "registry_fingerprint",
    "synthesize",
    "table1_rows",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "SynthesisOptions": "..api",
    "SynthesisResult": "..api",
    "synthesize": "..api",
    "CompiledDesign": ".base",
    "DesignCost": ".base",
    "Flow": ".base",
    "FlowError": ".base",
    "FlowMetadata": ".base",
    "FlowResult": ".base",
    "UnsupportedFeature": ".base",
    "OcapiModule": ".ocapi",
    "OcapiState": ".ocapi",
    "COMPILABLE": ".registry",
    "REGISTRY": ".registry",
    "get_flow": ".registry",
    "registry_fingerprint": ".registry",
    "table1_rows": ".registry",
})
