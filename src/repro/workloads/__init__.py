"""Workloads: the benchmark kernel suite, recoding variants, and the
synthetic program generator.

Every name loads its submodule on first use (:mod:`repro._exports`), so
reading the suite loads neither the generator nor the variants.
"""

from .._exports import lazy_exports

__all__ = [
    "BY_NAME",
    "CHANNEL",
    "CONTROL",
    "MEMORY",
    "POINTER",
    "REGULAR",
    "RECODING_PAIRS",
    "RecodingPair",
    "WORKLOADS",
    "Workload",
    "array_source",
    "by_category",
    "control_source",
    "dataflow_source",
    "get",
    "unrolled_program",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "array_source": ".generator",
    "control_source": ".generator",
    "dataflow_source": ".generator",
    "BY_NAME": ".suite",
    "CHANNEL": ".suite",
    "CONTROL": ".suite",
    "MEMORY": ".suite",
    "POINTER": ".suite",
    "REGULAR": ".suite",
    "WORKLOADS": ".suite",
    "Workload": ".suite",
    "by_category": ".suite",
    "get": ".suite",
    "RECODING_PAIRS": ".variants",
    "RecodingPair": ".variants",
    "unrolled_program": ".variants",
})
