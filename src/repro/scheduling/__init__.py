"""Schedulers: the behavioral-synthesis substrate.

* :mod:`.list_scheduler` — chained, resource- and constraint-aware list
  scheduling (used by the scheduled flows);
* :mod:`.asap` — ASAP/ALAP bounds in the unit model;
* :mod:`.force_directed` — Paulin/Knight force-directed scheduling;
* :mod:`.modulo` — iterative modulo scheduling for loop pipelining;
* :mod:`.resources` — functional-unit classes and limits;
* :mod:`.base` — dependence graphs, schedule containers, validation.

Every name loads its submodule on first use (:mod:`repro._exports`): a
scheduled flow runs the list scheduler, never the modulo scheduler.
"""

from .._exports import lazy_exports

__all__ = [
    "ALU",
    "BlockSchedule",
    "ConstraintInfeasible",
    "DIVIDER",
    "DependenceGraph",
    "FunctionSchedule",
    "MULTIPLIER",
    "ModuloResult",
    "ResourceSet",
    "SHIFTER",
    "ScheduleError",
    "build_dependence_graph",
    "check_block_schedule",
    "classify",
    "find_pipelineable_loops",
    "force_directed_schedule",
    "is_chainable",
    "list_schedule_block",
    "list_schedule_function",
    "loop_carried_dependences",
    "mobility",
    "modulo_schedule",
    "op_area_ge",
    "op_delay_ns",
    "peak_usage",
    "recurrence_mii",
    "resource_mii",
    "unit_alap",
    "unit_asap",
    "unit_latency",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "mobility": ".asap",
    "unit_alap": ".asap",
    "unit_asap": ".asap",
    "BlockSchedule": ".base",
    "ConstraintInfeasible": ".base",
    "DependenceGraph": ".base",
    "FunctionSchedule": ".base",
    "ScheduleError": ".base",
    "build_dependence_graph": ".base",
    "check_block_schedule": ".base",
    "is_chainable": ".base",
    "unit_latency": ".base",
    "force_directed_schedule": ".force_directed",
    "peak_usage": ".force_directed",
    "list_schedule_block": ".list_scheduler",
    "list_schedule_function": ".list_scheduler",
    "ModuloResult": ".modulo",
    "find_pipelineable_loops": ".modulo",
    "loop_carried_dependences": ".modulo",
    "modulo_schedule": ".modulo",
    "recurrence_mii": ".modulo",
    "resource_mii": ".modulo",
    "ALU": ".resources",
    "DIVIDER": ".resources",
    "MULTIPLIER": ".resources",
    "ResourceSet": ".resources",
    "SHIFTER": ".resources",
    "classify": ".resources",
    "op_area_ge": ".resources",
    "op_delay_ns": ".resources",
})
