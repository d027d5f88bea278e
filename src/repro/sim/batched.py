"""Batched FSMD simulation: many argument sets through one specialisation.

A fuzz campaign simulates the same FSMD on hundreds of inputs.  Run one
at a time through ``simulate``, each input pays the backend's per-run
set-up again.  A batch pays it once: :func:`simulate_batched` compiles
the system with :func:`compiled.compile_system` and runs every lane in
turn through that one :class:`compiled.SystemPlan`.

* Each lane is bit-identical to a scalar ``sim_backend="compiled"`` run
  of the same arguments: value, cycles, globals, channel log, and, for
  a failing lane, the error class and message.
* Lanes are isolated: a lane that divides by zero, deadlocks, exhausts
  its cycle budget or passes the wrong number of arguments records its
  error in its own :class:`BatchLane`; its neighbours run on.
* The matrix runner coalesces ``batched`` cells that share (source,
  flow, function, options) into one batch (``runner.execute_batch``),
  and ``repro fuzz --input-lanes K`` batches K argument perturbations
  of each generated program.

``simulate(..., sim_backend="batched")`` is the scalar view: a one-lane
batch whose errored lane re-raises the scalar backend's exact exception,
so "batched" is a drop-in third backend everywhere the other two go.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..lang.errors import InterpError
from ..rtl.fsmd import FSMDSystem
from .compiled import SystemPlan, compile_system
from .fsmd_sim import SimResult, SimulationError
from .profile import SimProfile

_ERROR_CLASSES = {
    "SimulationError": SimulationError,
    "InterpError": InterpError,
}


@dataclass
class BatchLane:
    """One lane's outcome: a :class:`SimResult` or a captured error."""

    args: Tuple[int, ...]
    result: Optional[SimResult] = None
    error: str = ""
    error_kind: str = ""        # exception class name ("SimulationError", ...)

    @property
    def ok(self) -> bool:
        return not self.error and self.result is not None

    def error_class(self):
        return _ERROR_CLASSES.get(self.error_kind, SimulationError)

    def raise_error(self) -> None:
        """Re-raise this lane's failure as the scalar backend would."""
        raise self.error_class()(self.error)


@dataclass
class BatchResult:
    """What one batched simulation produced, lane by lane."""

    lanes: List[BatchLane] = field(default_factory=list)
    compile_s: float = 0.0
    execute_s: float = 0.0

    @property
    def n_lanes(self) -> int:
        return len(self.lanes)

    @property
    def ok_lanes(self) -> List[BatchLane]:
        return [lane for lane in self.lanes if lane.ok]

    @property
    def error_lanes(self) -> List[BatchLane]:
        return [lane for lane in self.lanes if not lane.ok]


def _scalar_lane(
    plan: SystemPlan,
    args: Tuple[int, ...],
    process_args,
    max_cycles: int,
    profile: Optional[SimProfile] = None,
) -> BatchLane:
    """Run one lane through the scalar compiled plan, capturing errors."""
    try:
        result = plan.run(
            args=args, process_args=process_args,
            max_cycles=max_cycles, profile=profile,
        )
    except InterpError as failure:        # SimulationError subclasses it
        return BatchLane(
            args=args,
            error=str(failure),
            error_kind=type(failure).__name__,
        )
    return BatchLane(args=args, result=result)


def simulate_batched(
    system: FSMDSystem,
    arg_sets: Sequence[Sequence[int]],
    max_cycles: int = 2_000_000,
    process_args: Optional[Dict[str, Sequence[int]]] = None,
    profile: Optional[SimProfile] = None,
) -> BatchResult:
    """Simulate ``system`` on every argument set in ``arg_sets``.

    The system is specialised once; each lane then runs through the
    shared plan and is bit-identical — value, cycles, globals, channel
    log, error class and message — to a scalar ``simulate`` of the same
    arguments.  ``profile`` sums every lane's state visits and records
    each lane's cycle count (0 for a failed lane)."""
    plan = compile_system(system)
    started = perf_counter()
    # Each lane's run adds its state visits to ``profile``; the batch
    # totals below replace the per-run fields it also writes.
    lanes = [
        _scalar_lane(plan, tuple(args), process_args, max_cycles, profile)
        for args in arg_sets
    ]
    execute_s = perf_counter() - started
    if profile is not None:
        profile.backend = "batched"
        profile.compile_s = plan.compile_s
        profile.execute_s = execute_s
        profile.lanes = len(lanes)
        profile.lane_cycles = [
            lane.result.cycles if lane.ok else 0 for lane in lanes
        ]
        profile.cycles = sum(profile.lane_cycles)
    return BatchResult(
        lanes=lanes, compile_s=plan.compile_s, execute_s=execute_s,
    )


def simulate_one_batched(
    system: FSMDSystem,
    args: Sequence[int] = (),
    max_cycles: int = 2_000_000,
    process_args: Optional[Dict[str, Sequence[int]]] = None,
    profile: Optional[SimProfile] = None,
) -> SimResult:
    """The scalar view: a one-lane batch that re-raises lane errors, so
    ``sim_backend="batched"`` drops in wherever the other backends go."""
    batch = simulate_batched(
        system, [tuple(args)], max_cycles=max_cycles,
        process_args=process_args, profile=profile,
    )
    lane = batch.lanes[0]
    if not lane.ok:
        lane.raise_error()
    assert lane.result is not None
    return lane.result


__all__ = [
    "BatchLane",
    "BatchResult",
    "simulate_batched",
    "simulate_one_batched",
]
