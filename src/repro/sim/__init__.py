"""Hardware simulators: cycle-accurate FSMD systems, combinational
netlists, and asynchronous token dataflow.

FSMD systems have three interchangeable backends:

* ``interp`` — the reference interpreter (:mod:`fsmd_sim`): walks the op
  lists every cycle.  Authoritative, and the only backend that reports
  "read before being computed" for malformed machines.
* ``compiled`` — exec-compiled (:mod:`compiled`): specialises the
  system once into one generated function that runs the whole cycle
  loop, with registers and wires as its locals.  Bit-identical results
  on every well-formed system, at a multiple of the interpreter's
  cycles/sec.
* ``batched`` — many argument sets, one specialisation (:mod:`batched`):
  compiles the system once and runs each lane in turn through that one
  plan, so a batch pays the per-design set-up once.  The matrix runner
  coalesces same-design ``batched`` cells into one batch.  Use
  :func:`simulate_batched` for many inputs at once; as a scalar backend
  it is a one-lane batch.

Select one with ``simulate(..., sim_backend="compiled")``; pass a
:class:`SimProfile` to any of them to get cycles/sec and the per-state
visit histogram (plus per-lane cycle counts for batches).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from .._exports import lazy_exports

if TYPE_CHECKING:
    from ..rtl.fsmd import FSMDSystem
    from .fsmd_sim import SimResult
    from .profile import SimProfile

BACKENDS = ("interp", "compiled", "batched")


def simulate(
    system: FSMDSystem,
    args: Sequence[int] = (),
    max_cycles: int = 2_000_000,
    process_args: Optional[Dict[str, Sequence[int]]] = None,
    sim_backend: str = "interp",
    profile: Optional[SimProfile] = None,
) -> SimResult:
    """Simulate ``system`` with the selected backend, importing it on
    first use."""
    if sim_backend == "interp":
        from .fsmd_sim import simulate as simulate_interp

        return simulate_interp(
            system, args=args, max_cycles=max_cycles,
            process_args=process_args, profile=profile,
        )
    if sim_backend == "compiled":
        from .compiled import simulate_compiled

        return simulate_compiled(
            system, args=args, max_cycles=max_cycles,
            process_args=process_args, profile=profile,
        )
    if sim_backend == "batched":
        from .batched import simulate_one_batched

        return simulate_one_batched(
            system, args=args, max_cycles=max_cycles,
            process_args=process_args, profile=profile,
        )
    raise ValueError(
        f"unknown sim backend {sim_backend!r} (expected one of {BACKENDS})"
    )


__all__ = [
    "BACKENDS",
    "BatchLane",
    "BatchResult",
    "FSMDSimulator",
    "SimProfile",
    "SimResult",
    "SimulationError",
    "SystemPlan",
    "compile_system",
    "simulate",
    "simulate_batched",
    "simulate_compiled",
    "simulate_interp",
    "simulate_one_batched",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "BatchLane": ".batched",
    "BatchResult": ".batched",
    "simulate_batched": ".batched",
    "simulate_one_batched": ".batched",
    "SystemPlan": ".compiled",
    "compile_system": ".compiled",
    "simulate_compiled": ".compiled",
    "FSMDSimulator": ".fsmd_sim",
    "SimResult": ".fsmd_sim",
    "SimulationError": ".fsmd_sim",
    "simulate_interp": ".fsmd_sim",
    "SimProfile": ".profile",
})
