"""Hardware simulators: cycle-accurate FSMD systems, combinational
netlists, and asynchronous token dataflow.

FSMD systems have two interchangeable engines:

* ``interp`` — the reference interpreter (:mod:`fsmd_sim`): walks the op
  lists every cycle.
* ``compiled`` — exec-compiled (:mod:`compiled`): specialises the
  system once into one generated function that runs the whole cycle
  loop, with registers and wires as its locals.  The plan is cached on
  the system, so every later run of the design reuses it.

Both give bit-identical results on every well-formed machine (each
wire a state reads was produced since its block was entered; every flow
in the registry builds such machines).  On a malformed one they agree
on one case only: a read of a wire that no state of the machine defines
raises ``SimulationError("<machine>: <wire> read before being
computed")`` in both (``compiled`` emits that raise in place of the read
when it generates the code).  A read of a wire that some state defines,
but that was not produced since the block was entered, raises only in
``interp``; ``compiled`` reads the value the wire last held (0 before
its first write).

Select one with ``simulate(..., sim_backend="compiled")``; pass a
:class:`SimProfile` to either to get cycles/sec and the per-state visit
histogram.  Many runs of one design are the matrix runner's business:
it coalesces them into one payload (``runner.execute_cell``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from .._exports import lazy_exports

if TYPE_CHECKING:
    from ..rtl.fsmd import FSMDSystem
    from .fsmd_sim import SimResult
    from .profile import SimProfile

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
    from ..api import SIM_BACKENDS

    raise ValueError(
        f"unknown sim backend {sim_backend!r}"
        f" (expected one of {SIM_BACKENDS})"
    )


__all__ = [
    "FSMDSimulator",
    "SimProfile",
    "SimResult",
    "SimulationError",
    "SystemPlan",
    "compile_system",
    "simulate",
    "simulate_compiled",
    "simulate_interp",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "SystemPlan": ".compiled",
    "compile_system": ".compiled",
    "simulate_compiled": ".compiled",
    "FSMDSimulator": ".fsmd_sim",
    "SimResult": ".fsmd_sim",
    "SimulationError": ".fsmd_sim",
    "simulate_interp": ".fsmd_sim",
    "SimProfile": ".profile",
})
