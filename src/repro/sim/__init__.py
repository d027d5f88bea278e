"""Hardware simulators: cycle-accurate FSMD systems, combinational
netlists, and asynchronous token dataflow.

FSMD systems have two interchangeable engines:

* ``interp`` — the reference interpreter (:mod:`fsmd_sim`): walks the op
  lists every cycle.
* ``compiled`` — exec-compiled (:mod:`compiled`): specialises the
  system once into one generated function that runs the whole cycle
  loop, with registers and wires as its locals.  The plan is cached on
  the system, so every later run of the design reuses it.

Both run only systems that pass :func:`fsmd_sim.check_system` (each wire
a state reads was produced since its block was entered; every flow in
the registry builds such machines), and both give bit-identical results
on them.  A malformed system raises ``SimulationError("<machine>: <wire>
read before being computed")`` before either engine starts.

Which engine runs is the simulator's choice (:func:`simulate`): the
reference engine is cheaper for a short run, specialising pays for a
long one.  Pass a :class:`SimProfile` to get cycles/sec, the engine that
ran and the per-state visit histogram.  Many runs of one design are the
matrix runner's business: it coalesces them into one payload
(``runner.execute_cell``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from .._exports import lazy_exports

if TYPE_CHECKING:
    from ..rtl.fsmd import FSMDSystem
    from .fsmd_sim import SimResult
    from .profile import SimProfile

#: Cycles a run spends on the reference engine before it starts again on
#: the compiled one.  Specialising costs 2–8 ms and pays for itself after
#: 80–1,300 cycles (median 420), but a run that switches has spent the
#: budget first, so on the suite's single runs (at most 1,927 cycles)
#: every smaller budget cost more than the reference engine alone
#: (EXPERIMENTS.md E15).
INTERP_CYCLES = 2_000


def simulate(
    system: FSMDSystem,
    args: Sequence[int] = (),
    max_cycles: int = 2_000_000,
    process_args: Optional[Dict[str, Sequence[int]]] = None,
    sim_backend: Optional[str] = None,
    profile: Optional[SimProfile] = None,
) -> SimResult:
    """Simulate ``system`` for at most ``max_cycles`` cycles.

    The simulator picks the engine: a system that already holds a
    compiled plan runs on it; any other runs on the reference engine,
    and a run still going after :data:`INTERP_CYCLES` cycles starts again
    from cycle 0 on the compiled engine.  Simulation is deterministic, so
    the outcome is the same either way; ``profile`` records the run that
    finished.  ``sim_backend`` ("interp" or "compiled") pins one engine,
    for tests and benchmarks."""
    if sim_backend is None:
        if getattr(system, "_compiled_plan", None) is None:
            from .fsmd_sim import FSMDSimulator, SimulationError

            budget = min(max_cycles, INTERP_CYCLES)
            sim = FSMDSimulator(system, args=args, process_args=process_args,
                                max_cycles=budget)
            try:
                return sim.run(profile)
            except SimulationError:
                if budget == max_cycles or sim.cycle < budget:
                    raise   # the caller's budget, or a fault
            if profile is not None:
                profile.state_visits.clear()
        sim_backend = "compiled"
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
    "INTERP_CYCLES",
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
