"""The optimizing mid-end: one fixpoint driver and the opt_level table.

``run_fixpoint`` applies a declared pass list round-robin until a full
sweep reports no changes, or until its sweep bound.  Passes declare
whether they consume liveness; the driver computes it lazily, caches it,
and recomputes only after a pass that changed the CDFG invalidated it —
the counter for how often that happens lands in the trace alongside
per-pass and per-iteration spans.

``OPT_PIPELINES`` is the one definition of what each
:class:`repro.api.SynthesisOptions` ``opt_level`` means, and
``optimize_cdfg`` (the entry point flows call) looks the level up there:

* ``0`` — no optimization (structural validation only);
* ``1`` — the classic fold/simplify/CSE/DCE list, at most 8 sweeps;
* ``2`` and ``3`` — the classic list plus the liveness-consuming passes
  (copy propagation, chain load/store elimination, dead-variable
  elimination), at most 25 sweeps.

Level 3 differs from level 2 only outside this module: the scheduled
flows add width narrowing on top (cones and cash do not narrow).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ...trace import ensure_trace
from ..cdfg import FunctionCDFG, validate
from ..liveness import LivenessInfo, compute_liveness
from .constfold import fold_constants
from .copyprop import propagate_copies
from .cse import eliminate_common_subexpressions
from .dce import eliminate_dead_code
from .deadvar import eliminate_dead_variables
from .memchain import eliminate_load_store_chains
from .simplify import simplify_cfg


@dataclass(frozen=True)
class PassSpec:
    """One mid-end pass: a name and a callable returning a change count."""

    name: str
    run: Callable[[FunctionCDFG, Optional[LivenessInfo]], int]
    needs_liveness: bool = False


def _plain(fn: Callable[[FunctionCDFG], int]):
    return lambda cdfg, liveness: fn(cdfg)


_CONSTFOLD = PassSpec("constfold", _plain(fold_constants))
_SIMPLIFY = PassSpec("simplify_cfg", _plain(simplify_cfg))
_CSE = PassSpec("cse", _plain(eliminate_common_subexpressions))
_DCE = PassSpec("dce", _plain(eliminate_dead_code))

#: The level-1 list.  The passes enable each other — folding exposes
#: dead code, CFG merging exposes CSE — so they loop until quiescent.
CLASSIC_PASSES: Tuple[PassSpec, ...] = (_CONSTFOLD, _SIMPLIFY, _CSE, _DCE)

#: The level-2 list.  Ordering matters for convergence speed, not
#: correctness: folding exposes copies, simplify merges blocks so the
#: block-local passes see longer regions, copy/chain elimination feed
#: dead-variable and dead-code sweeps.
FIXPOINT_PASSES: Tuple[PassSpec, ...] = (
    _CONSTFOLD,
    _SIMPLIFY,
    _CSE,
    PassSpec("copyprop", _plain(propagate_copies)),
    PassSpec("memchain", _plain(eliminate_load_store_chains)),
    PassSpec("deadvar", eliminate_dead_variables, needs_liveness=True),
    _DCE,
)

#: Any fuzz-grammar program converges well under this; the convergence
#: property test pins it.
DEFAULT_MAX_ITERATIONS = 25

#: opt_level -> (pass list, sweep bound).  The only place a level is
#: defined; ``OPT_LEVELS`` and every validator derive from it.
OPT_PIPELINES: Dict[int, Tuple[Tuple[PassSpec, ...], int]] = {
    0: ((), 0),
    1: (CLASSIC_PASSES, 8),
    2: (FIXPOINT_PASSES, DEFAULT_MAX_ITERATIONS),
    3: (FIXPOINT_PASSES, DEFAULT_MAX_ITERATIONS),
}
OPT_LEVELS: Tuple[int, ...] = tuple(OPT_PIPELINES)

#: The level every entry point assumes when none is given.  Level 2 is
#: opt-in; see docs/optimizer.md.
DEFAULT_OPT_LEVEL = 1


@dataclass
class FixpointReport:
    """What the driver did: per-pass change counts plus convergence data."""

    iterations: int = 0
    converged: bool = False
    liveness_recomputes: int = 0
    ops_in: int = 0
    ops_out: int = 0
    pass_counts: Dict[str, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.pass_counts.values())


def run_fixpoint(
    cdfg: FunctionCDFG,
    passes: Tuple[PassSpec, ...] = FIXPOINT_PASSES,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    trace=None,
) -> FixpointReport:
    """Apply ``passes`` until a full sweep changes nothing (bounded)."""
    t = ensure_trace(trace)
    report = FixpointReport(pass_counts={spec.name: 0 for spec in passes})
    report.ops_in = cdfg.op_count()
    liveness: Optional[LivenessInfo] = None
    for iteration in range(1, max_iterations + 1):
        report.iterations = iteration
        changed = 0
        for spec in passes:
            if spec.needs_liveness and liveness is None:
                with t.span("pass.liveness", cat="pass"):
                    liveness = compute_liveness(cdfg)
                    t.count(blocks=len(liveness.live_in),
                            sweeps=liveness.iterations)
                report.liveness_recomputes += 1
            with t.span(f"pass.{spec.name}", cat="pass"):
                count = spec.run(cdfg, liveness)
                t.count(changed=count)
            report.pass_counts[spec.name] += count
            changed += count
            if count:
                # Every structural change may shift block-level USE/DEF
                # sets; drop the cache and recompute on next demand.
                liveness = None
        if t.enabled:
            t.leaf("fixpoint.iteration", 0.0, cat="pass",
                   iteration=iteration, changed=changed,
                   ops=cdfg.op_count())
        if not changed:
            report.converged = True
            break
    with t.span("pass.validate", cat="pass"):
        validate(cdfg)
    report.ops_out = cdfg.op_count()
    if t.enabled:
        t.count(
            iterations=report.iterations,
            ops_in=report.ops_in,
            ops_out=report.ops_out,
            removed=report.total(),
            liveness_recomputes=report.liveness_recomputes,
        )
    return report


def optimize_cdfg(cdfg: FunctionCDFG, opt_level: int = DEFAULT_OPT_LEVEL,
                  trace=None) -> FixpointReport:
    """Run the mid-end pipeline ``OPT_PIPELINES`` gives ``opt_level``."""
    passes, max_iterations = OPT_PIPELINES[opt_level]
    return run_fixpoint(cdfg, passes, max_iterations, trace=trace)


__all__ = [
    "CLASSIC_PASSES",
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_OPT_LEVEL",
    "FIXPOINT_PASSES",
    "FixpointReport",
    "OPT_LEVELS",
    "OPT_PIPELINES",
    "PassSpec",
    "optimize_cdfg",
    "run_fixpoint",
]
