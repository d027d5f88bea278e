"""The optimizing mid-end: one fixpoint driver and the opt_level table.

``run_fixpoint`` applies a declared pass list round-robin until a full
sweep reports no changes, or until its sweep bound.  It is change-driven:
a pass re-runs only on what changed since it last ran, and since a
skipped pass would have returned 0, the sweeps, the report and the trace
are those of running every pass every sweep.  Passes declare whether
they consume liveness; the driver computes it lazily, caches it, and
recomputes only after a pass that changed the CDFG invalidated it — the
counter for how often that happens lands in the trace alongside
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
from typing import Callable, Dict, Optional, Set, Tuple

from ...trace import ensure_trace
from ..cdfg import BasicBlock, FunctionCDFG, validate
from ..liveness import LivenessInfo, compute_liveness
from .constfold import _fold_block, fold_constants
from .copyprop import propagate_copies
from .cse import _cse_block, eliminate_common_subexpressions
from .dce import eliminate_dead_code
from .deadvar import eliminate_dead_variables
from .memchain import eliminate_load_store_chains
from .simplify import simplify_cfg


@dataclass(frozen=True)
class PassSpec:
    """One mid-end pass: a name and a callable returning a change count.

    A pass that returns 0 and reports no touched block must leave
    unchanged everything a pass reads.  The optional fields tell the
    driver what it may skip (see ``run_fixpoint``):

    * ``block`` — a block-local pass's body for one block, returning its
      change count and whether it modified the block.  It must be
      deterministic and read only that block.
    * ``touching`` — ``run`` for a whole-function pass that also adds to
      a set the id of every block whose contents it changed or that it
      removed.  A pass without it is taken to have touched every block.
    * ``deletes_unread`` — the pass only deletes ops no one reads and
      latches of unread variables, which cannot enable a block pass, and
      a second call in a row returns 0.
    """

    name: str
    run: Callable[[FunctionCDFG, Optional[LivenessInfo]], int]
    needs_liveness: bool = False
    block: Optional[Callable[[BasicBlock], Tuple[int, bool]]] = None
    touching: Optional[Callable[[FunctionCDFG, Set[int]], int]] = None
    deletes_unread: bool = False


def _plain(fn: Callable[[FunctionCDFG], int]):
    return lambda cdfg, liveness: fn(cdfg)


_CONSTFOLD = PassSpec("constfold", _plain(fold_constants), block=_fold_block)
_SIMPLIFY = PassSpec("simplify_cfg", _plain(simplify_cfg), touching=simplify_cfg)
_CSE = PassSpec("cse", _plain(eliminate_common_subexpressions), block=_cse_block)
_DCE = PassSpec("dce", _plain(eliminate_dead_code), deletes_unread=True)

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
    """Apply ``passes`` until a full sweep changes nothing (bounded).

    A pass runs only on what changed since it last ran:

    * a ``block`` pass visits only the blocks not in its clean set: the
      blocks it last visited with no change that no pass has touched
      since;
    * any other pass is skipped while nothing has changed since it last
      returned 0, or, for a ``deletes_unread`` pass, since its own last
      change.

    A change is touched blocks plus a nonzero count.  Block passes and
    ``touching`` passes drop what they touched from every clean set; a
    ``deletes_unread`` pass leaves the sets alone; any other pass that
    changes something empties them.  A skipped pass still opens its
    ``pass.<name>`` span, with ``changed=0``.
    """
    t = ensure_trace(trace)
    report = FixpointReport(pass_counts={spec.name: 0 for spec in passes})
    report.ops_in = cdfg.op_count()
    liveness: Optional[LivenessInfo] = None
    clean: Dict[str, Set[int]] = {
        spec.name: set() for spec in passes if spec.block is not None}
    # Every change moves the epoch; quiet[name] is the epoch at which a
    # whole-function pass was last known to have nothing to do.
    epoch = 0
    quiet: Dict[str, int] = {}
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
            touched: Set[int] = set()
            with t.span(f"pass.{spec.name}", cat="pass"):
                if spec.block is not None:
                    count = _run_blocks(spec.block, cdfg,
                                        clean[spec.name], touched)
                elif quiet.get(spec.name) == epoch:
                    count = 0
                elif spec.touching is not None:
                    count = spec.touching(cdfg, touched)
                else:
                    count = spec.run(cdfg, liveness)
                t.count(changed=count)
            report.pass_counts[spec.name] += count
            changed += count
            if count:
                # Every structural change may shift block-level USE/DEF
                # sets; drop the cache and recompute on next demand.
                liveness = None
            if count or touched:
                epoch += 1
                if spec.block is not None or spec.touching is not None:
                    for ids in clean.values():
                        ids.difference_update(touched)
                elif not spec.deletes_unread:
                    for ids in clean.values():
                        ids.clear()
            if spec.block is None and (
                    spec.deletes_unread or not (count or touched)):
                quiet[spec.name] = epoch
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


def _run_blocks(body: Callable[[BasicBlock], Tuple[int, bool]],
                cdfg: FunctionCDFG, clean: Set[int],
                touched: Set[int]) -> int:
    """Run a block pass's ``body`` on every block outside ``clean``."""
    count = 0
    for block in cdfg.blocks:
        if block.id in clean:
            continue
        changes, modified = body(block)
        if modified:
            count += changes
            touched.add(block.id)
        else:
            clean.add(block.id)
    return count


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
