"""Transformation passes.

AST-level passes (run before CDFG construction):

* :mod:`.inline` — exhaustive function inlining (bounded recursion);
* :mod:`.unroll` — loop unrolling, full or by a factor.

The source-level rewrites ("recoding") the paper says implicit timing
rules force on designers are written out as program pairs in
:mod:`repro.workloads.variants`, not as a pass.

CDFG-level passes (run on the built graph):

* :mod:`.constfold` — constant folding and algebraic identities;
* :mod:`.cse` — common-subexpression elimination within blocks;
* :mod:`.dce` — dead-code elimination;
* :mod:`.simplify` — CFG cleanup (jump threading, empty-block removal);
* :mod:`.copyprop` — copy propagation (identity casts, constant selects,
  self-latches);
* :mod:`.memchain` — chain load/store elimination (store-to-load
  forwarding, redundant-store removal);
* :mod:`.deadvar` — liveness-driven dead-variable elimination
  (:mod:`repro.ir.liveness`).

Driver (:mod:`.fixpoint`):

* :func:`.fixpoint.run_fixpoint` — applies a pass list with cached
  liveness until quiescent, within a sweep bound, re-running a pass only
  on what changed since it last ran;
* :func:`.fixpoint.optimize_cdfg` — the opt_level dispatch flows call,
  a lookup into ``OPT_PIPELINES`` (the one table of what each level
  runs).
"""

from .inline import inline_program, InlineStats
from .unroll import UnrollCount, count_full_unroll, unroll_loops, try_full_unroll
from .constfold import fold_constants
from .copyprop import propagate_copies
from .cse import eliminate_common_subexpressions
from .dce import eliminate_dead_code
from .deadvar import eliminate_dead_variables
from .memchain import eliminate_load_store_chains
from .narrow import NarrowReport, narrow_widths
from .simplify import simplify_cfg
from .fixpoint import (
    CLASSIC_PASSES,
    DEFAULT_MAX_ITERATIONS,
    FIXPOINT_PASSES,
    FixpointReport,
    PassSpec,
    optimize_cdfg,
    run_fixpoint,
)

__all__ = [
    "CLASSIC_PASSES",
    "DEFAULT_MAX_ITERATIONS",
    "FIXPOINT_PASSES",
    "FixpointReport",
    "InlineStats",
    "NarrowReport",
    "narrow_widths",
    "PassSpec",
    "UnrollCount",
    "count_full_unroll",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "eliminate_dead_variables",
    "eliminate_load_store_chains",
    "fold_constants",
    "inline_program",
    "optimize_cdfg",
    "propagate_copies",
    "run_fixpoint",
    "simplify_cfg",
    "try_full_unroll",
    "unroll_loops",
]
