"""Differential fuzzing of the flow matrix.

The fuzzer closes the loop the hand-written workload suite opens: instead
of a dozen curated programs, it generates thousands targeted at each
flow's accepted subset (and deliberately at its boundary), checks every
one against the reference interpreter *and* against semantics-preserving
rewrites of itself, reduces whatever diverges to a 1-minimal reproducer,
and pins each distinct failure in a replayable corpus.

Layers, bottom-up:

* :mod:`.masks` — per-flow feature masks derived from the lint registry;
* :mod:`.grammar` — the generative frontend (profiles × seeds → programs);
* :mod:`.mutate` — the metamorphic layer (commute, reassociate, rotate,
  dead code, statement split);
* :mod:`.signature` — how failures are named and deduplicated;
* :mod:`.reduce` — statement- then token-level delta debugging;
* :mod:`.corpus` — the persistent triaged corpus under ``tests/corpus/``;
* :mod:`.timing` — schedule-boundary probes predicted to trip one TIM
  rule each, cross-checked by :mod:`repro.analysis.timing.harness`;
* :mod:`.options` — the frozen :class:`FuzzOptions` facade;
* :mod:`.coverage` — the deterministic coverage signal and map;
* :mod:`.pool` — the novelty-scored seed pool (power scheduling);
* :mod:`.shard` — deterministic campaign sharding and corpus merging;
* :mod:`.campaign` — the orchestrator behind ``repro fuzz``.

The public entry point is ``run_campaign(FuzzOptions(...))``.
"""

from .campaign import CampaignReport, promote, run_campaign
from .corpus import Corpus, CorpusEntry, replay_entry, replay_options
from .coverage import CoverageMap, cell_signals
from .grammar import GeneratedProgram, available_profiles, generate_program
from .masks import FeatureMask, all_masks, feature_mask, timing_probe_kinds
from .mutate import MUTATION_NAMES, Mutant, mutants
from .options import FuzzOptions
from .pool import PoolEntry, SeedPool
from .reduce import ReductionResult, is_statement_minimal, reduce_source
from .shard import MergeReport, assign_shard, merge_corpus_dirs
from .signature import KINDS, Divergence, Signature, program_hash
from .timing import (
    PROBE_RULES,
    TimingProbe,
    generate_timing_probe,
    probe_plan,
)

__all__ = [
    "CampaignReport",
    "Corpus",
    "CorpusEntry",
    "CoverageMap",
    "Divergence",
    "FeatureMask",
    "FuzzOptions",
    "GeneratedProgram",
    "KINDS",
    "MUTATION_NAMES",
    "MergeReport",
    "Mutant",
    "PROBE_RULES",
    "PoolEntry",
    "ReductionResult",
    "SeedPool",
    "Signature",
    "TimingProbe",
    "all_masks",
    "assign_shard",
    "available_profiles",
    "cell_signals",
    "feature_mask",
    "generate_program",
    "generate_timing_probe",
    "is_statement_minimal",
    "merge_corpus_dirs",
    "mutants",
    "probe_plan",
    "program_hash",
    "promote",
    "reduce_source",
    "replay_entry",
    "replay_options",
    "run_campaign",
    "timing_probe_kinds",
]
