"""Campaign orchestration: generate, run, classify, reduce, triage.

One campaign spends a budget of ``seeds`` programs on each flow: the
grammar emits programs targeted at that flow's feature mask (every fourth
seed deliberately straddles the boundary with one forbidden feature), the
metamorphic layer derives semantics-preserving mutants, and each wave
runs through the shared :class:`MatrixEngine` — same process pool, same
artifact cache, same golden-model comparison as the matrix sweeps.

Classification splits results into the paper-expected (boundary programs
rejected with the predicted rule; clean programs OK) and divergences:

* ``mismatch`` / ``error`` / ``timeout`` — the engine's own unexpected
  verdicts on a lint-clean program;
* ``metamorphic`` — original and mutant both ran on the same flow but
  produced different observables (a bug even without the interpreter);
* ``lint-disagree`` — the linter's predicted verdict and the flow's actual
  accept/reject decision differ, in either direction.

Divergences are deduplicated by coarse signature, optionally reduced to
1-minimal reproducers, and compared against the persistent corpus: only
signatures the corpus has never seen make the campaign fail.

The facade is :func:`run_campaign` over a frozen
:class:`~repro.fuzz.options.FuzzOptions`.  The schedule is
feedback-driven: every executed program's trace counters and sim
state-visit histograms flatten into
:class:`~repro.fuzz.coverage.CoverageMap` buckets, a novelty-scored
:class:`~repro.fuzz.pool.SeedPool` decides which parents to vary (power
scheduling: novel parents get more children and more mutants), and
generation explores profile/size space around the winners.  Boundary
probes keep their fixed every-fourth-seed slots — their value is the
*predicted* rejection.

Everything downstream of the options is a pure function of
(campaign_seed, seed, flow) — guided scheduling consumes deterministic
derived rng streams, never wall-clock or execution order — so two
campaigns over the same options report identical signatures, and a
sharded campaign merges to the same corpus however its shards ran.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict as dataclass_asdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.lint import lint
from ..api import SynthesisOptions
from ..runner.cache import ArtifactCache
from ..runner.cells import (
    CellTask,
    ERROR,
    MISMATCH,
    OK,
    REJECTED,
    TIMEOUT,
)
from ..runner.engine import MatrixEngine
from .corpus import Corpus, observable_diff
from .coverage import CoverageMap, cell_signals
from .grammar import GeneratedProgram, generate_program
from .masks import all_masks
from .mutate import Mutant, mutants
from .options import FuzzOptions
from .pool import PoolEntry, SeedPool
from .reduce import reduce_source
from .shard import assign_shard, mix
from .signature import (
    Divergence,
    KIND_ERROR,
    KIND_LINT_DISAGREE,
    KIND_METAMORPHIC,
    KIND_MISMATCH,
    KIND_OPT_DIVERGE,
    KIND_TIMEOUT,
)

# Every BOUNDARY_STRIDE-th seed probes the reject side of the flow's
# feature mask instead of the accept side.
BOUNDARY_STRIDE = 4

_VERDICT_TO_KIND = {
    MISMATCH: KIND_MISMATCH,
    ERROR: KIND_ERROR,
    TIMEOUT: KIND_TIMEOUT,
}


#: How many programs each coverage-guided wave schedules before pausing
#: to fold feedback into the pool (and to check the time budget).
WAVE_SIZE = 8

#: Minted child seeds live above this floor so they can never collide
#: with a base seed range (campaign seed ranges are human-sized).
MINT_FLOOR = 0x40000000

#: Version tag of :meth:`CampaignReport.to_dict`.
REPORT_SCHEMA = "repro-fuzz-report/1"


@dataclass
class FlowStats:
    seeds: int = 0
    boundary_seeds: int = 0
    mutants: int = 0
    lanes: int = 0                          # extra per-program input lanes
    opt_cells: int = 0                      # cross-level opt_level variants
    ok: int = 0
    expected_rejections: int = 0
    mutant_rejections: int = 0              # benign: mutant crossed a boundary
    divergences: int = 0


@dataclass
class CampaignReport:
    options: FuzzOptions
    stats: Dict[str, FlowStats] = field(default_factory=dict)
    divergences: List[Divergence] = field(default_factory=list)
    new_signatures: List[str] = field(default_factory=list)
    known_signatures: List[str] = field(default_factory=list)
    cells_run: int = 0
    elapsed_s: float = 0.0
    budget_exhausted: bool = False
    # The final coverage map, and the distinct-bucket count after each
    # wave (strictly non-decreasing; the CI smoke leg asserts it actually
    # grows).
    coverage: CoverageMap = field(default_factory=CoverageMap)
    coverage_growth: List[int] = field(default_factory=list)
    # Sharded runs: one summary row per shard, in index order.
    shard_reports: List[Dict[str, object]] = field(default_factory=list)
    # Corpus files that would not load ("path: reason").
    corrupt_entries: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """New signatures, a corrupt corpus entry, or a shard whose
        worker died or raised."""
        return bool(self.new_signatures or self.corrupt_entries) or any(
            row["error"] for row in self.shard_reports
        )

    def summary_lines(self) -> List[str]:
        lines = []
        header = (
            f"{'flow':<15} {'seeds':>6} {'bnd':>5} {'mut':>5} {'ok':>6} "
            f"{'rej':>6} {'div':>5}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for flow in sorted(self.stats):
            s = self.stats[flow]
            lines.append(
                f"{flow:<15} {s.seeds:>6} {s.boundary_seeds:>5} "
                f"{s.mutants:>5} {s.ok:>6} {s.expected_rejections:>6} "
                f"{s.divergences:>5}"
            )
        families = ", ".join(
            f"{family}={count}"
            for family, count in self.coverage.families().items()
        )
        lines.append(
            f"coverage: {self.coverage.distinct()} buckets ({families})"
        )
        for row in self.shard_reports:
            shard_cov = row.get("coverage") or {}
            lines.append(
                f"shard {row['index']}: cells={row['cells_run']}  "
                f"div={row['divergences']}  "
                f"buckets={shard_cov.get('distinct', '-')}  "
                f"elapsed={row['elapsed_s']:.1f}s"
                + (f"  error: {row['error']}" if row["error"] else "")
            )
        for corrupt in self.corrupt_entries:
            lines.append(f"corrupt corpus entry: {corrupt}")
        lines.append(
            f"cells={self.cells_run}  divergences={len(self.divergences)}  "
            f"new={len(self.new_signatures)}  known={len(self.known_signatures)}  "
            f"elapsed={self.elapsed_s:.1f}s"
        )
        return lines

    def to_dict(self) -> Dict[str, object]:
        """The stable report schema (``repro-fuzz-report/1``), mirroring
        the lint/check JSON conventions: options identity, per-flow
        stats, coverage summary, per-shard rows, and the sorted
        signature lists."""
        return {
            "schema": REPORT_SCHEMA,
            "options": self.options.identity(),
            "stats": {
                flow: dataclass_asdict(self.stats[flow])
                for flow in sorted(self.stats)
            },
            "cells_run": self.cells_run,
            "elapsed_s": round(self.elapsed_s, 3),
            "budget_exhausted": self.budget_exhausted,
            "new_signatures": sorted(self.new_signatures),
            "known_signatures": sorted(self.known_signatures),
            "divergences": [d.describe() for d in self.divergences],
            "coverage": self.coverage.summary(),
            "coverage_growth": list(self.coverage_growth),
            "shards": list(self.shard_reports),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


@dataclass
class _WorkItem:
    """One generated program plus its mutants, before execution."""

    program: GeneratedProgram
    mutant_list: List[Mutant] = field(default_factory=list)
    statements: int = 8       # generation size (pool entries inherit it)


def _lane_args(args: Tuple[int, ...], lane: int) -> Tuple[int, ...]:
    """Deterministic per-lane argument variation inside the grammar's
    input domain ([-100, 100]).  Lane 0 is the program's own args."""
    if lane == 0:
        return tuple(args)
    return tuple(
        (value + 37 * lane * (position + 1) + 100) % 201 - 100
        for position, value in enumerate(args)
    )


def _lane_count(item: _WorkItem, input_lanes: int) -> int:
    """Extra argument-set tasks for one item (0 for boundary probes —
    rejections are compile-time, more inputs prove nothing)."""
    if item.program.is_boundary or not item.program.args:
        return 0
    return max(0, input_lanes - 1)


def _opt_count(item: _WorkItem, opt_levels: Tuple[int, ...]) -> int:
    """Extra per-opt_level tasks for one item.  Boundary probes are
    skipped: their point is the rejection, which the cross-level corpus
    replay already pins as level-invariant."""
    if item.program.is_boundary:
        return 0
    return len(opt_levels)


def _opt_rule(level: int) -> str:
    """The signature rule naming one cross-level comparison, default
    level on the left: ``opt1-vs-opt2``."""
    from ..api import DEFAULT_OPT_LEVEL

    return f"opt{DEFAULT_OPT_LEVEL}-vs-opt{level}"


def _parse_opt_rule(rule: str) -> Optional[Tuple[int, int]]:
    """Invert :func:`_opt_rule`; None when the rule is not level-shaped."""
    try:
        left, right = rule.split("-vs-")
        if not (left.startswith("opt") and right.startswith("opt")):
            return None
        return int(left[3:]), int(right[3:])
    except (ValueError, AttributeError):
        return None


def _tasks_for(
    item: _WorkItem,
    base: SynthesisOptions = SynthesisOptions(),
    input_lanes: int = 1,
    opt_levels: Tuple[int, ...] = (),
) -> List[CellTask]:
    program = item.program
    options = base.with_(flow=program.flow)
    tasks = [CellTask(program.name, program.source, options, program.args)]
    for lane in range(1, _lane_count(item, input_lanes) + 1):
        tasks.append(CellTask(
            f"{program.name}-lane{lane}", program.source, options,
            _lane_args(program.args, lane),
        ))
    if _opt_count(item, opt_levels):
        for level in opt_levels:
            tasks.append(CellTask(
                f"{program.name}-opt{level}", program.source,
                options.with_(opt_level=int(level)), program.args,
            ))
    for mutant in item.mutant_list:
        tasks.append(CellTask(
            f"{program.name}-mut-{mutant.name}-{mutant.index}",
            mutant.source, options, program.args,
        ))
    return tasks


def _classify_item(
    item: _WorkItem, results, stats: FlowStats, input_lanes: int = 1,
    opt_levels: Tuple[int, ...] = (),
) -> List[Divergence]:
    """Judge one program (and its lanes, opt_level variants, and mutants)
    from its cell results, in :func:`_tasks_for` order: original, extra
    input lanes, cross-level variants, then mutants."""
    program = item.program
    original = results[0]
    lane_count = _lane_count(item, input_lanes)
    opt_count = _opt_count(item, opt_levels)
    lane_results = results[1:1 + lane_count]
    opt_results = results[1 + lane_count:1 + lane_count + opt_count]
    mutant_results = results[1 + lane_count + opt_count:]
    found: List[Divergence] = []

    def divergence(kind: str, **kwargs) -> Divergence:
        base = dict(
            flow=program.flow,
            kind=kind,
            source=program.source,
            args=program.args,
            seed=program.seed,
            profile=program.profile,
        )
        base.update(kwargs)
        return Divergence(**base)

    def judged(result, prefix: str = "", **kwargs) -> Divergence:
        """The finding a cell's own verdict makes: its kind, its rule (a
        mismatch's differing field kind), the inputs and what they gave."""
        return divergence(
            _VERDICT_TO_KIND.get(result.verdict, KIND_ERROR),
            args=result.args, rule=result.rule,
            detail=prefix + result.note(60),
            extra={"expect": {"verdict": result.verdict,
                              "value": result.value}},
            **kwargs,
        )

    if program.is_boundary:
        stats.boundary_seeds += 1
        report = lint(program.source, flow=program.flow)
        lint_dirty = not report.is_clean(program.flow)
        if original.verdict == REJECTED and lint_dirty:
            stats.expected_rejections += 1      # the paper's Table 1 working
        elif original.verdict != REJECTED:
            lint_rules = sorted(report.errors(program.flow), key=str)
            rule = lint_rules[0].rule if lint_rules else ""
            found.append(divergence(
                KIND_LINT_DISAGREE,
                rule=rule,
                detail=(
                    f"lint predicts rejection ({rule or 'dirty'}) for "
                    f"forbidden feature '{program.boundary_feature}' but "
                    f"flow verdict was {original.verdict}"
                ),
                extra={"expect": {"verdict": original.verdict}},
            ))
        else:  # rejected but lint was silent
            found.append(divergence(
                KIND_LINT_DISAGREE,
                rule=original.rule,
                detail=(
                    f"flow rejected ({original.rule}) but lint saw nothing "
                    f"wrong for feature '{program.boundary_feature}'"
                ),
                extra={"expect": {"verdict": original.verdict}},
            ))
        stats.divergences += len(found)
        return found

    # Clean-side program: generated to be lint-clean and interpreter-valid.
    if original.verdict == OK:
        stats.ok += 1
    elif original.verdict == REJECTED:
        found.append(divergence(
            KIND_LINT_DISAGREE,
            rule=original.rule,
            detail=(
                f"flow rejected a lint-clean program ({original.rule}): "
                f"{original.note()}"
            ),
            extra={"expect": {"verdict": original.verdict}},
        ))
    else:
        found.append(judged(original))

    for lane, result in enumerate(lane_results, start=1):
        stats.lanes += 1
        if result.verdict == OK:
            stats.ok += 1
            continue
        if result.verdict == REJECTED:
            # Rejections are input-independent, so a lane can only be
            # rejected if the original was — classified above already.
            continue
        found.append(judged(result, f"lane {lane}: "))

    for level, result in zip(opt_levels, opt_results):
        stats.opt_cells += 1
        rule = _opt_rule(level)
        if result.verdict != original.verdict:
            found.append(divergence(
                KIND_OPT_DIVERGE,
                rule=rule,
                detail=(
                    f"opt_level={level} turned verdict "
                    f"{original.verdict} into {result.verdict}: "
                    f"{result.note(40)}"
                ),
                extra={"expect": {
                    "verdict": result.verdict,
                    "base_verdict": original.verdict,
                }},
            ))
        elif original.verdict == OK and (
            result.observable != original.observable
        ):
            found.append(divergence(
                KIND_OPT_DIVERGE,
                rule=rule,
                detail=(f"opt_level={level} changed "
                        f"{observable_diff(original, result)}"),
                extra={"expect": {
                    "verdict": result.verdict,
                    "value": result.value,
                    "base_value": original.value,
                }},
            ))

    for mutant, result in zip(item.mutant_list, mutant_results):
        stats.mutants += 1
        if result.verdict == OK:
            continue
        if result.verdict == REJECTED:
            # The rewrite crossed a restriction the original respected
            # (e.g. a split-statement temp in a flow that bounds locals).
            # Expected flow behaviour, not a bug — counted, not reported.
            stats.mutant_rejections += 1
            continue
        if (
            result.verdict == MISMATCH
            and original.verdict in (OK, MISMATCH)
            and original.observable != result.observable
        ):
            found.append(divergence(
                KIND_METAMORPHIC,
                source=mutant.source,
                original_source=program.source,
                mutation=mutant.name,
                detail=(
                    f"{mutant.name} rewrite changed "
                    f"{observable_diff(original, result)}"
                ),
                extra={"expect": {"verdict": result.verdict}},
            ))
        else:
            found.append(judged(
                result, source=mutant.source,
                original_source=program.source, mutation=mutant.name,
            ))
    stats.divergences += len(found)
    return found


# -- reduction predicates -----------------------------------------------------

def reduction_predicate(
    divergence: Divergence, engine: MatrixEngine,
    base: SynthesisOptions = SynthesisOptions(),
):
    """A predicate asking "does this candidate still fail with the same
    coarse signature?" — the contract :func:`reduce_source` shrinks under.
    Matches on (flow, kind, rule) only; the program hash is minted after
    reduction finishes.  Candidates run under ``base`` with the
    divergence's flow."""
    flow, kind, rule = divergence.signature().coarse
    options = base.with_(flow=flow)

    def run(source: str, **overrides):
        task = CellTask("reduce", source, options.with_(**overrides),
                        divergence.args)
        return engine.run_cells([task])[0]

    if kind == KIND_LINT_DISAGREE:
        def predicate(source: str) -> bool:
            report = lint(source, flow=flow)
            clean = report.is_clean(flow)
            result = run(source)
            compiled = result.verdict != REJECTED
            if clean == compiled:
                return False
            observed = result.rule if not compiled else (
                min(d.rule for d in report.errors(flow)) if
                report.errors(flow) else ""
            )
            return observed == rule
        return predicate

    if kind == KIND_METAMORPHIC:
        return None         # needs the (original, mutant) pair; not reduced

    if kind == KIND_OPT_DIVERGE:
        levels = _parse_opt_rule(rule)
        if levels is None:
            return None

        def predicate(source: str) -> bool:
            low = run(source, opt_level=levels[0])
            high = run(source, opt_level=levels[1])
            if low.verdict != high.verdict:
                return True
            return low.verdict == OK and low.observable != high.observable
        return predicate

    def predicate(source: str) -> bool:
        result = run(source)
        if _VERDICT_TO_KIND.get(result.verdict) != kind:
            return False
        return not rule or result.rule == rule
    return predicate


def attach_trace(
    divergence: Divergence,
    engine: Optional[MatrixEngine] = None,
    base: SynthesisOptions = SynthesisOptions(),
) -> Divergence:
    """Record the reproducer's pipeline shape on the divergence: the span
    *structure* and counters of a traced re-run, never durations, so the
    corpus entry minted from it is byte-identical across hosts and
    re-runs.  Timeouts are skipped — re-running one only burns the
    deadline again and its partial shape is not stable."""
    from ..trace import counters_of, structure_of

    if divergence.kind == KIND_TIMEOUT:
        return divergence
    engine = engine or MatrixEngine(jobs=1, cache=None, trace=True)
    options = base.with_(flow=divergence.flow)
    task = CellTask("trace", divergence.best_source, options, divergence.args)
    result = engine.run_cells([task])[0]
    if result.trace:
        divergence.trace = {
            "structure": structure_of(result.trace),
            "counters": counters_of(result.trace),
        }
    return divergence


def reduce_divergence(
    divergence: Divergence,
    engine: Optional[MatrixEngine] = None,
    base: SynthesisOptions = SynthesisOptions(),
) -> Divergence:
    """Attach a 1-minimal reproducer to ``divergence`` (no-op for kinds
    the reducer cannot re-judge on a single program)."""
    engine = engine or MatrixEngine(jobs=1, cache=None)
    predicate = reduction_predicate(divergence, engine, base)
    if predicate is None:
        return divergence
    outcome = reduce_source(divergence.source, predicate)
    if outcome.reproduced:
        divergence.reduced_source = outcome.reduced
        divergence.extra["reduction"] = {
            "predicate_calls": outcome.predicate_calls,
            "shrink_ratio": round(outcome.shrink_ratio, 3),
        }
        # The pinned expectation must describe the *reduced* program — its
        # value usually differs from the original's even though the
        # signature (verdict + rule) is the same.
        options = base.with_(flow=divergence.flow)
        task = CellTask("pin", outcome.reduced, options, divergence.args)
        result = engine.run_cells([task])[0]
        divergence.extra["expect"] = {
            "verdict": result.verdict,
            "value": result.value,
        }
    return divergence


# -- the driver ---------------------------------------------------------------

def run_campaign(options: FuzzOptions) -> CampaignReport:
    """Run one fuzz campaign and return its report.

    ``shards > 1`` without a shard index orchestrates every shard in
    worker processes and merges; a set index runs only that shard's
    deterministic slice.
    """
    if options.shards > 1 and options.shard_index is None:
        from .shard import run_sharded

        return run_sharded(options)
    return _run_single(options)


def _run_single(options: FuzzOptions) -> CampaignReport:
    started = time.monotonic()
    report = CampaignReport(options=options)

    cache = ArtifactCache(options.cache_path) if options.cache_path else None
    engine = MatrixEngine(
        jobs=options.jobs,
        cache=cache,
        timeout_s=options.timeout_s,
        max_cycles=options.max_cycles,
        # The schedule needs the signal sources on every result: the
        # phase trace (counters) and the sim profile (state visits).
        trace=True,
    )
    raw = _guided_pass(options, report, engine, started)
    _triage(options, report, raw)
    report.elapsed_s = time.monotonic() - started
    return report


def _run_items(
    options: FuzzOptions,
    engine: MatrixEngine,
    items: List[_WorkItem],
) -> Tuple[List, List[Tuple[_WorkItem, int, int]]]:
    """Expand items into cell tasks, run them, and return (results,
    per-item result spans)."""
    tasks: List[CellTask] = []
    spans: List[Tuple[_WorkItem, int, int]] = []
    for item in items:
        item_tasks = _tasks_for(
            item, options.cell_options(), options.input_lanes,
            tuple(options.opt_levels),
        )
        spans.append((item, len(tasks), len(tasks) + len(item_tasks)))
        tasks.extend(item_tasks)
    return engine.run_cells(tasks), spans


def _guided_pass(
    options: FuzzOptions,
    report: CampaignReport,
    engine: MatrixEngine,
    started: float,
) -> List[Divergence]:
    """The coverage-guided schedule.

    Per flow, the ``seeds`` budget is spent in waves of
    :data:`WAVE_SIZE` programs.  Boundary slots (every fourth base seed)
    always run the fixed lint-predicted probe.  Other slots run the base
    seed directly until the pool has parents, then draw an
    energy-weighted parent and generate a *variation*: a freshly minted
    seed (a pure hash of campaign seed, shard, flow, and slot), the
    parent's profile most of the time, and a nudged statement count.
    After each wave the new results' buckets feed the map, novelty
    credits the pool, and the distinct count is appended to
    ``coverage_growth``.
    """
    masks = all_masks(
        list(options.flows) if options.flows is not None else None
    )
    coverage = report.coverage
    shard_idx = options.shard_index if options.shard_index is not None else 0
    raw: List[Divergence] = []
    out_of_time = False

    for flow in sorted(masks):
        if out_of_time:
            break
        mask = masks[flow]
        pool = SeedPool()
        rng = random.Random(mix("pool", options.campaign_seed, shard_idx, flow))
        stats = report.stats.setdefault(flow, FlowStats())
        slots = [
            options.seed_base + offset
            for offset in range(options.seeds)
            if options.shards <= 1 or assign_shard(
                options.seed_base + offset, options.campaign_seed,
                options.shards,
            ) == shard_idx
        ]

        position = 0
        while position < len(slots) and not out_of_time:
            wave = slots[position:position + WAVE_SIZE]
            position += len(wave)
            items: List[_WorkItem] = []
            for base_seed in wave:
                boundary = (
                    base_seed % BOUNDARY_STRIDE == BOUNDARY_STRIDE - 1
                    and bool(mask.boundary_features)
                )
                if boundary:
                    program = generate_program(base_seed, mask, boundary=True)
                    items.append(_WorkItem(program=program))
                    continue
                parent = pool.select(rng)
                extra_mutants = 0
                statements = 8
                if parent is None:
                    program = generate_program(
                        base_seed, mask, profiles=options.profiles
                    )
                else:
                    child_seed = MINT_FLOOR + mix(
                        "mint", options.campaign_seed, shard_idx, flow,
                        base_seed,
                    ) % MINT_FLOOR
                    statements = min(20, max(
                        4, parent.statements + rng.choice((-3, -2, 2, 3, 5))
                    ))
                    profile = parent.profile if rng.random() < 0.7 else ""
                    program = generate_program(
                        child_seed, mask, statements=statements,
                        profile=profile, profiles=options.profiles,
                    )
                    parent.children += 1
                    extra_mutants = parent.mutation_bonus()
                item = _WorkItem(program=program, statements=statements)
                if options.mutations > 0:
                    item.mutant_list = mutants(
                        program.source,
                        seed=program.seed,
                        count=options.mutations + extra_mutants,
                        mask=mask,
                    )
                items.append(item)

            results, spans = _run_items(options, engine, items)
            report.cells_run += len(results)
            for item, lo, hi in spans:
                stats.seeds += 1
                raw.extend(_classify_item(
                    item, results[lo:hi], stats, options.input_lanes,
                    tuple(options.opt_levels),
                ))
                signals: List[str] = []
                for result in results[lo:hi]:
                    signals.extend(cell_signals(result))
                novelty = coverage.add(signals)
                program = item.program
                if not program.is_boundary:
                    pool.add(PoolEntry(
                        key=f"{flow}:{program.profile}:{program.seed}",
                        flow=flow,
                        profile=program.profile,
                        seed=program.seed,
                        statements=item.statements,
                        new_buckets=novelty,
                    ))
            report.coverage_growth.append(coverage.distinct())
            if (
                options.time_budget_s > 0
                and time.monotonic() - started > options.time_budget_s
            ):
                report.budget_exhausted = True
                out_of_time = True
    return raw


def _triage(
    options: FuzzOptions,
    report: CampaignReport,
    raw: List[Divergence],
) -> None:
    """Deduplicate, reduce, trace, and compare against the corpus."""
    # Deduplicate by coarse signature before (expensive) reduction: one
    # reproducer per underlying bug.
    unique: Dict[Tuple[str, str, str], Divergence] = {}
    for divergence in raw:
        unique.setdefault(divergence.signature().coarse, divergence)

    reducer_engine = MatrixEngine(
        jobs=1, cache=None,
        timeout_s=options.timeout_s, max_cycles=options.max_cycles,
    )
    trace_engine = MatrixEngine(
        jobs=1, cache=None, trace=True,
        timeout_s=options.timeout_s, max_cycles=options.max_cycles,
    )
    base = options.cell_options()
    for divergence in unique.values():
        if options.reduce:
            reduce_divergence(divergence, reducer_engine, base)
        attach_trace(divergence, trace_engine, base)
        # Record the execution options the finding was made under, so a
        # corpus entry minted from it replays the same frozen set.
        divergence.options = {"sim_backend": options.sim_backend}
        report.divergences.append(divergence)

    compare_with_corpus(report, options.corpus_path)


def compare_with_corpus(report: CampaignReport, corpus_dir: Path) -> None:
    """Sort the report's divergences into signatures the corpus already
    holds and new ones, and note every corpus entry that would not load."""
    corpus = Corpus(corpus_dir)
    report.corrupt_entries = [f"{path}: {reason}"
                              for path, reason in corpus.corrupt]
    known_coarse = corpus.known_coarse()
    for divergence in report.divergences:
        sig = divergence.signature()
        if sig in corpus or sig.coarse in known_coarse:
            report.known_signatures.append(sig.id)
        else:
            report.new_signatures.append(sig.id)
    report.new_signatures.sort()
    report.known_signatures.sort()


def promote(
    report: CampaignReport,
    corpus_dir: Path,
    limit: int = 0,
    only: Optional[Set[str]] = None,
) -> List[str]:
    """Write the report's divergences into the corpus; returns the new
    entry paths (relative to ``corpus_dir``).  ``only`` restricts
    promotion to the given signature ids — the shard-delta mode, where a
    shard writes just its *new* findings into its own directory for the
    merge step to fold in."""
    corpus = Corpus(corpus_dir)
    written: List[str] = []
    for divergence in report.divergences:
        if only is not None and divergence.signature().id not in only:
            continue
        entry = corpus.add(divergence)
        if entry is not None:
            written.append(str(entry.path(corpus.root).relative_to(corpus.root)))
            if limit and len(written) >= limit:
                break
    return written
