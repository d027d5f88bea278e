"""E21 — coverage-guided sharded fuzzing vs the fixed-profile baseline.

Two claims from the campaign-engine redesign, measured:

* **Guidance pays.** At an equal per-flow seed budget, the
  coverage-guided scheduler (novelty-scored seed pool, power scheduling,
  minted child seeds) opens at least 1.5x as many distinct coverage
  buckets as the classic fixed-profile sweep it replaced.  The campaign
  no longer runs that sweep; the baseline rebuilds it here (every base
  seed at its fixed profile, one mutant each, no feedback), with
  coverage measured externally so both sides share one bucket currency.
* **Sharding is free determinism, and parallel speedup where the host
  has cores.** A 4-shard campaign covers the same seed space as the
  single-shard run, its per-shard corpus deltas merge byte-identically
  regardless of merge order, and on a >=4-core host the sharded run
  sustains at least 3x the single-shard cell throughput.  On smaller
  hosts the throughput ratio is still recorded, just not asserted.
"""

import os

from repro.fuzz import (
    CoverageMap,
    FuzzOptions,
    cell_signals,
    feature_mask,
    generate_program,
    merge_corpus_dirs,
    mutants,
    promote,
    run_campaign,
)
from repro.api import SynthesisOptions
from repro.report import format_table
from repro.runner import MatrixEngine
from repro.runner.cells import CellTask

GUIDANCE_FLOWS = ("cyber", "cash")
SEEDS = 40                 # per flow, both arms
MIN_COVERAGE_RATIO = 1.5   # guided distinct buckets / fixed distinct buckets
SHARDS = 4
MIN_SHARD_SPEEDUP = 3.0    # asserted only when the host has >= SHARDS cores


def _fixed_baseline(tmp_path):
    """The pre-redesign campaign body: fixed profiles, fixed mutant
    count, no feedback — with coverage measured on the side."""
    engine = MatrixEngine(jobs=1, cache=None, trace=True)
    coverage = CoverageMap()
    cells = 0
    for flow in GUIDANCE_FLOWS:
        mask = feature_mask(flow)
        for seed in range(SEEDS):
            program = generate_program(seed, mask, boundary=(seed % 4 == 3))
            options = SynthesisOptions(flow=flow)
            tasks = [CellTask(
                workload=f"fixed-{flow}-{seed}",
                source=program.source, options=options,
            )]
            for mutant in mutants(program.source, seed=seed, count=1,
                                  mask=mask):
                tasks.append(CellTask(
                    workload=f"fixed-{flow}-{seed}-{mutant.name}",
                    source=mutant.source, options=options,
                ))
            for result in engine.run_cells(tasks):
                coverage.add(cell_signals(result))
                cells += 1
    return coverage, cells


def _guided_run(tmp_path):
    return run_campaign(FuzzOptions(
        flows=GUIDANCE_FLOWS, seeds=SEEDS, reduce=False, mutations=1,
        corpus_dir=str(tmp_path / "guided-corpus"),
    ))


def test_guided_coverage_beats_fixed(benchmark, save_report, save_bench,
                                     tmp_path):
    fixed_cov, fixed_cells = _fixed_baseline(tmp_path)
    report = benchmark.pedantic(
        _guided_run, args=(tmp_path,), rounds=1, iterations=1
    )
    guided = report.coverage.distinct()
    fixed = fixed_cov.distinct()
    ratio = guided / max(1, fixed)

    rows = [
        ["fixed", fixed_cells, fixed, f"{fixed / fixed_cells:.2f}"],
        ["guided", report.cells_run, guided,
         f"{guided / report.cells_run:.2f}"],
    ]
    text = format_table(
        ["arm", "cells", "distinct buckets", "buckets/cell"],
        rows,
        title=f"E21a: coverage yield at {SEEDS} seeds x "
              f"{len(GUIDANCE_FLOWS)} flows (guided/fixed = {ratio:.2f}x)",
    )
    save_report("e21a_fuzz_coverage", text)
    save_bench("e21a_fuzz_coverage", {
        "fixed_cells": fixed_cells,
        "fixed_distinct": fixed,
        "guided_cells": report.cells_run,
        "guided_distinct": guided,
        "ratio": round(ratio, 3),
        "guided_growth": report.coverage_growth,
    }, config={"flows": list(GUIDANCE_FLOWS), "seeds": SEEDS})

    assert ratio >= MIN_COVERAGE_RATIO, (
        f"guided coverage ratio {ratio:.2f}x below {MIN_COVERAGE_RATIO}x"
    )
    # Guidance never trades correctness signal away: the guided run still
    # walks every boundary probe into a predicted rejection.
    for flow, stats in report.stats.items():
        assert stats.expected_rejections == stats.boundary_seeds


def _campaign_options(tmp_path, tag, **overrides):
    base = dict(
        flows=("cash",), seeds=SEEDS, reduce=False, mutations=1,
        corpus_dir=str(tmp_path / f"{tag}-corpus"),
    )
    base.update(overrides)
    return FuzzOptions.make(**base)


def test_sharded_throughput_and_merge(benchmark, save_report, save_bench,
                                      tmp_path):
    single = run_campaign(_campaign_options(tmp_path, "single"))
    sharded = benchmark.pedantic(
        run_campaign,
        args=(_campaign_options(tmp_path, "sharded", shards=SHARDS),),
        rounds=1, iterations=1,
    )

    single_rate = single.cells_run / max(1e-9, single.elapsed_s)
    sharded_rate = sharded.cells_run / max(1e-9, sharded.elapsed_s)
    speedup = sharded_rate / max(1e-9, single_rate)
    cores = os.cpu_count() or 1

    # Same seed space either way, covered exactly once.
    assert sharded.stats["cash"].seeds == single.stats["cash"].seeds
    assert len(sharded.shard_reports) == SHARDS

    # Per-shard corpus deltas merge byte-identically in any order.
    deltas = []
    for index in range(SHARDS):
        options = _campaign_options(
            tmp_path, f"slice{index}", shards=SHARDS, shard_index=index,
            shard_dir=str(tmp_path / f"delta{index}"),
        )
        slice_report = run_campaign(options)
        promote(slice_report, options.promote_path,
                only=set(slice_report.new_signatures))
        deltas.append(options.promote_path)

    def corpus_bytes(root):
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.glob("*/*.json"))
        }

    forward, backward = tmp_path / "merge-fwd", tmp_path / "merge-bwd"
    merge_corpus_dirs(deltas, forward)
    merge_corpus_dirs(list(reversed(deltas)), backward)
    merged = corpus_bytes(forward)
    assert merged == corpus_bytes(backward), (
        "merged corpus depends on shard merge order"
    )
    assert merged, "expected cash divergences to land in the deltas"

    rows = [
        ["single", 1, single.cells_run, f"{single.elapsed_s:.2f}",
         f"{single_rate:.1f}"],
        ["sharded", SHARDS, sharded.cells_run, f"{sharded.elapsed_s:.2f}",
         f"{sharded_rate:.1f}"],
    ]
    text = format_table(
        ["arm", "shards", "cells", "elapsed s", "cells/s"],
        rows,
        title=f"E21b: shard throughput on {cores} core(s) "
              f"(speedup {speedup:.2f}x, merged {len(merged)} entries)",
    )
    save_report("e21b_fuzz_shards", text)
    save_bench("e21b_fuzz_shards", {
        "cores": cores,
        "single_cells_per_s": round(single_rate, 2),
        "sharded_cells_per_s": round(sharded_rate, 2),
        "speedup": round(speedup, 3),
        "merged_entries": len(merged),
    }, config={"flows": ["cash"], "seeds": SEEDS, "shards": SHARDS})

    if cores >= SHARDS:
        assert speedup >= MIN_SHARD_SPEEDUP, (
            f"{SHARDS}-shard speedup {speedup:.2f}x below "
            f"{MIN_SHARD_SPEEDUP}x on a {cores}-core host"
        )
