"""Deterministic campaign sharding and idempotent corpus merging.

A sharded campaign is N independent single-shard campaigns plus one fold.
The split is a pure function of the options: base seed *s* belongs to
shard ``assign_shard(s, campaign_seed, shards)`` no matter which host,
process, or order runs it, so the nightly job can run shards as separate
CI matrix legs (``--shard-index``) and merge their outputs later, and a
local ``--shards N`` run orchestrates the same thing on the runner's
:class:`~repro.runner.pool.WorkerPool`.  A shard whose worker dies or
raises becomes a shard row carrying an ``error`` (the campaign then
counts as failed) while the surviving shards still fold in.

The fold is associative and order-independent: per-flow stats sum,
coverage maps union, divergences deduplicate by signature id and sort,
and :func:`merge_corpus_dirs` resolves any byte-level conflict by keeping
the lexicographically smaller entry — so the merged corpus is
byte-identical regardless of shard execution order, and merging a corpus
into itself is a no-op.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from ..runner.cache import write_atomic
from ..runner.pool import WorkerPool
from .options import FuzzOptions
from .signature import Divergence


def mix(*parts) -> int:
    """FNV-1a over the stringified parts: a stable 32-bit hash behind
    every derived decision — shard assignment, minted child seeds, pool
    rng streams.  Python's ``hash()`` is salted per process; this never
    is, which is what makes shard splits reproducible across hosts."""
    value = 0x811C9DC5
    for part in parts:
        for byte in str(part).encode():
            value ^= byte
            value = (value * 0x01000193) & 0xFFFFFFFF
        # Field separator so ("ab", "c") and ("a", "bc") differ.
        value ^= 0x1F
        value = (value * 0x01000193) & 0xFFFFFFFF
    return value


def assign_shard(seed: int, campaign_seed: int, shards: int) -> int:
    """Which shard owns base seed ``seed`` — a pure function of the
    campaign seed, never of execution order."""
    if shards <= 1:
        return 0
    return mix("shard", campaign_seed, seed) % shards


def shard_options(options: FuzzOptions, index: int) -> FuzzOptions:
    """The option set one shard subprocess runs under: its slice index,
    and the parent's worker budget divided among the shards."""
    jobs = max(1, options.jobs // max(1, options.shards))
    return options.with_(shard_index=index, jobs=jobs)


def _shard_worker(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one shard.  Module-level and dict-in/dict-out so it pickles
    across the process pool unchanged."""
    from .campaign import run_campaign

    options = FuzzOptions.from_payload(payload["options"])
    report = run_campaign(options)
    return {
        "index": payload["index"],
        "stats": {flow: asdict(s) for flow, s in report.stats.items()},
        "divergences": [d.to_dict() for d in report.divergences],
        "coverage": report.coverage.to_dict(),
        "coverage_growth": list(report.coverage_growth),
        "cells_run": report.cells_run,
        "elapsed_s": report.elapsed_s,
        "budget_exhausted": report.budget_exhausted,
        "error": None,
    }


def _dead_shard(payload: Dict[str, object], failure) -> Dict[str, object]:
    """The outcome of a shard whose worker died (``failure`` None) or
    raised: no findings, and an error naming what happened."""
    return {
        "index": payload["index"],
        "stats": {},
        "divergences": [],
        "coverage": None,
        "coverage_growth": [],
        "cells_run": 0,
        "elapsed_s": 0.0,
        "budget_exhausted": False,
        "error": (
            "shard worker process died" if failure is None else repr(failure)
        ),
    }


def run_sharded(options: FuzzOptions):
    """Run every shard of ``options`` and fold the results into one
    :class:`~repro.fuzz.campaign.CampaignReport`.

    The fold visits shard outcomes in index order and uses only
    order-independent operations, so the merged report's signatures,
    stats, and coverage are identical however the shards were scheduled.
    """
    from .campaign import CampaignReport, FlowStats, compare_with_corpus
    from .coverage import CoverageMap

    started = time.monotonic()
    payloads = [
        {"index": index, "options": shard_options(options, index).to_payload()}
        for index in range(options.shards)
    ]
    # Always in workers, even on one core: a dying shard must not take
    # the orchestrating process with it.
    pool = WorkerPool(
        _shard_worker, _dead_shard,
        jobs=min(options.shards, os.cpu_count() or 1),
    )
    outcomes = pool.map(payloads)

    report = CampaignReport(options=options)
    merged: Dict[str, Divergence] = {}
    for outcome in outcomes:
        for flow, stats in outcome["stats"].items():
            aggregate = report.stats.setdefault(flow, FlowStats())
            for key, value in stats.items():
                setattr(aggregate, key, getattr(aggregate, key) + value)
        for data in outcome["divergences"]:
            divergence = Divergence.from_dict(data)
            merged.setdefault(divergence.signature().id, divergence)
        shard_coverage = None
        if outcome["coverage"]:
            shard_map = CoverageMap.from_dict(outcome["coverage"])
            report.coverage.merge(shard_map)
            shard_coverage = shard_map.summary()
        report.cells_run += outcome["cells_run"]
        report.budget_exhausted |= bool(outcome["budget_exhausted"])
        report.shard_reports.append({
            "index": outcome["index"],
            "cells_run": outcome["cells_run"],
            "divergences": len(outcome["divergences"]),
            "coverage": shard_coverage,
            "coverage_growth": list(outcome["coverage_growth"]),
            "elapsed_s": round(float(outcome["elapsed_s"]), 3),
            "budget_exhausted": bool(outcome["budget_exhausted"]),
            "error": outcome["error"],
        })
    report.divergences = [merged[sig] for sig in sorted(merged)]

    compare_with_corpus(report, options.corpus_path)
    report.elapsed_s = time.monotonic() - started
    return report


@dataclass
class MergeReport:
    """What :func:`merge_corpus_dirs` did, for the CLI and CI logs."""

    copied: List[str] = field(default_factory=list)      # written into dest
    identical: int = 0                                   # already there
    conflicts: List[str] = field(default_factory=list)   # tie-broken paths
    failed: List[str] = field(default_factory=list)      # OSError on read/write

    @property
    def changed(self) -> bool:
        return bool(self.copied)

    def summary(self) -> str:
        return (
            f"merged: {len(self.copied)} copied, {self.identical} identical, "
            f"{len(self.conflicts)} conflicts, {len(self.failed)} failed"
        )


def merge_corpus_dirs(sources: Sequence[Path], dest: Path) -> MergeReport:
    """Fold shard corpus deltas into ``dest``, idempotently.

    Entries are visited in sorted (source, relative-path) order.  An entry
    absent from ``dest`` is copied; a byte-identical one is counted and
    skipped (so merging a corpus into itself changes nothing); when the
    same relative path carries different bytes — between two sources or
    against ``dest`` — the lexicographically smaller byte string wins.
    The winner rule is symmetric and deterministic, which is what makes
    the merged corpus independent of shard execution order.

    Each entry is published through :func:`~repro.runner.cache.write_atomic`,
    so ``dest`` never holds a torn entry.  A file whose read or write
    raises ``OSError`` (a full disk, an I/O error) is listed in
    ``failed`` by its path and skipped; the rest of the merge goes on, and
    a failed write leaves the old target bytes in place.
    """
    dest = Path(dest)
    report = MergeReport()
    conflicts = set()

    candidates: Dict[str, bytes] = {}
    for source in sorted(Path(s) for s in sources):
        if not source.is_dir():
            continue
        for path in sorted(source.glob("*/*.json")):
            rel = path.relative_to(source).as_posix()
            try:
                data = path.read_bytes()
            except OSError:
                report.failed.append(str(path))
                continue
            if rel not in candidates:
                candidates[rel] = data
            elif candidates[rel] != data:
                conflicts.add(rel)
                candidates[rel] = min(candidates[rel], data)

    for rel in sorted(candidates):
        target = dest / rel
        data = candidates[rel]
        try:
            if target.exists():
                existing = target.read_bytes()
                if existing == data:
                    report.identical += 1
                    continue
                conflicts.add(rel)
                if data >= existing:
                    report.identical += 1
                    continue
            write_atomic(target, data)
        except OSError:
            report.failed.append(str(target))
            continue
        report.copied.append(rel)

    report.conflicts = sorted(conflicts)
    return report


__all__ = [
    "MergeReport",
    "assign_shard",
    "merge_corpus_dirs",
    "mix",
    "run_sharded",
    "shard_options",
]
