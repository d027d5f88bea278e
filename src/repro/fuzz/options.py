"""``FuzzOptions`` — the frozen option set behind ``run_campaign``.

This module gives fuzzing the same facade :class:`repro.api.SynthesisOptions`
gave synthesis: one frozen dataclass that ``repro fuzz``'s flags fill in
(``max_cycles`` alone has no flag), with ``make``/``with_`` builders, a
JSON-stable :meth:`identity`, and a payload round-trip so campaign shards
can ship their exact option set across process boundaries.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Default on-disk corpus root, mirrored from :mod:`.corpus`.
DEFAULT_CORPUS = str(Path("tests") / "corpus")


@dataclass(frozen=True)
class FuzzOptions:
    """Everything that selects *what* a fuzz campaign runs.

    Fields
    ------
    flows:
        Flow keys to target (None = every compilable flow).
    profiles:
        Restrict clean-side generation to these grammar profiles
        (empty = every profile the flow's mask allows).
    seeds:
        Program budget per flow: the number of programs scheduled, not a
        literal seed range.  After a bootstrap pass the scheduler mints
        fresh seeds from the coverage pool.
    seed_base:
        First base seed (campaigns are pure in their seeds).
    campaign_seed:
        Root of every derived random stream — pool selection, minted
        child seeds, and the shard split are all functions of it.
    jobs:
        Engine worker processes per (shard of the) campaign.
    time_budget_s:
        Stop scheduling new work after this many seconds (0 = none).
    reduce:
        Delta-debug each deduplicated divergence to a 1-minimal
        reproducer.
    mutations:
        Base metamorphic mutants per clean program; the power scheduler
        may add more for high-novelty parents.
    timeout_s / max_cycles:
        Per-cell wall-clock deadline and simulation bound.
    cache_dir:
        Artifact cache directory ("" = caching off).  Shards share it:
        the cache's content addressing makes concurrent reuse safe.
    corpus_dir:
        The triaged corpus compared against (and promoted into).
    sim_backend:
        FSMD engine for every cell, one of ``repro.api.SIM_BACKENDS``
        (any other value raises :class:`ValueError`).
    input_lanes:
        Argument sets simulated per clean program; the runner compiles
        the program once and runs the sets as lanes of it.
    opt_levels:
        Cross-level mode: extra opt_levels each clean program also runs
        at, divergences triaged as ``opt-diverge``.
    shards / shard_index:
        Deterministic campaign split.  ``shards > 1`` with
        ``shard_index=None`` orchestrates every shard in subprocesses
        and merges; with an index set, only that shard's slice runs
        (the CI matrix mode).  The slice is a pure function of
        (campaign_seed, shard_index) — never of execution order.
    shard_dir:
        Where ``--update-corpus`` writes this shard's *new* findings
        ("" = straight into ``corpus_dir``); the merge step folds shard
        dirs back into the corpus idempotently.
    """

    flows: Optional[Tuple[str, ...]] = None
    profiles: Tuple[str, ...] = ()
    seeds: int = 100
    seed_base: int = 0
    campaign_seed: int = 0
    jobs: int = 1
    time_budget_s: float = 0.0
    reduce: bool = True
    mutations: int = 2
    timeout_s: float = 20.0
    max_cycles: int = 200_000
    cache_dir: str = ""
    corpus_dir: str = DEFAULT_CORPUS
    sim_backend: str = "interp"
    input_lanes: int = 1
    opt_levels: Tuple[int, ...] = ()
    shards: int = 1
    shard_index: Optional[int] = None
    shard_dir: str = ""

    def __post_init__(self) -> None:
        self.cell_options()  # refuses an unknown sim_backend

    def cell_options(self):
        """The :class:`repro.api.SynthesisOptions` every campaign cell
        starts from; each cell sets its flow, and cross-level cells their
        opt_level."""
        from ..api import SynthesisOptions

        return SynthesisOptions(sim_backend=self.sim_backend)

    @classmethod
    def make(cls, base: Optional["FuzzOptions"] = None,
             **kwargs) -> "FuzzOptions":
        """Build options from a base plus keyword overrides, normalizing
        the shapes the CLI hands over: lists become
        tuples, paths become strings, None stays None where it means
        "default"."""
        base = base if base is not None else cls()
        update: Dict[str, object] = {}
        names = {f.name for f in fields(cls)}
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError(f"FuzzOptions has no field {key!r}")
            update[key] = _normalize(key, value)
        return replace(base, **update) if update else base

    def with_(self, **kwargs) -> "FuzzOptions":
        """A copy with field overrides (frozen-friendly)."""
        return FuzzOptions.make(self, **kwargs)

    # -- derived paths ----------------------------------------------------

    @property
    def cache_path(self) -> Optional[Path]:
        return Path(self.cache_dir) if self.cache_dir else None

    @property
    def corpus_path(self) -> Path:
        return Path(self.corpus_dir or DEFAULT_CORPUS)

    @property
    def promote_path(self) -> Path:
        """Where new findings are written: the shard delta dir when set,
        else the corpus itself."""
        return Path(self.shard_dir) if self.shard_dir else self.corpus_path

    # -- serialization ----------------------------------------------------

    def identity(self) -> Dict[str, object]:
        """The canonical JSON-stable content of the options — what the
        report schema records and shard workers receive.  Everything is
        identity here: unlike synthesis, a campaign's *work list* depends
        on every field (jobs and cache_dir steer scheduling pressure only
        through the time budget, but recording them keeps reports
        honest)."""
        data = asdict(self)
        data["flows"] = list(self.flows) if self.flows is not None else None
        data["profiles"] = list(self.profiles)
        data["opt_levels"] = list(self.opt_levels)
        return data

    def to_payload(self) -> Dict[str, object]:
        """A dict that survives pickling/JSON and rebuilds exactly."""
        return self.identity()

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "FuzzOptions":
        names = {f.name for f in fields(cls)}
        return cls.make(**{k: v for k, v in payload.items() if k in names})


def _normalize(key: str, value):
    if value is None:
        return None
    if key in ("cache_dir", "corpus_dir", "shard_dir"):
        return str(value)
    if key in ("flows", "profiles"):
        return tuple(str(v) for v in value)
    if key == "opt_levels":
        return tuple(int(v) for v in value)
    return value


__all__ = ["FuzzOptions"]
