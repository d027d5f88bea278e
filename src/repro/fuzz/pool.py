"""The seed pool: novelty-scored parents with power scheduling.

In coverage-guided mode every executed program becomes a pool entry
scored by how many *new* coverage buckets it opened.  The scheduler
draws parents energy-weighted (AFL-style power scheduling: a parent that
just found novel coverage gets mutated and varied more), and each
selection decays the winner's energy so no single seed monopolises the
campaign — pressure moves with the coverage frontier.

Everything is deterministic: selection consumes a ``random.Random``
stream the campaign derives from ``(campaign_seed, shard_index, flow)``,
and entries are kept in insertion order, so the same options replay the
same schedule bucket for bucket.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Energy decay applied to a parent on each selection.
DECAY = 0.5
#: Floor below which a parent effectively leaves the rotation.
MIN_ENERGY = 0.05


@dataclass
class PoolEntry:
    """One executed program the scheduler may derive children from."""

    key: str                  # unique id, e.g. "flow:profile:seed"
    flow: str
    profile: str
    seed: int
    statements: int           # generation size parameter used
    new_buckets: int = 0      # novelty at (last) execution
    energy: float = 1.0
    selections: int = 0
    children: int = 0

    def mutation_bonus(self, cap: int = 2) -> int:
        """Extra metamorphic mutants this parent's children earn: one
        per four novel buckets, capped — the power-scheduling half that
        spends cells, not just selection probability."""
        return min(cap, self.new_buckets // 4)


@dataclass
class SeedPool:
    """Energy-weighted parent store for one campaign (or shard)."""

    entries: List[PoolEntry] = field(default_factory=list)
    _index: Dict[str, PoolEntry] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: PoolEntry) -> PoolEntry:
        """Insert (or update-and-return) an entry; energy starts at
        ``1 + new_buckets`` so novel parents dominate early draws."""
        existing = self._index.get(entry.key)
        if existing is not None:
            existing.new_buckets = max(existing.new_buckets, entry.new_buckets)
            return existing
        entry.energy = 1.0 + float(entry.new_buckets)
        self.entries.append(entry)
        self._index[entry.key] = entry
        return entry

    def total_energy(self) -> float:
        return sum(e.energy for e in self.entries)

    def select(self, rng: random.Random) -> Optional[PoolEntry]:
        """Energy-weighted draw; decays the winner.  Deterministic given
        the rng state and insertion order."""
        if not self.entries:
            return None
        total = self.total_energy()
        if total <= 0:
            choice = self.entries[rng.randrange(len(self.entries))]
        else:
            point = rng.random() * total
            running = 0.0
            choice = self.entries[-1]
            for entry in self.entries:
                running += entry.energy
                if point <= running:
                    choice = entry
                    break
        choice.selections += 1
        choice.energy = max(MIN_ENERGY, choice.energy * DECAY)
        return choice

    def hottest(self, top: int = 5) -> List[PoolEntry]:
        """The most-novel entries (report/debug surface)."""
        ranked = sorted(
            self.entries, key=lambda e: (-e.new_buckets, e.key)
        )
        return ranked[:top]


__all__ = ["DECAY", "MIN_ENERGY", "PoolEntry", "SeedPool"]
