"""Lightweight simulation profiler.

Both FSMD backends can fill a :class:`SimProfile` while they run: how long
the one-time specialisation took (compiled backend only), how long the
cycle loop took, and how many cycles each machine spent in each state.
The histogram is the tool for answering "where do my cycles go?" — a hot
inner-loop state dominating the visit counts is the state to pipeline or
to move to a faster flow.

Visits are counted identically by both backends (every running machine's
current state is counted once per cycle, stalls included), so a profile is
also a cheap cross-check: interp and compiled runs of the same design must
produce the same histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class SimProfile:
    """Filled in by ``simulate(..., profile=SimProfile())``."""

    backend: str = ""            # the engine that ran: "interp" or "compiled"
    compile_s: float = 0.0       # plan specialisation this run paid (compiled only)
    execute_s: float = 0.0       # wall time of the cycle loop
    cycles: int = 0              # root machine's finish cycle
    # machine name -> state label -> cycles spent in that state.
    state_visits: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def visit(self, machine: str, label: str, count: int = 1) -> None:
        per_state = self.state_visits.setdefault(machine, {})
        per_state[label] = per_state.get(label, 0) + count

    @property
    def cycles_per_sec(self) -> float:
        return self.cycles / self.execute_s if self.execute_s > 0 else 0.0

    def hottest(self, top: int = 8) -> List[Tuple[str, str, int]]:
        """The ``top`` most-visited (machine, state label, visits) triples."""
        rows = [
            (machine, label, visits)
            for machine, per_state in self.state_visits.items()
            for label, visits in per_state.items()
        ]
        rows.sort(key=lambda row: (-row[2], row[0], row[1]))
        return rows[:top]

    def coverage_stats(self, top: int = 8) -> Dict[str, object]:
        """The deterministic summary the fuzz coverage signal buckets:
        machine count, total state count, and the top visit counts in
        rank order.  Ranks rather than state names, so two unrelated
        programs with the same hot-loop shape land in the same buckets —
        which is exactly what makes the buckets comparable."""
        return {
            "machines": len(self.state_visits),
            "states": sum(len(per) for per in self.state_visits.values()),
            "visits": [visits for _, _, visits in self.hottest(top)],
        }

    def render(self, top: int = 8) -> str:
        """Human-readable block: totals first, then the hot states."""
        lines = [
            f"backend:      {self.backend}",
            f"compile:      {self.compile_s * 1e3:.2f} ms",
            f"execute:      {self.execute_s * 1e3:.2f} ms",
            f"cycles:       {self.cycles}",
            f"cycles/sec:   {self.cycles_per_sec:,.0f}",
        ]
        hot = self.hottest(top)
        if hot:
            lines.append("hot states:")
            width = max(len(f"{m}/{s}") for m, s, _ in hot)
            total = sum(
                v for per in self.state_visits.values() for v in per.values()
            )
            for machine, label, visits in hot:
                share = 100.0 * visits / total if total else 0.0
                lines.append(
                    f"  {f'{machine}/{label}':<{width}}  "
                    f"{visits:>10}  {share:5.1f}%"
                )
        return "\n".join(lines)
