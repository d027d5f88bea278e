"""Shared pieces of the benchmark: the workload interface, seeded input
perturbation, latency statistics, per-layer trace accounting and the
result line the driver reads."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

# Pipeline phases reported per layer, per compile.  Both workloads
# compile through scheduled FSMD flows, so each of these phases does work
# on both.
PHASES = ("parse", "semantic", "inline", "cdfg", "passes", "schedule",
          "bind", "emit")

# Integer literals inside a global initializer list: ``= { 3, 1, 4 }``.
# Function bodies never follow ``=``, so only data changes, never code.
_INITIALIZER = re.compile(r"=\s*\{([^{}]*)\}")
_LITERAL = re.compile(r"-?\b(?:0[xX][0-9a-fA-F]+|\d+)\b")


def perturb_initializers(source: str, rng) -> str:
    """``source`` with every constant of every array initializer redrawn
    from ``rng`` (0..99).  Control flow, loop bounds and types stay as
    written, so a compile does the same kind of work on new data, and no
    two seeds give the compiler the same program text."""
    def redraw(match) -> str:
        body = _LITERAL.sub(lambda _: str(rng.randint(0, 99)), match.group(1))
        return "= {" + body + "}"

    return _INITIALIZER.sub(redraw, source)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Bench:
    """One workload.  The runner calls, in order: ``prepare`` (benchmark
    inputs and reference answers, untimed), ``setup`` (bring the system
    under test to ready; timed as ``setup_s``), ``run`` (the measured
    loop), ``check`` (output correctness, untimed), ``layers`` (traced
    runs only) and, always, ``close``."""

    def __init__(self, seed: int, work_dir: Path, trace: bool):
        self.seed = seed
        self.work_dir = work_dir
        self.trace = trace
        self.latencies_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.ledger = LayerLedger()

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def run(self, seconds: float) -> None:
        raise NotImplementedError

    def check(self) -> bool:
        return True

    def layers(self) -> Dict[str, Tuple[float, str]]:
        return self.ledger.metrics()

    def close(self) -> None:
        pass

    def record(self, latency_s: float, ok: bool) -> None:
        self.latencies_s.append(latency_s)
        self.attempted += 1
        if not ok:
            self.failed += 1

    def end_to_end(self, setup_s: float) -> Dict[str, Tuple[float, str]]:
        return {
            "latency_p50_ms": (percentile(self.latencies_s, 50) * 1e3, "ms"),
            "latency_p90_ms": (percentile(self.latencies_s, 90) * 1e3, "ms"),
            "throughput_ops_per_s": (self.attempted / self.wall_s, "1/s"),
            "setup_s": (setup_s, "s"),
        }


class LayerLedger:
    """Per-layer totals accumulated from serialized traces
    (``TraceContext.to_dict()``, the form cell results and cache entries
    carry).  A phase's self time is its span minus the nearest nested
    phase spans, so no microsecond is charged to two layers."""

    def __init__(self):
        self.phase_us: Dict[str, float] = {name: 0.0 for name in PHASES}
        self.compiles = 0
        self.sim_us = 0.0
        self.sim_runs = 0
        self.specialise_us = 0.0
        self.execute_us = 0.0
        self.fsmd_runs = 0
        self.sim_cycles = 0

    def add(self, trace_dict) -> None:
        for span in (trace_dict or {}).get("spans", ()):
            self._walk(span)

    def _walk(self, span) -> None:
        name = span.get("name", "")
        children = span.get("children", ())
        dur = float(span.get("dur_us", 0.0))
        if span.get("cat") == "phase":
            nested = sum(float(s.get("dur_us", 0.0))
                         for s in _nearest_phases(children))
            if name == "parse":
                self.compiles += 1
            if name in self.phase_us:
                self.phase_us[name] += dur - nested
            elif name == "sim":
                self.sim_us += dur - nested
                self.sim_runs += 1
        elif name == "sim.compile":
            self.specialise_us += dur
        elif name == "sim.execute":
            self.execute_us += dur
            self.fsmd_runs += 1
            self.sim_cycles += int((span.get("args") or {}).get("cycles", 0))
        for child in children:
            self._walk(child)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        compiles = max(1, self.compiles)
        fsmd_runs = max(1, self.fsmd_runs)
        out: Dict[str, Tuple[float, str]] = {
            f"{name}_ms": (self.phase_us[name] / compiles / 1e3, "ms")
            for name in PHASES
        }
        out["sim_ms"] = (self.sim_us / max(1, self.sim_runs) / 1e3, "ms")
        out["sim_specialise_ms"] = (self.specialise_us / fsmd_runs / 1e3, "ms")
        out["sim_execute_ms"] = (self.execute_us / fsmd_runs / 1e3, "ms")
        out["sim_cycles_per_s"] = (
            self.sim_cycles / (self.execute_us / 1e6)
            if self.execute_us > 0 else 0.0,
            "1/s",
        )
        return out


def _nearest_phases(spans) -> Iterable[dict]:
    for span in spans:
        if span.get("cat") == "phase":
            yield span
        else:
            yield from _nearest_phases(span.get("children", ()))


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })
