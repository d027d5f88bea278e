"""Plain-text tables and series, matching how the paper reports results."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    for row in materialized:
        out.append(line(row))
    return "\n".join(out)


def format_series(
    name: str,
    points: Sequence[tuple],
    x_label: str = "x",
    y_label: str = "y",
    width: int = 40,
) -> str:
    """A series with an ASCII bar per point — the 'figure' form for
    terminals.  Bars scale to the maximum y."""
    out = [f"{name}  ({x_label} -> {y_label})"]
    values = [float(y) for _, y in points]
    top = max(values) if values else 1.0
    top = top if top > 0 else 1.0
    for (x, y) in points:
        bar = "#" * max(1, int(round(width * float(y) / top))) if y else ""
        out.append(f"  {str(x):>10}  {float(y):>10.3f}  {bar}")
    return "\n".join(out)


def format_cell_results(
    results: Sequence,
    title: Optional[str] = None,
    show_workload: bool = True,
) -> str:
    """Render matrix-runner :class:`~repro.runner.CellResult`s as the
    standard sweep table (used by ``repro matrix``, ``repro sweep``, and
    the T2 benchmark so every consumer prints the same shape)."""
    headers = ["flow", "verdict", "cycles", "latency(ns)", "area(GE)",
               "time(ms)", "src", "note"]
    if show_workload:
        headers.insert(0, "workload")
    rows: List[List[object]] = []
    for cell in results:
        if cell.verdict == "ok":
            cycles = cell.cycles if cell.clock_ns > 0 else "-"
            latency = f"{cell.latency_ns:.0f}"
            area = f"{cell.area_ge:.0f}"
        else:
            cycles = latency = area = "-"
        row: List[object] = [
            cell.flow, cell.verdict, cycles, latency, area,
            f"{cell.wall_s * 1000:.1f}",
            "cache" if cell.cached else "fresh",
            cell.note(),
        ]
        if show_workload:
            row.insert(0, cell.workload)
        rows.append(row)
    return format_table(headers, rows, title=title)


def summarize_cells(results: Sequence) -> Dict[str, object]:
    """Counts and totals for a sweep's footer line."""
    verdicts: Dict[str, int] = {}
    for cell in results:
        verdicts[cell.verdict] = verdicts.get(cell.verdict, 0) + 1
    return {
        "cells": len(results),
        "verdicts": verdicts,
        "cached": sum(1 for c in results if c.cached),
        "fresh": sum(1 for c in results if not c.cached),
        "wall_s": sum(c.wall_s for c in results),
        "unexpected": sum(1 for c in results if c.unexpected),
    }


def format_trace_summary(
    results: Sequence, title: Optional[str] = None
) -> str:
    """Per-flow × per-phase wall-time table (milliseconds) aggregated from
    each cell's trace (``repro matrix --trace-summary``).

    Rows are flows, columns the canonical pipeline phases present in any
    trace, plus a total; cells without traces contribute nothing (their
    flow still appears, with dashes, so coverage gaps are visible)."""
    from ..trace import merge_phase_totals, sorted_phases

    by_flow: Dict[str, List[Optional[Dict[str, object]]]] = {}
    for cell in results:
        by_flow.setdefault(cell.flow, []).append(getattr(cell, "trace", None))
    totals = {
        flow: merge_phase_totals(traces) for flow, traces in by_flow.items()
    }
    phases = sorted_phases({p for t in totals.values() for p in t})
    headers = ["flow"] + [f"{p}(ms)" for p in phases] + ["total(ms)", "cells"]
    rows: List[List[object]] = []
    for flow in sorted(by_flow):
        phase_us = totals[flow]
        row: List[object] = [flow]
        for phase in phases:
            value = phase_us.get(phase)
            row.append(f"{value / 1000:.2f}" if value is not None else "-")
        row.append(f"{sum(phase_us.values()) / 1000:.2f}")
        row.append(len(by_flow[flow]))
        rows.append(row)
    return format_table(headers, rows, title=title)
