"""Result formatting for experiments and benchmarks."""

from .tables import (
    format_cell_results,
    format_series,
    format_table,
    format_trace_summary,
    summarize_cells,
)

__all__ = [
    "format_cell_results",
    "format_series",
    "format_table",
    "format_trace_summary",
    "summarize_cells",
]
