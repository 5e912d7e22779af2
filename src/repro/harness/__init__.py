"""Benchmark harness: grid runner, Pareto fronts, figure regeneration."""

from .drift import DriftReport, StageDrift, drift_check
from .features import TABLE3_EXPECTED, feature_matrix, render_table3
from .figures import FIGURES, FigureData, FigureSpec, Variant, clear_cache, figure_data
from .pareto import ParetoPoint, is_dominated, pareto_front
from .report import render_figure, render_table1, render_table2
from .takeaways import ClaimResult, takeaway1, takeaway2, takeaway3
from .runner import (
    PAPER_BOUNDS,
    AggregateRow,
    CellResult,
    aggregate,
    run_cell,
    run_grid,
)

__all__ = [
    "DriftReport",
    "StageDrift",
    "drift_check",
    "feature_matrix",
    "render_table3",
    "TABLE3_EXPECTED",
    "FIGURES",
    "FigureSpec",
    "FigureData",
    "Variant",
    "figure_data",
    "clear_cache",
    "ParetoPoint",
    "pareto_front",
    "is_dominated",
    "render_figure",
    "render_table1",
    "render_table2",
    "PAPER_BOUNDS",
    "CellResult",
    "AggregateRow",
    "run_cell",
    "run_grid",
    "aggregate",
    "ClaimResult",
    "takeaway1",
    "takeaway2",
    "takeaway3",
]
