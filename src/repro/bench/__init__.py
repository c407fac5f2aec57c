"""Experiment harness of the paper-figure benches: sweep runner + result reporting."""

from .reporting import format_curve, format_table, save_records
from .runners import ConvergenceSweep, history_row, run_convergence_sweep
from .timing import time_best

__all__ = [
    "format_table",
    "format_curve",
    "save_records",
    "ConvergenceSweep",
    "run_convergence_sweep",
    "history_row",
    "time_best",
]
