"""Analyses behind the paper's tables and figures beyond the grid metrics."""

from repro.analysis.report import ascii_table, format_ratio, render_histogram
from repro.analysis.thrashing import ThrashingProfile, thrashing_analysis
from repro.analysis.sweeps import BufferSweepPoint, buffer_sensitivity

__all__ = [
    "ascii_table",
    "format_ratio",
    "render_histogram",
    "ThrashingProfile",
    "thrashing_analysis",
    "BufferSweepPoint",
    "buffer_sensitivity",
]
