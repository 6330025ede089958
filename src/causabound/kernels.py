"""Name of the grid-scan implementation, kept for the benchmark's provenance line.

The grid scan itself lives in `oracle.grid_scan_bounds` and evaluates the
corner search's own objective; nothing in the package imports this module.
"""

from __future__ import annotations


def backend_name() -> str:
    """Which implementation is live; there is one, in plain Python."""
    return "python"
