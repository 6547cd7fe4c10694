"""Exact search and verification for packing colorings of lattice windows.

A packing k-coloring partitions cells into classes 1..k where two cells
of color c must sit at distance greater than c. This package solves and
certifies such colorings on finite rectangular windows of the square
lattice: a deterministic backtracking solver with exact node accounting,
an independent brute-force oracle for desk-scale cross-checks, work
splitting for parallel runs, checkpoint/resume, and renderers.
"""

__version__ = "0.1.0"

from packlat.coloring import Violation, verify
from packlat.errors import (
    CorruptCheckpoint,
    CorruptUnit,
    MalformedInput,
    PacklatError,
    TooLarge,
    VersionMismatch,
)
from packlat.grid import GridSpec, Position, distance
from packlat.oracle import OracleResult, enumerate_feasible, packing_chromatic_number
from packlat.search import (
    INTERRUPTED,
    SAT,
    UNSAT,
    Checkpoint,
    SearchStats,
    SolveResult,
    SplitResult,
    WorkUnit,
    merge_outcomes,
    resume,
    solve,
    solve_parallel,
    solve_unit,
    split,
)

__all__ = [
    "__version__",
    "Violation", "verify",
    "CorruptCheckpoint", "CorruptUnit", "MalformedInput", "PacklatError",
    "TooLarge", "VersionMismatch",
    "GridSpec", "Position", "distance",
    "OracleResult", "enumerate_feasible", "packing_chromatic_number",
    "INTERRUPTED", "SAT", "UNSAT", "Checkpoint", "SearchStats", "SolveResult",
    "SplitResult", "WorkUnit", "merge_outcomes", "resume", "solve",
    "solve_parallel", "solve_unit", "split",
]
