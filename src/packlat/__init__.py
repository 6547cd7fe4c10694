"""Exact search and verification for packing colorings of lattice windows.

A packing k-coloring partitions cells into classes 1..k where two cells
of color c must sit at distance greater than c. This package solves and
certifies such colorings on finite rectangular windows of the square
lattice: a deterministic backtracking solver with exact node accounting,
an independent brute-force oracle for desk-scale cross-checks, work
splitting for parallel runs, checkpoint/resume, and renderers.

The public names below are imported from their modules on first access
(PEP 562), so ``import packlat`` loads no submodule.
"""

__version__ = "0.1.0"

_MODULE_OF = {
    "Violation": "coloring", "verify": "coloring",
    "CorruptCheckpoint": "errors", "CorruptUnit": "errors", "MalformedInput": "errors",
    "PacklatError": "errors", "TooLarge": "errors", "VersionMismatch": "errors",
    "GridSpec": "grid", "Position": "grid", "distance": "grid",
    "OracleResult": "oracle", "enumerate_feasible": "oracle",
    "packing_chromatic_number": "oracle",
    "INTERRUPTED": "search", "SAT": "search", "UNSAT": "search", "Checkpoint": "search",
    "SearchStats": "search", "SolveResult": "search", "SplitResult": "search",
    "WorkUnit": "search", "merge_outcomes": "search", "resume": "search", "solve": "search",
    "solve_parallel": "search", "solve_unit": "search", "split": "search",
}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
