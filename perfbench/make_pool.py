"""Regenerate ``perfbench/pool.json``, the pinned instances of ``cli-batch``.

The ``cli-batch`` workload draws its CLI calls from this pool with the
run's seed. Every entry carries the counters the sequential solver
reports for it, so each call in the batch is checked against a pinned
count. Entries small enough for the brute-force oracle were also solved
by the oracle here, and the script stops if the two disagree.

Usage, from the repository root (takes a few minutes)::

    python3 perfbench/make_pool.py
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from packlat.grid import GridSpec, Position  # noqa: E402
from packlat.oracle import enumerate_feasible, packing_chromatic_number  # noqa: E402
from packlat.search import (  # noqa: E402
    SAT,
    UNSAT,
    UnitOutcome,
    merge_outcomes,
    solve,
    solve_unit,
    split,
)

CAP = 200_000            # largest search kept (about 0.3 s at the seed's rate)
SMALL = 5_000            # "small" solves: startup dominates their latency
MEDIUM = (20_000, CAP)   # the balancing solves that fix a batch's node total
ORACLE_LIMIT = 400_000   # k ** free_cells at or below this is cross-checked
PIPELINE_UNITS = 4
ANCHORED_CANDIDATES = 1500
KEEP = {"sat_small": 150, "unsat_small": 60, "unsat_medium": 80, "pipeline": 30,
        "oracle_sat": 40, "oracle_unsat": 40}
CHI_WINDOWS = [(1, 2), (1, 3), (1, 5), (1, 8), (2, 2), (2, 3), (3, 2),
               (2, 4), (4, 2), (3, 3), (2, 5), (5, 2)]


def grid_entry(grid: GridSpec) -> dict:
    anchor = None
    if grid.anchors:
        (pos, color), = grid.anchors
        anchor = [pos.col, pos.row, color]
    return {"w": grid.width, "h": grid.height, "k": grid.max_color, "anchor": anchor}


def candidates() -> list[GridSpec]:
    """Every plain window of 3..8 by 3..8 cells, plus random one-anchor ones."""
    grids = [GridSpec(w, h, k)
             for w in range(3, 9) for h in range(3, 9) for k in range(3, 11)]
    rng = random.Random(2010)
    seen = set()
    while len(seen) < ANCHORED_CANDIDATES:
        w, h, k = rng.randint(3, 8), rng.randint(3, 8), rng.randint(3, 10)
        key = (w, h, k, rng.randint(1, w), rng.randint(1, h), rng.randint(1, k))
        if key not in seen:
            seen.add(key)
            grids.append(GridSpec(w, h, k, ((Position(key[3], key[4]), key[5]),)))
    rng.shuffle(grids)
    return grids


def oracle_candidates() -> list[GridSpec]:
    """3x3 windows with k=3..5 and 3x4 windows with k=3, plain or with one anchor."""
    shapes = [(3, 3, k) for k in (3, 4, 5)] + [(3, 4, 3), (4, 3, 3)]
    grids = []
    for w, h, k in shapes:
        grids.append(GridSpec(w, h, k))
        grids += [GridSpec(w, h, k, ((Position(col, row), color),))
                  for col in range(1, w + 1) for row in range(1, h + 1)
                  for color in range(1, k + 1)]
    random.Random(2010).shuffle(grids)
    return [g for g in grids if g.max_color ** (g.n_cells - len(g.anchors)) <= ORACLE_LIMIT]


def oracle_checked(grid: GridSpec, status: str) -> bool:
    free = grid.n_cells - len(grid.anchors)
    if grid.max_color ** free > ORACLE_LIMIT:
        return False
    if enumerate_feasible(grid).sat != (status == SAT):
        raise SystemExit(f"solver and oracle disagree on {grid}")
    return True


def pipeline_entry(grid: GridSpec, nodes: int) -> dict | None:
    """A split depth with exactly PIPELINE_UNITS units, and its unit counts."""
    for depth in range(1, 7):
        result = split(grid, depth)
        if len(result.units) != PIPELINE_UNITS:
            continue
        outcomes = []
        for unit in result.units:
            r = solve_unit(unit)
            outcomes.append(UnitOutcome(unit.prefix, r.status, r.stats.nodes, r.coloring))
        status, _, sequential, _ = merge_outcomes(result, outcomes)
        if sequential != nodes:
            raise SystemExit(f"merge reconstructs {sequential} != {nodes} on {grid}")
        return {
            "grid": grid_entry(grid),
            "depth": depth,
            "status": status,
            "sequential_nodes": sequential,
            "unit_nodes": [o.nodes for o in outcomes],
            "unit_status": [o.status for o in outcomes],
        }
    return None


def chi_entry(width: int, height: int) -> dict:
    chi = packing_chromatic_number(width, height, 6)
    if solve(GridSpec(width, height, chi)).status != SAT or (
        chi > 1 and solve(GridSpec(width, height, chi - 1)).status != UNSAT
    ):
        raise SystemExit(f"solver disagrees with the oracle's chi on {width}x{height}")
    return {"w": width, "h": height, "chi": chi}


def main() -> None:
    classes: dict[str, list] = {name: [] for name in KEEP}
    for grid in candidates():
        r = solve(grid, suspend_at=CAP + 1)
        if r.status not in (SAT, UNSAT):
            continue
        entry = dict(grid_entry(grid), status=r.status, **r.stats.counters())
        nodes = r.stats.nodes
        if nodes <= SMALL:
            name = "sat_small" if r.status == SAT else "unsat_small"
        elif r.status == UNSAT and MEDIUM[0] <= nodes <= MEDIUM[1]:
            name = "unsat_medium"
        else:
            name = None
        if name and len(classes[name]) < KEEP[name]:
            entry["oracle"] = oracle_checked(grid, r.status)
            classes[name].append(entry)
        if 500 <= nodes <= 20_000 and len(classes["pipeline"]) < KEEP["pipeline"]:
            pipe = pipeline_entry(grid, nodes)
            if pipe is not None:
                classes["pipeline"].append(pipe)
    for grid in oracle_candidates():
        r = solve(grid)
        name = "oracle_sat" if r.status == SAT else "oracle_unsat"
        if len(classes[name]) < KEEP[name] and oracle_checked(grid, r.status):
            classes[name].append(dict(grid_entry(grid), status=r.status, oracle=True,
                                      **r.stats.counters()))
    classes["chi"] = [chi_entry(w, h) for w, h in CHI_WINDOWS]
    sums = {a["nodes"] + b["nodes"] for a, b in combinations(classes["unsat_medium"], 2)}
    print({name: len(items) for name, items in classes.items()},
          f"{len(sums)} distinct balancing sums", file=sys.stderr)
    (HERE / "pool.json").write_text(pool_text(classes), encoding="utf-8")


def pool_text(classes: dict) -> str:
    """JSON with one entry per line, so a regenerated pool diffs line by line."""
    blocks = []
    for name in sorted(classes):
        entries = ",\n".join("  " + json.dumps(e, sort_keys=True) for e in classes[name])
        blocks.append(f' "{name}": [\n{entries}\n ]')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    main()
