"""Brute-force ground truth for tiny windows.

Deliberately shares no machinery with the solver or the verifier: cell
distances come from breadth-first search over the window's 4-neighbor
graph (not the closed form), and feasibility is the definitional
all-pairs test with no pruning. Exponential by design; a size guard
refuses anything that is not desk scale.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import NamedTuple

from packlat.errors import TooLarge
from packlat.grid import GridSpec

SIZE_GUARD = 10**8


class OracleResult(NamedTuple):
    sat: bool
    witness: list[list[int]] | None
    total_assignments_examined: int


def bfs_distances(width: int, height: int) -> list[list[int]]:
    """All-pairs distances in the window graph, by BFS from every cell."""
    n = width * height
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        col, row = i % width, i // width
        if col > 0:
            neighbors[i].append(i - 1)
        if col < width - 1:
            neighbors[i].append(i + 1)
        if row > 0:
            neighbors[i].append(i - width)
        if row < height - 1:
            neighbors[i].append(i + width)
    dist = [[-1] * n for _ in range(n)]
    for source in range(n):
        row = dist[source]
        row[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
    return dist


def _guard(grid: GridSpec) -> None:
    # base 2 at budget 1 too: the distance table and the pair list grow with cells squared
    if max(grid.max_color, 2) ** grid.n_cells > SIZE_GUARD:
        raise TooLarge(
            f"{grid.n_cells} cells at budget {grid.max_color} exceed the "
            f"{SIZE_GUARD:.0e} oracle guard"
        )


def enumerate_feasible(grid: GridSpec) -> OracleResult:
    """Try every assignment of colors to cells, respecting anchors.

    Returns the lexicographically first (in scan order, colors ascending)
    complete coloring that satisfies the packing rule, or unsat after
    examining them all.
    """
    _guard(grid)
    n = grid.n_cells
    k = grid.max_color
    dist = bfs_distances(grid.width, grid.height)
    colors = [0] * n
    for pos, color in grid.anchors:
        colors[grid.index_of(pos)] = color
    free = [i for i in range(n) if colors[i] == 0]
    # near pairs first: most bad assignments die on a short-distance pair
    pairs = sorted(
        ((i, j, dist[i][j]) for i in range(n) for j in range(i + 1, n)),
        key=lambda t: t[2],
    )
    examined = 0
    for combo in itertools.product(range(1, k + 1), repeat=len(free)):
        for cell, color in zip(free, combo):
            colors[cell] = color
        examined += 1
        ok = True
        for i, j, d in pairs:
            if colors[i] == colors[j] and d <= colors[i]:
                ok = False
                break
        if ok:
            width = grid.width
            rows = [colors[r * width:(r + 1) * width] for r in range(grid.height)]
            return OracleResult(sat=True, witness=rows, total_assignments_examined=examined)
    return OracleResult(sat=False, witness=None, total_assignments_examined=examined)


def packing_chromatic_number(width: int, height: int, cap: int) -> int | None:
    """Smallest color budget that admits a packing coloring, up to cap.

    None means every budget up to the cap is infeasible.
    """
    for k in range(1, cap + 1):
        if enumerate_feasible(GridSpec(width, height, k)).sat:
            return k
    return None
