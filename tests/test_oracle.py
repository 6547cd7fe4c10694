"""Brute-force oracle: examples, independence checks, exact small values."""

import itertools

import pytest

from packlat.errors import TooLarge
from packlat.grid import GridSpec, Position, distance
from packlat.oracle import (
    bfs_distances,
    enumerate_feasible,
    packing_chromatic_number,
)
from packlat.coloring import verify


def test_single_cell():
    result = enumerate_feasible(GridSpec(1, 1, 1))
    assert result.sat
    assert result.witness == [[1]]
    assert result.total_assignments_examined == 1


def test_2x2_two_colors_exhausts_all_sixteen():
    result = enumerate_feasible(GridSpec(2, 2, 2))
    assert not result.sat
    assert result.witness is None
    assert result.total_assignments_examined == 16


def test_2x2_three_colors_first_witness():
    result = enumerate_feasible(GridSpec(2, 2, 3))
    assert result.sat
    assert result.witness == [[1, 2], [3, 1]]
    assert verify(GridSpec(2, 2, 3), result.witness) is None


def test_anchors_are_respected():
    grid = GridSpec(2, 2, 3, anchors=((Position(1, 1), 2),))
    result = enumerate_feasible(grid)
    assert result.sat
    assert result.witness[0][0] == 2
    assert verify(grid, result.witness) is None


def test_size_guard():
    with pytest.raises(TooLarge):
        enumerate_feasible(GridSpec(5, 5, 4))  # 4^25 assignments
    # budget 1 counts as 2: the tables grow with cells squared, so 2^27 > 1e8 is refused
    assert not enumerate_feasible(GridSpec(26, 1, 1)).sat
    with pytest.raises(TooLarge, match=r"^27 cells at budget 1 exceed the 1e\+08 oracle guard$"):
        enumerate_feasible(GridSpec(27, 1, 1))


def test_bfs_distances_agree_with_closed_form():
    # window-induced distances equal L1: the convexity premise, checked
    for w in range(1, 6):
        for h in range(1, 6):
            grid = GridSpec(w, h, 1)
            dist = bfs_distances(w, h)
            for i in range(grid.n_cells):
                for j in range(grid.n_cells):
                    assert dist[i][j] == distance(
                        grid.position_at(i), grid.position_at(j)
                    )


def test_oracle_and_verifier_agree_on_full_enumeration():
    # every assignment of a 2x3 window: definitional predicate == verify
    grid = GridSpec(2, 3, 3)
    dist = bfs_distances(2, 3)
    n = grid.n_cells
    for combo in itertools.product(range(1, 4), repeat=n):
        definitional = all(
            not (combo[i] == combo[j] and dist[i][j] <= combo[i])
            for i in range(n)
            for j in range(i + 1, n)
        )
        rows = [list(combo[r * 2:(r + 1) * 2]) for r in range(3)]
        assert definitional == (verify(grid, rows) is None)


def test_exact_small_values():
    assert packing_chromatic_number(1, 1, cap=4) == 1
    assert packing_chromatic_number(1, 2, cap=4) == 2
    assert packing_chromatic_number(1, 4, cap=4) == 3
    assert packing_chromatic_number(2, 2, cap=4) == 3
    assert packing_chromatic_number(3, 3, cap=5) == 4


def test_cap_exceeded_returns_none():
    assert packing_chromatic_number(3, 3, cap=3) is None


def test_path_of_four_needs_three_colors():
    # the 1x4 path rejects every {1,2}-assignment; k=3 admits one
    assert not enumerate_feasible(GridSpec(1, 4, 2)).sat
    result = enumerate_feasible(GridSpec(1, 4, 3))
    assert result.sat
    assert verify(GridSpec(1, 4, 3), result.witness) is None


def test_chi_monotone_under_window_enlargement():
    sizes = [
        (w, h) for w in range(1, 10) for h in range(1, 10) if w * h <= 9
    ]
    chi = {
        (w, h): packing_chromatic_number(w, h, cap=5) for (w, h) in sizes
    }
    for (w1, h1) in sizes:
        for (w2, h2) in sizes:
            if w1 <= w2 and h1 <= h2:
                small, big = chi[(w1, h1)], chi[(w2, h2)]
                if small is None:
                    assert big is None
                elif big is not None:
                    assert small <= big
