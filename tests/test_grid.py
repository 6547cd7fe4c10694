"""Window geometry: distances, scan order, balls, grid validation."""

import json

import pytest
from hypothesis import given, strategies as st

from packlat.errors import MalformedInput
from packlat import search
from packlat.grid import GridSpec, Position, distance

positions = st.builds(
    Position, st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30)
)


def test_distance_identity():
    assert distance(Position(1, 1), Position(1, 1)) == 0


def test_distance_coordinate_arithmetic():
    assert distance(Position(1, 1), Position(3, 2)) == 3


def test_distance_anchor_to_corner_of_15x9():
    # the far corner of the 15x9 window from the anchored cell (5,5)
    assert distance(Position(5, 5), Position(15, 9)) == 14


@given(positions, positions)
def test_distance_symmetry(a, b):
    assert distance(a, b) == distance(b, a)


@given(positions, positions, positions)
def test_distance_triangle_inequality(a, b, c):
    assert distance(a, c) <= distance(a, b) + distance(b, c)


def test_scan_next_first_step():
    grid = GridSpec(15, 9, 11)
    assert grid.position_at(0) == Position(1, 1)
    assert grid.position_at(1) == Position(2, 1)


def test_scan_next_row_wrap():
    grid = GridSpec(15, 9, 11)
    assert grid.position_at(14) == Position(15, 1)
    assert grid.position_at(15) == Position(1, 2)


def test_scan_next_end():
    grid = GridSpec(15, 9, 11)
    assert grid.n_cells == 135
    assert grid.position_at(134) == Position(15, 9)
    assert not grid.contains(grid.position_at(135))


def test_scan_bijection_exhaustive():
    # index -> position -> index is the identity on every cell, windows to 20x20
    for w in range(1, 21):
        for h in range(1, 21):
            grid = GridSpec(w, h, 1)
            for i in range(grid.n_cells):
                pos = grid.position_at(i)
                assert grid.contains(pos)
                assert grid.index_of(pos) == i


def test_ball_consistency_exhaustive():
    # the kernel's forward balls: the open cells after p in scan order within
    # distance r of it, each once, windows to 6x6 with and without an anchor
    for w in range(1, 7):
        for h in range(1, 7):
            for anchors in ((), ((Position(1 + w // 2, 1 + h // 2), 3),)):
                grid = GridSpec(w, h, 11, anchors)
                tables = search._Tables(grid)
                free = [grid.position_at(cell) for cell in tables.free]
                row, cnt, nbr = tables.csr
                for p, center in enumerate(free):
                    for r in range(1, 12):
                        got = nbr[row[p]:row[p] + cnt[p * 11 + r - 1]]
                        expected = [
                            q for q in range(p + 1, len(free))
                            if distance(center, free[q]) <= r
                        ]
                        assert sorted(got) == expected


def test_gridspec_rejects_bad_dimensions():
    with pytest.raises(MalformedInput):
        GridSpec(0, 3, 2)
    with pytest.raises(MalformedInput):
        GridSpec(3, 3, 0)


def test_gridspec_rejects_anchor_outside_window():
    with pytest.raises(MalformedInput):
        GridSpec(3, 3, 4, anchors=((Position(4, 1), 2),))


def test_gridspec_rejects_duplicate_anchor_positions():
    with pytest.raises(MalformedInput):
        GridSpec(3, 3, 4, anchors=((Position(1, 1), 2), (Position(1, 1), 3)))


def test_gridspec_rejects_anchor_color_out_of_budget():
    with pytest.raises(MalformedInput):
        GridSpec(3, 3, 4, anchors=((Position(1, 1), 5),))


def test_gridspec_rejects_mutually_inconsistent_anchors():
    # two 2s at distance 2 break the packing rule at construction time
    with pytest.raises(MalformedInput):
        GridSpec(3, 3, 4, anchors=((Position(1, 1), 2), (Position(3, 1), 2)))
    # same positions, distinct colors: fine
    GridSpec(3, 3, 4, anchors=((Position(1, 1), 2), (Position(3, 1), 3)))


def test_gridspec_json_round_trip():
    grid = GridSpec(15, 9, 11, anchors=((Position(5, 5), 9),))
    data = json.loads(grid.to_json())
    assert data == {
        "width": 15,
        "height": 9,
        "max_color": 11,
        "anchors": [{"col": 5, "row": 5, "color": 9}],
    }
    assert GridSpec.from_json(grid.to_json()) == grid


def test_gridspec_anchors_normalized_to_scan_order():
    grid = GridSpec(
        4, 4, 5, anchors=((Position(3, 3), 4), (Position(2, 1), 1))
    )
    assert grid.anchors == ((Position(2, 1), 1), (Position(3, 3), 4))


def test_gridspec_from_dict_rejects_garbage():
    with pytest.raises(MalformedInput):
        GridSpec.from_dict(["not", "a", "dict"])
    with pytest.raises(MalformedInput):
        GridSpec.from_dict({"width": 3, "height": 3})
    with pytest.raises(MalformedInput):
        GridSpec.from_json("{not json")
