"""Window geometry: distances, scan order, balls, grid validation."""

import copy
import json
import pickle

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


def test_naive_scan_rows_exhaustive():
    # the naive route's rows: per free cell and color c, the cells within
    # distance c that are colored when it is the frontier, in scan order
    for w in range(1, 7):
        for h in range(1, 7):
            for anchors in ((), ((Position(1 + w // 2, 1 + h // 2), 3),)):
                grid = GridSpec(w, h, 5, anchors)
                tables = search._Tables(grid)
                anchored = {grid.index_of(pos) for pos, _ in grid.anchors}
                rows = tables.naive_scan(len(tables.free))
                assert len(rows) == len(tables.free)
                for cell, per_color in zip(tables.free, rows):
                    center = grid.position_at(cell)
                    assert per_color == tuple(
                        tuple(q for q in range(grid.n_cells) if q != cell
                              and (q < cell or q in anchored)
                              and distance(center, grid.position_at(q)) <= c)
                        for c in range(1, 6))


def test_split_builds_only_the_naive_rows_above_its_depth():
    grid = GridSpec(9, 7, 6, anchors=((Position(5, 4), 4),))
    search._tables.cache_clear()
    assert len(search.split(grid, 6).units) == 2279
    assert len(search._tables(grid)._naive_scan) == 6


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


def test_gridspec_is_an_immutable_value():
    grid = GridSpec(4, 4, 5, anchors=((Position(3, 3), 4), (Position(2, 1), 1)))
    same = GridSpec(4, 4, 5, anchors=((Position(2, 1), 1), (Position(3, 3), 4)))
    assert (grid, hash(grid)) == (same, hash(same))
    assert copy.copy(grid) == copy.deepcopy(grid) == grid
    with pytest.raises(AttributeError):
        grid.width = 5


def test_gridspec_pickles_through_its_constructor():
    # pool workers unpickle grids: an edited pickle must not make an invalid one
    grid = GridSpec(97, 7, 6, anchors=((Position(5, 4), 4),))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(grid, protocol)
        loaded = pickle.loads(data)
        assert (type(loaded), loaded, hash(loaded)) == (GridSpec, grid, hash(grid))
        width, forged_width = (b"K\x61", b"K\x00") if protocol else (b"I97\n", b"I0\n")
        assert data.count(width) == 1, protocol
        with pytest.raises(MalformedInput, match="window dimensions must be >= 1"):
            pickle.loads(data.replace(width, forged_width))


def test_gridspec_replace_and_make_validate_and_normalise():
    grid = GridSpec(3, 3, 2)
    with pytest.raises(MalformedInput, match="window dimensions"):
        grid._replace(width=0)
    with pytest.raises(MalformedInput, match="outside 3x3 window"):
        grid._replace(anchors=((Position(4, 1), 1),))
    with pytest.raises(MalformedInput, match="share color 2"):
        GridSpec._make((3, 3, 2, ((Position(1, 1), 2), (Position(2, 2), 2))))
    moved = grid._replace(anchors=((Position(2, 2), 1), (Position(1, 1), 2)))
    assert type(moved) is GridSpec
    assert moved.anchors == ((Position(1, 1), 2), (Position(2, 2), 1))
