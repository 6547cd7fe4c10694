"""The packing rule: the kernel's forbidden words, the verifier, file formats."""

import shutil

import pytest

from packlat import search
from packlat.coloring import (
    Violation,
    coloring_from_dict,
    coloring_to_dict,
    format_coloring_text,
    load_coloring,
    parse_coloring_text,
    verify,
)
from packlat.errors import MalformedInput
from packlat.grid import GridSpec, Position, distance
from packlat.search import INTERRUPTED, SAT, UNSAT

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def kernel_engine(grid):
    engine = search._Engine(grid)
    assert engine.route == "c"
    return engine


def run(engine, prefix=(), floor=0, **events):
    """The status in which the engine's driver leaves its one unit."""
    out, _ = engine.run([prefix], floor, **events)
    return search._STATUS[out[0]]


def test_assign_anchor_nine_mask_consequence():
    # color 9 anchored at (5,5) of the 15x9 window forbids 9, and nothing
    # else, exactly on the in-window cells within distance 9
    grid = GridSpec(15, 9, 11, anchors=((Position(5, 5), 9),))
    tables = search._tables(grid)
    for p, cell in enumerate(tables.free):
        within = distance(grid.position_at(cell), Position(5, 5)) <= 9
        assert tables.init_rows[p] == (1 << 8 if within else 0)


@needs_cc
def test_assign_unit_ball_marks_two_cells():
    engine = kernel_engine(GridSpec(2, 2, 2))
    assert run(engine, suspend_at=1) == INTERRUPTED  # color 1 at (1,1)
    assert engine._jtop[1] == 2  # journal: the two neighbours newly forbade 1
    assert list(engine._forb[1:]) == [0b01, 0b01, 0b00]  # (2,1), (1,2), (2,2)


@needs_cc
def test_assign_then_undo_restores_mask_bit_identically():
    # the kernel colors and uncolors every cell below (1,1)=2 and must leave
    # the forbidden words exactly as it found them
    grid = GridSpec(3, 3, 3)
    engine = kernel_engine(grid)
    assert run(engine, (2,), floor=1) == UNSAT
    assert engine.st[search._NODES] > 0
    assert engine.decisions() == (2,)
    assert list(engine._forb[1:]) == rescanned_words(grid, engine)


def test_frontier_skips_anchor_cells():
    tables = search._tables(GridSpec(2, 2, 3, anchors=((Position(2, 1), 2),)))
    assert tables.frontier_cells(0) == 0
    # cell (2,1) is the anchor, so coloring (1,1) covers two cells
    assert tables.frontier_cells(1) == 2
    assert tables.frontier_cells(3) == 4


def kernel_states(grid):
    """The kernel engine after each node of the whole tree, past every SAT."""
    engine = kernel_engine(grid)
    st = engine.st
    while True:
        status = run(engine, suspend_at=st[search._NODES] + 1)
        if status == UNSAT:
            return
        if status == SAT:
            # the last cell forbids nothing further on, so undo it by hand
            # and put the unit back in flight
            st[search._POS] -= 1
            st[search._START] = engine.branch[st[search._POS]] + 1
            st[search._UNIT], st[search._LIVE] = 0, 1
        else:
            yield engine


def rescanned_words(grid, engine):
    """Forbidden colors of each open cell, by rescanning every colored cell."""
    tables = engine.tables
    colored = [(grid.position_at(cell), c) for cell, c in enumerate(tables.anchor_at) if c]
    colored += [(grid.position_at(tables.free[p]), c) for p, c in enumerate(engine.decisions())]
    words = []
    for cell in tables.free[engine.st[search._POS]:]:
        pos = grid.position_at(cell)
        words.append(sum({1 << (c - 1) for q, c in colored if distance(pos, q) <= c}))
    return words


def assert_kernel_words_match_rescans(grid):
    states = 0
    for engine in kernel_states(grid):
        pos = engine.st[search._POS]
        assert list(engine._forb[pos:]) == rescanned_words(grid, engine), engine.decisions()
        states += 1
    return states


@needs_cc
@pytest.mark.parametrize("width,height,k", [
    (w, h, k) for w in range(1, 5) for h in range(1, 5) for k in range(1, 6)
])
def test_mask_matches_naive_on_every_reachable_state(width, height, k):
    """The kernel's forbidden words agree with ball rescans, exhaustively."""
    grid = GridSpec(width, height, k)
    states = assert_kernel_words_match_rescans(grid)
    # every consistent prefix of every length is a reachable state
    assert states == sum(len(search.split(grid, d).units) for d in range(1, width * height + 1))


@needs_cc
def test_mask_naive_equivalence_with_anchor():
    assert assert_kernel_words_match_rescans(
        GridSpec(3, 3, 4, anchors=((Position(2, 2), 3),))
    ) > 0


# --- verifier ---------------------------------------------------------------


def test_verify_accepts_known_good_2x2():
    assert verify(GridSpec(2, 2, 3), [[1, 2], [3, 1]]) is None


def test_verify_rejects_two_twos_at_distance_two():
    violation = verify(GridSpec(2, 2, 2), [[1, 2], [2, 1]])
    assert violation == Violation(Position(2, 1), Position(1, 2), 2)


def test_verify_accepts_known_good_3x3():
    rows = [[2, 1, 3], [1, 4, 1], [3, 1, 2]]
    assert verify(GridSpec(3, 3, 4), rows) is None


def test_verify_reports_scan_order_first_witness():
    # two violating pairs; the one whose cells come first in scan order wins
    rows = [[1, 1], [1, 2]]
    violation = verify(GridSpec(2, 2, 2), rows)
    assert violation == Violation(Position(1, 1), Position(2, 1), 1)


def test_verify_malformed_shape():
    with pytest.raises(MalformedInput):
        verify(GridSpec(2, 2, 3), [[1, 2]])
    with pytest.raises(MalformedInput):
        verify(GridSpec(2, 2, 3), [[1, 2], [3]])


def test_verify_malformed_color_range():
    with pytest.raises(MalformedInput):
        verify(GridSpec(2, 2, 3), [[1, 2], [4, 1]])
    with pytest.raises(MalformedInput):
        verify(GridSpec(2, 2, 3), [[1, 2], [0, 1]])


def test_verify_anchor_mismatch():
    grid = GridSpec(2, 2, 3, anchors=((Position(1, 1), 2),))
    with pytest.raises(MalformedInput):
        verify(grid, [[1, 2], [3, 1]])


# --- file formats -----------------------------------------------------------


def test_text_round_trip():
    grid = GridSpec(3, 2, 4)
    rows = [[1, 2, 1], [3, 1, 4]]
    text = format_coloring_text(rows)
    assert parse_coloring_text(text, grid) == rows


def test_text_rejects_truncated_input():
    with pytest.raises(MalformedInput):
        parse_coloring_text("1 2\n", GridSpec(2, 2, 3))


def test_json_round_trip():
    grid = GridSpec(2, 2, 3, anchors=((Position(1, 1), 1),))
    rows = [[1, 2], [3, 1]]
    data = coloring_to_dict(grid, rows)
    assert coloring_from_dict(data) == (grid, rows)


def test_load_coloring_dispatches_on_content():
    grid = GridSpec(2, 2, 3)
    rows = [[1, 2], [3, 1]]
    import json

    loaded_grid, loaded = load_coloring(json.dumps(coloring_to_dict(grid, rows)))
    assert (loaded_grid, loaded) == (grid, rows)
    assert load_coloring("1 2\n3 1\n", grid) == (grid, rows)
    with pytest.raises(MalformedInput):
        load_coloring("1 2\n3 1\n")  # text form needs a grid
