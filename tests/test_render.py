"""Renderers produce deterministic bytes, pinned by golden files."""

from pathlib import Path

from packlat.coloring import format_coloring_text
from packlat.render import render_svg

GOLDEN = Path(__file__).parent / "golden"

WITNESS_3X3 = [[2, 1, 3], [1, 4, 1], [3, 1, 2]]


def test_single_cell_ascii():
    assert format_coloring_text([[1]]) == "1\n"


def test_2x2_witness_renders_four_cells():
    svg = render_svg([[1, 2], [3, 1]])
    assert svg.count("<rect") == 4
    assert svg.count("<text") == 4


def test_ascii_pads_to_fixed_width_columns():
    assert format_coloring_text([[1, 10], [11, 2]]) == " 1 10\n11  2\n"


def test_ascii_golden_3x3():
    expected = (GOLDEN / "witness_3x3.txt").read_text(encoding="utf-8")
    assert format_coloring_text(WITNESS_3X3) == expected


def test_svg_golden_3x3():
    expected = (GOLDEN / "witness_3x3.svg").read_text(encoding="utf-8")
    assert render_svg(WITNESS_3X3) == expected


def test_renders_are_deterministic():
    assert render_svg(WITNESS_3X3) == render_svg(WITNESS_3X3)
    assert format_coloring_text(WITNESS_3X3) == format_coloring_text(WITNESS_3X3)
