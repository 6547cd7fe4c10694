"""The packing-coloring rule for complete colorings, and their file formats.

``verify`` checks a complete coloring against the rule from scratch,
independently of the search routes in ``packlat.search``, which every
SAT witness passes through.

A complete coloring is exchanged either as plain text (``height`` lines of
``width`` whitespace-separated integers, row 1 first) or as JSON
``{"grid": <GridSpec>, "colors": [[...], ...]}``.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from packlat.errors import MalformedInput
from packlat.grid import GridSpec, Position, distance, json_int


class Violation(NamedTuple):
    """A witness that two cells break the packing rule for their color."""

    first: Position
    second: Position
    color: int


def _check_shape(grid: GridSpec, rows: object) -> None:
    """Raise MalformedInput unless rows is ``height`` lists of ``width`` entries."""
    if not isinstance(rows, list) or len(rows) != grid.height or any(
        not isinstance(r, list) or len(r) != grid.width for r in rows
    ):
        raise MalformedInput(
            f"coloring shape does not match {grid.width}x{grid.height} window"
        )


def verify(grid: GridSpec, rows: list[list[int]]) -> Violation | None:
    """Check a complete coloring against the packing rule, from scratch.

    Independent of the search: compares all same-colored pairs directly.
    Returns None on success, or the scan-order-first violating pair.
    Raises MalformedInput when the shape, color range, or anchors disagree
    with the grid.
    """
    _check_shape(grid, rows)
    flat: list[int] = []
    for row in rows:
        for value in row:
            if not isinstance(value, int) or isinstance(value, bool):
                raise MalformedInput(f"non-integer color {value!r}")
            if not 1 <= value <= grid.max_color:
                raise MalformedInput(f"color {value} outside 1..{grid.max_color}")
            flat.append(value)
    for pos, color in grid.anchors:
        if flat[grid.index_of(pos)] != color:
            raise MalformedInput(
                f"anchor {pos} expects color {color}, coloring has "
                f"{flat[grid.index_of(pos)]}"
            )
    n = grid.n_cells
    for a in range(n):
        color = flat[a]
        pa = grid.position_at(a)
        for b in range(a + 1, n):
            if flat[b] == color and distance(pa, grid.position_at(b)) <= color:
                return Violation(pa, grid.position_at(b), color)
    return None


def format_coloring_text(rows: list[list[int]]) -> str:
    """The coloring as a text grid with fixed-width columns, row 1 first."""
    width = max(len(str(v)) for row in rows for v in row)
    return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in rows) + "\n"


def parse_coloring_text(text: str, grid: GridSpec) -> list[list[int]]:
    rows: list[list[int]] = []
    for line in text.splitlines():
        if line.strip():
            try:
                rows.append([int(tok) for tok in line.split()])
            except ValueError as exc:
                raise MalformedInput(f"bad coloring line {line!r}") from exc
    _check_shape(grid, rows)
    return rows


def coloring_to_dict(grid: GridSpec, rows: list[list[int]]) -> dict:
    return {"grid": grid.to_dict(), "colors": [list(r) for r in rows]}


def coloring_from_dict(data: object) -> tuple[GridSpec, list[list[int]]]:
    if not isinstance(data, dict) or "grid" not in data or "colors" not in data:
        raise MalformedInput('coloring JSON must have "grid" and "colors"')
    grid = GridSpec.from_dict(data["grid"])
    colors = data["colors"]
    _check_shape(grid, colors)
    try:
        rows = [[json_int(v) for v in row] for row in colors]
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"bad color value: {exc}") from exc
    return grid, rows


def load_coloring(text: str, grid: GridSpec | None = None) -> tuple[GridSpec, list[list[int]]]:
    """Parse a coloring from JSON (self-describing) or text (needs a grid)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"not valid JSON: {exc}") from exc
        return coloring_from_dict(data)
    if grid is None:
        raise MalformedInput("text colorings need an accompanying grid spec")
    return grid, parse_coloring_text(text, grid)
