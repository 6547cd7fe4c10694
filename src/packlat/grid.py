"""Geometry of rectangular windows of the square lattice.

Cells are addressed as ``Position(col, row)``, both 1-indexed. The scan
order is row-major: left to right within a row, rows top to bottom. A
rectangular window is geodesically convex in the lattice, so the shortest
path distance between two cells inside it equals the L1 distance; all
distance computations here use the closed form.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from packlat.errors import MalformedInput


class Position(NamedTuple):
    """A lattice cell, (column, row), 1-indexed."""

    col: int
    row: int


def json_int(value: object) -> int:
    """``value`` if it is a JSON integer; ValueError for anything else.

    ``int()`` alone would read "7" as 7, 2.7 as 2 and true as 1.
    """
    if type(value) is not int:  # bool is a subclass of int, not int itself
        raise ValueError(f"{value!r} is not an integer")
    return value


def distance(a: Position, b: Position) -> int:
    """Shortest path distance between two cells (L1 on the lattice)."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


class _GridFields(NamedTuple):
    width: int
    height: int
    max_color: int
    anchors: tuple[tuple[Position, int], ...] = ()


class GridSpec(_GridFields):
    """A finite window of the lattice plus a color budget and anchors.

    ``anchors`` holds precolored cells as (Position, color) pairs. The
    constructor validates that anchors lie inside the window, occupy
    pairwise distinct cells, use colors within the budget, and are
    mutually consistent as a packing coloring. Every other way to make
    one (``_replace``, ``_make``, copying and unpickling) goes through the
    constructor. Instances are immutable and safe to share across workers.
    """

    __slots__ = ()

    def __new__(cls, width: int, height: int, max_color: int,
                anchors: tuple[tuple[Position, int], ...] = ()) -> "GridSpec":
        if width < 1 or height < 1:
            raise MalformedInput(f"window dimensions must be >= 1, got {width}x{height}")
        if max_color < 1:
            raise MalformedInput(f"max_color must be >= 1, got {max_color}")
        normalized = tuple((Position(int(p[0]), int(p[1])), int(c)) for p, c in anchors)
        # store in scan order so serialization is deterministic
        normalized = tuple(sorted(normalized, key=lambda pc: (pc[0].row, pc[0].col)))
        self = super().__new__(cls, width, height, max_color, normalized)
        seen: set[Position] = set()
        for pos, color in normalized:
            if not self.contains(pos):
                raise MalformedInput(f"anchor {pos} outside {width}x{height} window")
            if pos in seen:
                raise MalformedInput(f"duplicate anchor position {pos}")
            seen.add(pos)
            if not 1 <= color <= max_color:
                raise MalformedInput(f"anchor color {color} at {pos} outside 1..{max_color}")
        for i, (p, c) in enumerate(normalized):
            for q, d in normalized[i + 1:]:
                if c == d and distance(p, q) <= c:
                    raise MalformedInput(
                        f"anchors {p} and {q} share color {c} at distance "
                        f"{distance(p, q)} <= {c}"
                    )
        return self

    @classmethod
    def _make(cls, iterable) -> "GridSpec":  # _replace builds through this
        return cls(*iterable)

    def __reduce__(self):  # every pickle protocol rebuilds through __new__
        return GridSpec, tuple(self)

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def contains(self, pos: Position) -> bool:
        return 1 <= pos[0] <= self.width and 1 <= pos[1] <= self.height

    def index_of(self, pos: Position) -> int:
        """Scan index of a cell: 0 for (1,1), row-major."""
        return (pos[1] - 1) * self.width + (pos[0] - 1)

    def position_at(self, index: int) -> Position:
        """Inverse of index_of."""
        return Position(index % self.width + 1, index // self.width + 1)

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "max_color": self.max_color,
            "anchors": [
                {"col": pos.col, "row": pos.row, "color": color}
                for pos, color in self.anchors
            ],
        }

    @classmethod
    def from_dict(cls, data: object) -> "GridSpec":
        if not isinstance(data, dict):
            raise MalformedInput("grid spec must be a JSON object")
        try:
            width = json_int(data["width"])
            height = json_int(data["height"])
            max_color = json_int(data["max_color"])
            raw_anchors = data.get("anchors", [])
            anchors = tuple(
                (Position(json_int(a["col"]), json_int(a["row"])), json_int(a["color"]))
                for a in raw_anchors
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad grid spec: {exc}") from exc
        return cls(width=width, height=height, max_color=max_color, anchors=anchors)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"grid spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
