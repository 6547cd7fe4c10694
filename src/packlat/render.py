"""Figure-style output of complete colorings as SVG.

The rendering is deterministic byte for byte for a fixed input, so it can
be pinned with a golden file. The fixed-width text form is
``packlat.coloring.format_coloring_text``.
"""

from __future__ import annotations

# One fill per color class; cycles beyond the palette length.
PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
)

CELL = 32
FONT = 14


def render_svg(rows: list[list[int]]) -> str:
    """One square per cell, palette fill by color class, numeral overlaid."""
    height = len(rows)
    width = len(rows[0])
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width * CELL}" '
        f'height="{height * CELL}" viewBox="0 0 {width * CELL} {height * CELL}">',
        "<!-- cells addressed as col,row (1-indexed), row 1 at the top -->",
    ]
    for r, row in enumerate(rows):
        for c, value in enumerate(row):
            x, y = c * CELL, r * CELL
            fill = PALETTE[(value - 1) % len(PALETTE)]
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{fill}" stroke="#222222" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{x + CELL // 2}" y="{y + CELL // 2 + FONT // 3}" '
                f'font-family="monospace" font-size="{FONT}" fill="#111111" '
                f'text-anchor="middle">{value}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
