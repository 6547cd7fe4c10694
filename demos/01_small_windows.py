#!/usr/bin/env python3
"""Exact packing chromatic numbers of small windows, three ways.

For each small window this script asks the brute-force oracle for the
exact chromatic value, asks the backtracking solver for a witness at that
value, confirms the witness with the standalone verifier, and draws it.

Equivalent CLI calls:

    packlat chi --width 3 --height 3 --cap 5
    packlat solve --width 3 --height 3 --k 4
"""

from packlat import GridSpec, enumerate_feasible, packing_chromatic_number, solve, verify
from packlat.coloring import format_coloring_text

WINDOWS = [(1, 1), (1, 2), (1, 4), (2, 2), (2, 3), (3, 3)]


def main() -> None:
    for width, height in WINDOWS:
        chi = packing_chromatic_number(width, height, cap=5)
        print(f"\n{width}x{height} window: exact value {chi}")

        # one budget below: both routes must refuse
        if chi > 1:
            short = GridSpec(width, height, chi - 1)
            assert not enumerate_feasible(short).sat
            assert solve(short).status == "UNSAT"
            print(f"  budget {chi - 1}: UNSAT by oracle and by solver")

        grid = GridSpec(width, height, chi)
        result = solve(grid)
        assert result.status == "SAT"
        assert verify(grid, result.coloring) is None
        print(f"  budget {chi}: witness found in {result.stats.nodes} nodes, "
              f"verifier accepts")
        print("\n".join("    " + line
                        for line in format_coloring_text(result.coloring).splitlines()))


if __name__ == "__main__":
    main()
