#!/usr/bin/env python3
"""The full-scale lower-bound computation, and how to launch it.

The headline instance is the 15x9 window with budget 11 and color 9
anchored at (5,5): exhausting it certifies that no packing 11-coloring of
the window extends the anchor, which lifts the lattice lower bound to 12
under the usual occurrence premise. The original exhaustion of this tree
was reported at 43,112,312,093,324 checked configurations and months of
single-core time, so this script does NOT run it by default; it prints
the launch recipe and, for a taste of the shape, runs the 9x7 scaled
variant used by the acceptance suite (under a second on the compiled
kernel, under a minute on the naive fallback).

Pass --really to start the actual 15x9 run in-process (days of CPU time;
use the CLI form below instead if you want checkpoint files).
"""

import sys

from packlat import GridSpec, Position, solve

RECIPE = """\
Launch recipe (resumable, with progress lines every 1e8 nodes):

    packlat solve --width 15 --height 9 --k 11 --anchor 5,5,9 \\
        --checkpoint-every 1000000000 --checkpoint-file headline.checkpoint.json \\
        --witness-file headline-witness.txt

    # after any interruption (Ctrl-C writes the checkpoint and exits 20):
    packlat resume headline.checkpoint.json \\
        --checkpoint-every 1000000000 --checkpoint-file headline.checkpoint.json

Expected outcome: exit code 10 (UNSAT by exhaustion). The report records
nodes, admissibility tests, and call counts separately, so the historical
figure of 43,112,312,093,324 checked configurations can be compared
against whichever unit it used. The same run is wired into the test suite
behind PACKLAT_LONG_RUN=1.
"""


def main() -> None:
    print(RECIPE)
    if "--really" in sys.argv:
        grid = GridSpec(15, 9, 11, anchors=((Position(5, 5), 9),))
        result = solve(
            grid,
            progress_every=10**8,
            on_progress=lambda nodes, frontier: print(
                f"nodes={nodes:,} frontier={frontier}", flush=True
            ),
        )
        print(result.status, result.stats)
        return

    print("Running the scaled 9x7 variant instead (budget 7, color 5 anchored "
          "at (5,4)) ...")
    grid = GridSpec(9, 7, 7, anchors=((Position(5, 4), 5),))
    result = solve(grid)
    print(f"  {result.status} after {result.stats.nodes:,} nodes, "
          f"{result.stats.tests:,} admissibility tests, "
          f"{result.stats.calls:,} calls ({result.stats.elapsed:.0f}s)")


if __name__ == "__main__":
    main()
