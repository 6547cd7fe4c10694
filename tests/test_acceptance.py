"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion. The optional long-run reproduction (the 15x9 window with color 9
anchored, budget 11) is gated behind PACKLAT_LONG_RUN=1; it needs days of
CPU time and no time bound is asserted.
"""

import json
import os
import random
import time

import pytest

from packlat.cli import main
from packlat.coloring import Violation, verify
from packlat.grid import GridSpec, Position
from packlat.oracle import enumerate_feasible
from packlat.search import (
    SAT,
    UNSAT,
    INTERRUPTED,
    Checkpoint,
    UnitOutcome,
    merge_outcomes,
    resume,
    solve,
    solve_unit,
    split,
)

# Scaled headline-shaped instance, fixed by pilot runs during development:
# mid-size window, one high anchor color (budget minus two) near the center.
# The solver cross-checked against the oracle at every window of at most
# nine cells before this pair was trusted; see the repository notes.
SCALED_WINDOW = (9, 7)
SCALED_K = 7
SCALED_ANCHOR = (Position(5, 4), 5)
SCALED_EXPECTED_NODES = 17_473_027

LONG_RUN = os.environ.get("PACKLAT_LONG_RUN") == "1"


def _ok(name: str) -> None:
    print(f"\n[acceptance] {name}: PASS")


def all_windows(max_cells: int):
    for width in range(1, max_cells + 1):
        for height in range(1, max_cells + 1):
            if width * height <= max_cells:
                yield width, height


def test_criterion_oracle_equivalence():
    """Solve status equals brute-force status on every tiny window."""
    t0 = time.perf_counter()
    checked = 0
    for width, height in all_windows(9):
        for k in range(1, 5):
            grid = GridSpec(width, height, k)
            oracle = enumerate_feasible(grid)
            result = solve(grid)
            assert result.status == (SAT if oracle.sat else UNSAT), grid
            if result.status == SAT:
                assert verify(grid, result.coloring) is None
            checked += 1

    rng = random.Random(20260809)
    sampled = 0
    while sampled < 200:
        width = rng.randint(1, 9)
        height = rng.randint(1, 9 // width)
        k = rng.randint(1, 4)
        n_anchors = rng.randint(1, 2)
        anchors = []
        taken = set()
        for _ in range(n_anchors):
            pos = Position(rng.randint(1, width), rng.randint(1, height))
            if pos in taken:
                continue
            taken.add(pos)
            anchors.append((pos, rng.randint(1, k)))
        try:
            grid = GridSpec(width, height, k, anchors=tuple(anchors))
        except Exception:
            continue  # mutually inconsistent anchor draw; redraw
        oracle = enumerate_feasible(grid)
        result = solve(grid)
        assert result.status == (SAT if oracle.sat else UNSAT), grid
        if result.status == SAT:
            assert verify(grid, result.coloring) is None
        sampled += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"oracle equivalence took {elapsed:.1f}s, budget 60s"
    assert checked == 92 and sampled == 200
    _ok(f"oracle equivalence ({checked} systematic + {sampled} anchored, "
        f"{elapsed:.1f}s)")


def test_criterion_exact_small_values_via_cli(capsys):
    """cmd_chi reproduces the oracle-derived exact values."""
    t0 = time.perf_counter()
    expected = {(1, 1): "1", (1, 2): "2", (1, 4): "3", (2, 2): "3", (3, 3): "4"}
    for (width, height), value in expected.items():
        code = main(["chi", "--width", str(width), "--height", str(height),
                     "--cap", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == value, (width, height)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"chi values took {elapsed:.1f}s, budget 60s"
    _ok(f"exact small values via chi ({elapsed:.1f}s)")


def test_criterion_definitional_verifier():
    """The verifier accepts the good 2x2 and pinpoints the bad pair."""
    assert verify(GridSpec(2, 2, 3), [[1, 2], [3, 1]]) is None
    violation = verify(GridSpec(2, 2, 2), [[1, 2], [2, 1]])
    assert violation == Violation(Position(2, 1), Position(1, 2), 2)
    _ok("definitional verifier")


def test_criterion_naive_mask_differential():
    """Both admissibility routes traverse the identical tree."""
    t0 = time.perf_counter()
    for width in range(1, 5):
        for height in range(1, 5):
            for k in range(1, 6):
                grid = GridSpec(width, height, k)
                fast = solve(grid)
                slow = solve(grid, naive=True)
                assert (fast.status, fast.stats.nodes) == (
                    slow.status, slow.stats.nodes,
                ), grid
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"differential took {elapsed:.1f}s, budget 300s"
    _ok(f"naive/mask differential (80 instances, {elapsed:.1f}s)")


def test_criterion_count_additivity_under_splitting():
    """sequential nodes = emitted prefixes + overhead + unit nodes, exactly."""
    checked = 0
    for width in range(1, 5):
        for height in range(1, 5):
            for k in range(1, 5):
                grid = GridSpec(width, height, k)
                sequential = solve(grid)
                for depth in range(1, min(3, grid.n_cells) + 1):
                    split_result = split(grid, depth)
                    outcomes = []
                    for unit in split_result.units:
                        r = solve_unit(unit)
                        outcomes.append(UnitOutcome(
                            unit.prefix, r.status, r.stats.nodes, r.coloring,
                        ))
                    status, coloring, nodes, _ = merge_outcomes(
                        split_result, outcomes
                    )
                    assert status == sequential.status, (grid, depth)
                    assert nodes == sequential.stats.nodes, (grid, depth)
                    if status == SAT:
                        assert coloring == sequential.coloring
                    checked += 1
    _ok(f"count additivity under splitting ({checked} split runs)")


def test_criterion_checkpoint_determinism():
    """Interrupt-and-resume chains reproduce the one-shot run exactly."""
    grid = GridSpec(3, 3, 3)
    one_shot = solve(grid)

    for stride in (100, 5):
        # stride 100 is the stated criterion; this window exhausts in fewer
        # nodes than that, so stride 5 is added to force real suspensions
        result = solve(grid, suspend_at=stride)
        while result.status == INTERRUPTED:
            checkpoint = Checkpoint.from_dict(result.checkpoint.to_dict())
            result = resume(checkpoint, suspend_at=checkpoint.nodes + stride)
        assert (result.status, result.stats.nodes) == (
            one_shot.status, one_shot.stats.nodes,
        ), f"stride {stride}"
    _ok(f"checkpoint determinism (one-shot nodes={one_shot.stats.nodes})")


def test_criterion_scaled_headline_run():
    """An anchored mid-size window exhausts UNSAT, twice, bit-identically."""
    width, height = SCALED_WINDOW
    grid = GridSpec(width, height, SCALED_K, anchors=(SCALED_ANCHOR,))
    t0 = time.perf_counter()
    first = solve(grid)
    second = solve(grid)
    elapsed = time.perf_counter() - t0
    assert first.status == UNSAT
    assert second.status == UNSAT
    assert first.stats.nodes == second.stats.nodes == SCALED_EXPECTED_NODES
    assert elapsed < 600, f"scaled run took {elapsed:.1f}s, budget 600s"
    _ok(
        f"scaled headline run ({width}x{height} k={SCALED_K} "
        f"anchor {SCALED_ANCHOR[1]}@({SCALED_ANCHOR[0].col},"
        f"{SCALED_ANCHOR[0].row}), nodes={first.stats.nodes:,}, "
        f"{elapsed:.1f}s for both runs)"
    )


@pytest.mark.skipif(
    not LONG_RUN,
    reason="multi-day exhaustive run; set PACKLAT_LONG_RUN=1 to attempt it",
)
def test_criterion_long_run_15x9_lower_bound():
    """The headline computation: 15x9, budget 11, color 9 anchored at (5,5).

    The window is scanned column by column, as the 9x15 grid: the transpose
    keeps every distance and maps (5,5) to itself. Records all three
    counters so the result can be compared against the published figure of
    43112312093324 checked configurations, whose counting unit is not
    pinned down; no time bound.
    """
    grid = GridSpec(9, 15, 11, anchors=((Position(5, 5), 9),))
    result = solve(grid, progress_every=10**8,
                   on_progress=lambda nodes, frontier: print(
                       f"[long-run] nodes={nodes:,} frontier={frontier}",
                       flush=True))
    assert result.status == UNSAT
    print(json.dumps({
        "window": "15x9", "scan": "column by column (9x15)", "k": 11, "anchor": "9@(5,5)",
        "nodes": result.stats.nodes,
        "tests": result.stats.tests,
        "calls": result.stats.calls,
        "published_checked_configurations": 43112312093324,
    }, indent=2))
    _ok("long-run 15x9 lower bound")
