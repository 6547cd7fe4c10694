"""Solver behavior: node accounting, splitting, checkpoints, determinism."""

import itertools
import json
import random
import shutil

import pytest

from packlat import search
from packlat.cli import main
from packlat.coloring import verify
from packlat.errors import CorruptCheckpoint, CorruptUnit, VersionMismatch
from packlat.grid import GridSpec, Position, distance
from packlat.oracle import enumerate_feasible
from packlat.search import (
    INTERRUPTED,
    SAT,
    UNSAT,
    Checkpoint,
    WorkUnit,
    merge_outcomes,
    resume,
    solve,
    solve_parallel,
    solve_unit,
    split,
    _INTERRUPT_POLL,
)


def test_single_cell_is_sat_in_one_node():
    result = solve(GridSpec(1, 1, 1))
    assert result.status == SAT
    assert result.stats.nodes == 1
    assert result.coloring == [[1]]


def test_domino_with_one_color_fails_after_one_node():
    # color 1 goes on cell one, cell two is blocked, backtracking exhausts
    result = solve(GridSpec(1, 2, 1))
    assert result.status == UNSAT
    assert result.stats.nodes == 1


def test_2x2_with_two_colors_is_unsat():
    assert not enumerate_feasible(GridSpec(2, 2, 2)).sat  # brute force, 2^4
    assert solve(GridSpec(2, 2, 2)).status == UNSAT


def test_2x2_with_three_colors_solves():
    result = solve(GridSpec(2, 2, 3))
    assert result.status == SAT
    assert result.coloring == [[1, 2], [3, 1]]
    assert verify(GridSpec(2, 2, 3), result.coloring) is None


def test_3x3_with_three_colors_is_unsat():
    assert not enumerate_feasible(GridSpec(3, 3, 3)).sat  # brute force, 3^9
    assert solve(GridSpec(3, 3, 3)).status == UNSAT


def test_sequential_runs_are_deterministic():
    grid = GridSpec(4, 4, 4)
    first = solve(grid)
    second = solve(grid)
    assert first.status == second.status == UNSAT
    assert first.stats.counters() == second.stats.counters()


def test_solver_matches_oracle_on_small_windows():
    for w in range(1, 4):
        for h in range(1, 4):
            if w * h > 6:
                continue
            for k in range(1, 4):
                grid = GridSpec(w, h, k)
                oracle = enumerate_feasible(grid)
                result = solve(grid)
                assert result.status == (SAT if oracle.sat else UNSAT), grid
                if result.status == SAT:
                    assert verify(grid, result.coloring) is None


def test_anchored_solve_counts_exclude_anchors():
    grid = GridSpec(1, 1, 1, anchors=((Position(1, 1), 1),))
    result = solve(grid)
    assert result.status == SAT
    assert result.stats.nodes == 0
    assert result.coloring == [[1]]


def test_naive_and_mask_modes_agree():
    for w in range(1, 4):
        for h in range(1, 4):
            for k in range(1, 5):
                grid = GridSpec(w, h, k)
                fast = solve(grid)
                slow = solve(grid, naive=True)
                assert (fast.status, fast.stats.nodes) == (slow.status, slow.stats.nodes)
                assert fast.stats.tests == slow.stats.tests
                assert fast.stats.calls == slow.stats.calls
                assert fast.coloring == slow.coloring


def test_anchor_never_turns_unsat_into_sat():
    rng = random.Random(4217)
    tried = 0
    while tried < 40:
        w, h = rng.randint(1, 3), rng.randint(1, 3)
        k = rng.randint(1, 4)
        base = GridSpec(w, h, k)
        pos = Position(rng.randint(1, w), rng.randint(1, h))
        color = rng.randint(1, k)
        anchored = GridSpec(w, h, k, anchors=((pos, color),))
        tried += 1
        if solve(base).status == UNSAT:
            assert solve(anchored).status == UNSAT


# --- splitting --------------------------------------------------------------


def test_split_domino_two_colors():
    result = split(GridSpec(1, 2, 2), depth=1)
    assert [u.prefix for u in result.units] == [(1,), (2,)]
    assert result.emitted_prefix_assignments == 2
    assert result.prefix_overhead == 0
    assert result.assignments_at_emission == (1, 2)


def test_split_single_color_2x2():
    result = split(GridSpec(2, 2, 1), depth=1)
    assert [u.prefix for u in result.units] == [(1,)]


def test_split_counts_match_direct_prefix_enumeration():
    # consistent 2-prefixes of 3x3 k=4, counted straight from the rule
    grid = GridSpec(3, 3, 4)
    cells = [grid.position_at(0), grid.position_at(1)]
    expected = sum(
        1
        for c1, c2 in itertools.product(range(1, 5), repeat=2)
        if not (c1 == c2 and distance(cells[0], cells[1]) <= c1)
    )
    result = split(grid, depth=2)
    assert len(result.units) == expected


def test_split_depth_bounds():
    with pytest.raises(ValueError):
        split(GridSpec(2, 2, 2), depth=0)
    with pytest.raises(ValueError):
        split(GridSpec(2, 2, 2), depth=5)


def test_split_units_replay_cleanly():
    for unit in split(GridSpec(3, 3, 3), depth=3).units:
        solve_unit(unit)  # CorruptUnit would raise


def test_solve_unit_full_length_prefix_is_sat_with_zero_nodes():
    grid = GridSpec(2, 2, 3)
    full = split(grid, depth=4)
    assert full.units  # at least one complete coloring
    first = solve_unit(full.units[0])
    assert first.status == SAT
    assert first.stats.nodes == 0
    assert verify(grid, first.coloring) is None


def test_solve_unit_domino_hand_simulation():
    grid = GridSpec(1, 2, 2)
    units = split(grid, depth=1).units
    one = solve_unit(units[0])
    assert (one.status, one.stats.nodes, one.coloring) == (SAT, 1, [[1], [2]])
    two = solve_unit(units[1])
    assert (two.status, two.stats.nodes, two.coloring) == (SAT, 1, [[2], [1]])


def test_solve_unit_rejects_corrupt_prefix():
    grid = GridSpec(1, 2, 2)
    with pytest.raises(CorruptUnit):
        solve_unit(WorkUnit(grid, (1, 1)))  # second 1 is inadmissible
    with pytest.raises(CorruptUnit):
        solve_unit(WorkUnit(grid, (3,)))  # color out of budget
    with pytest.raises(CorruptUnit):
        solve_unit(WorkUnit(grid, (1, 2, 1)))  # longer than the window


def test_count_additivity_3x3_unsat():
    grid = GridSpec(3, 3, 3)
    sequential = solve(grid)
    result = split(grid, depth=1)
    total = 0
    for unit in result.units:
        unit_result = solve_unit(unit)
        assert unit_result.status == UNSAT
        total += unit_result.stats.nodes
    assert (
        sequential.stats.nodes
        == result.emitted_prefix_assignments + result.prefix_overhead + total
    )


def test_count_additivity_reconstruction_for_sat():
    # merged counts reproduce the sequential run even when a unit is SAT
    for depth in (1, 2, 3):
        grid = GridSpec(2, 2, 3)
        sequential = solve(grid)
        split_result = split(grid, depth)
        outcomes = []
        from packlat.search import UnitOutcome

        for unit in split_result.units:
            r = solve_unit(unit)
            outcomes.append(
                UnitOutcome(unit.prefix, r.status, r.stats.nodes, r.coloring)
            )
        status, coloring, sequential_nodes, _ = merge_outcomes(split_result, outcomes)
        assert status == SAT
        assert coloring == sequential.coloring
        assert sequential_nodes == sequential.stats.nodes


def test_workunit_round_trip():
    grid = GridSpec(3, 3, 3, anchors=((Position(2, 2), 2),))
    unit = WorkUnit(grid, (1, 3))
    assert WorkUnit.from_dict(unit.to_dict()) == unit


# --- checkpoints ------------------------------------------------------------


def test_checkpoint_at_zero_nodes_equals_fresh_solve():
    grid = GridSpec(3, 3, 3)
    fresh = solve(grid)
    resumed = resume(Checkpoint(grid, (), 0))
    assert (resumed.status, resumed.stats.nodes) == (fresh.status, fresh.stats.nodes)


def test_suspend_and_resume_in_short_hops():
    # 3x3 k=3 exhausts in 28 nodes, so a 5-node stride forces real suspensions
    grid = GridSpec(3, 3, 3)
    one_shot = solve(grid)
    result = solve(grid, suspend_at=5)
    hops = 0
    while result.status == INTERRUPTED:
        checkpoint = Checkpoint.from_dict(result.checkpoint.to_dict())
        result = resume(checkpoint, suspend_at=checkpoint.nodes + 5)
        hops += 1
    assert hops >= 4
    assert (result.status, result.stats.nodes) == (one_shot.status, one_shot.stats.nodes)


def test_suspended_run_reports_checkpoint_at_exact_node():
    result = solve(GridSpec(4, 4, 4), suspend_at=50)
    assert result.status == INTERRUPTED
    assert result.checkpoint is not None
    assert result.checkpoint.nodes == 50
    assert len(result.checkpoint.branch) >= 1


def test_corrupted_checkpoint_decision_fails_replay():
    result = solve(GridSpec(4, 4, 4), suspend_at=50)
    data = result.checkpoint.to_dict()
    # find a decision whose corruption lands on a forbidden color: flipping
    # the first decision to equal the second adjacent one always conflicts
    # for color 1; simpler: duplicate color across adjacent first two cells
    data["branch"] = [1, 1] + data["branch"][2:]
    with pytest.raises(CorruptCheckpoint):
        resume(Checkpoint.from_dict(data))


def test_checkpoint_version_mismatch():
    result = solve(GridSpec(3, 3, 3), suspend_at=10)
    data = result.checkpoint.to_dict()
    data["version"] = 99
    with pytest.raises(VersionMismatch):
        Checkpoint.from_dict(data)


def test_rolling_checkpoints_fire_on_schedule():
    seen = []
    solve(GridSpec(3, 3, 3), checkpoint_every=10, on_checkpoint=seen.append)
    assert seen, "expected at least one rolling checkpoint"
    assert all(cp.nodes % 10 == 0 for cp in seen)
    # resuming from any rolling checkpoint reaches the one-shot totals
    one_shot = solve(GridSpec(3, 3, 3))
    for cp in seen[::2]:
        resumed = resume(cp)
        assert (resumed.status, resumed.stats.nodes) == (
            one_shot.status, one_shot.stats.nodes,
        )


def test_interrupt_flag_suspends_with_resumable_state():
    grid = GridSpec(9, 7, 6, anchors=((Position(5, 4), 4),))
    result = solve(grid, interrupted=lambda: True)
    assert result.status == INTERRUPTED
    assert result.checkpoint.nodes == _INTERRUPT_POLL
    finished = resume(result.checkpoint)
    one_shot = solve(grid)
    assert (finished.status, finished.stats.nodes) == (
        one_shot.status, one_shot.stats.nodes,
    )


def test_progress_callback_cadence():
    seen = []
    solve(
        GridSpec(3, 3, 3),
        progress_every=10,
        on_progress=lambda nodes, frontier: seen.append((nodes, frontier)),
    )
    assert seen
    assert all(nodes % 10 == 0 for nodes, _ in seen)


# --- parallel mode ----------------------------------------------------------


def test_parallel_reproduces_sequential_counts():
    cases = [(grid, depth) for grid in (GridSpec(3, 3, 3), GridSpec(2, 2, 3), GridSpec(3, 3, 4))
             for depth in (1, 2)]
    # no prefix reaches the split depth: zero units, all work is split overhead
    cases += [(GridSpec(1, 3, 1), 2), (GridSpec(2, 2, 2), 4)]
    for grid, depth in cases:
        sequential = solve(grid)
        for workers in (1, 2):
            parallel = solve_parallel(grid, depth, workers=workers)
            assert parallel.status == sequential.status
            assert parallel.stats.nodes == sequential.stats.nodes
            assert parallel.parallel.count_reproducible
            if parallel.status == SAT:
                assert parallel.coloring == sequential.coloring
    for grid, depth, nodes in ((GridSpec(1, 3, 1), 2, 1), (GridSpec(2, 2, 2), 4, 5)):
        parallel = solve_parallel(grid, depth, workers=2)
        assert (parallel.parallel.units, parallel.status, parallel.stats.nodes) == (
            0, UNSAT, nodes)


def test_parallel_unit_sum_is_schedule_independent():
    grid = GridSpec(3, 3, 4)
    totals = {
        solve_parallel(grid, 2, workers=w).parallel.unit_nodes_total
        for w in (1, 2, 3)
    }
    assert len(totals) == 1


def test_parallel_early_exit_flags_counts_unreproducible():
    result = solve_parallel(GridSpec(2, 2, 3), depth=1, workers=1, early_exit=True)
    assert result.status == SAT
    assert not result.parallel.count_reproducible
    assert verify(GridSpec(2, 2, 3), result.coloring) is None


# --- engine routes: compiled kernel, and naive rescans in pure Python ------

ROUTES = ("c", "naive")
SWEEP = [GridSpec(w, h, k) for w in range(1, 5) for h in range(1, 5) for k in range(1, 6)]
ANCHORED_9X7 = GridSpec(9, 7, 6, anchors=((Position(5, 4), 4),))
PINNED_9X7 = {"nodes": 1_378_337, "tests": 8_270_028, "calls": 1_378_338, "max_depth": 30}
PINNED_4X4 = {"nodes": 275, "tests": 1104, "calls": 276, "max_depth": 10}

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def on_route(route, fn, *args, **kwargs):
    """Call a search entry point on one route and check that it ran there."""
    result = fn(*args, naive=route == "naive", **kwargs)
    assert result.engine == route
    return result


def outcome(result):
    return result.status, result.stats.counters(), result.coloring


@needs_cc
def test_both_routes_agree_on_counters_and_witness():
    for grid in SWEEP:
        assert outcome(on_route("c", solve, grid)) == outcome(on_route("naive", solve, grid)), grid


@needs_cc
def test_both_routes_reproduce_the_anchored_9x7_pins():
    for route in ROUTES:
        result = on_route(route, solve, ANCHORED_9X7)
        assert result.status == UNSAT
        assert result.stats.counters() == PINNED_9X7, route


def chain(route, grid, stride):
    """Suspend every ``stride`` nodes and resume from the JSON checkpoint."""
    hops = []
    result = on_route(route, solve, grid, suspend_at=stride)
    while result.status == INTERRUPTED:
        checkpoint = Checkpoint.from_dict(result.checkpoint.to_dict())
        hops.append((checkpoint.nodes, checkpoint.branch, result.stats.counters()))
        result = on_route(route, resume, checkpoint, suspend_at=checkpoint.nodes + stride)
    return hops, result


def rolling(route, grid, every):
    seen = []
    on_route(route, solve, grid, checkpoint_every=every, on_checkpoint=seen.append)
    return [(cp.nodes, cp.branch) for cp in seen]


@needs_cc
@pytest.mark.parametrize("stride", [1, 5, 97])
def test_kernel_chains_match_python_route_at_every_hop(stride):
    for grid in SWEEP:
        one_shot = solve(grid)
        hops, final = chain("c", grid, stride)
        ref_hops, ref_final = chain("naive", grid, stride)
        assert (final.status, final.stats.nodes, final.coloring) == (
            one_shot.status, one_shot.stats.nodes, one_shot.coloring,
        ), grid
        assert (hops, outcome(final)) == (ref_hops, outcome(ref_final)), grid
        assert rolling("c", grid, stride) == rolling("naive", grid, stride), grid


@needs_cc
def test_kernel_chain_on_anchored_9x7_matches_python_route():
    stride = 65_536
    hops, final = chain("c", ANCHORED_9X7, stride)
    assert (final.status, final.stats.nodes) == (UNSAT, PINNED_9X7["nodes"])
    assert len(hops) == PINNED_9X7["nodes"] // stride
    assert [h[:2] for h in hops] == rolling("naive", ANCHORED_9X7, stride)


@pytest.mark.parametrize("route", [pytest.param("c", marks=needs_cc), "naive"])
def test_tampered_checkpoint_is_rejected_on_every_route(route):
    grid = GridSpec(4, 4, 4)
    good = on_route(route, solve, grid, suspend_at=50).checkpoint.to_dict()
    for branch in ([1, 1], [5], good["branch"] + [1] * 16):
        data = dict(good, branch=branch)
        with pytest.raises(CorruptCheckpoint):
            on_route(route, resume, Checkpoint.from_dict(data))
    assert on_route(route, resume, Checkpoint.from_dict(good)).status == UNSAT


@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    """An empty kernel cache, so no test touches the real one."""
    monkeypatch.setattr(search, "_KERNEL_CACHE", str(tmp_path))
    search._load_kernel.cache_clear()
    yield tmp_path
    search._load_kernel.cache_clear()


@needs_cc
def test_kernel_is_built_once_into_the_cache(kernel_cache):
    assert solve(GridSpec(3, 3, 3)).engine == "c"
    built = sorted(kernel_cache.iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
    search._load_kernel.cache_clear()
    assert solve(GridSpec(3, 3, 3)).engine == "c"
    assert sorted(kernel_cache.iterdir()) == built


def cli_report(capfd):
    """``packlat solve`` on 4x4 k=4: exit 10, pinned counters, a clean stderr."""
    code = main(["solve", "--width", "4", "--height", "4", "--k", "4"])
    out, err = capfd.readouterr()  # file descriptors: a compiler's output shows too
    assert (code, err) == (10, "")
    report = json.loads(out)
    assert report["stats"] == PINNED_4X4
    return report


@pytest.mark.parametrize("compiler", ["packlat-no-such-compiler", "false"])
def test_missing_or_failing_compiler_falls_back_to_python(
    kernel_cache, monkeypatch, capfd, compiler,
):
    monkeypatch.setattr(search, "_KERNEL_CC", (compiler,))
    assert cli_report(capfd)["volatile"]["engine"] == "naive"
    assert list(kernel_cache.iterdir()) == []  # no half-built file left behind


def damaged_kernel(cache):
    lib = search._build_kernel(cache, search._kernel_key())
    lib.write_bytes(lib.read_bytes()[: lib.stat().st_size // 2])
    return lib


@needs_cc
def test_damaged_cached_kernel_is_rebuilt(kernel_cache, capfd):
    damaged = damaged_kernel(kernel_cache).read_bytes()
    assert cli_report(capfd)["volatile"]["engine"] == "c"
    (lib,) = kernel_cache.iterdir()
    assert lib.read_bytes() != damaged
    assert search._intact(lib, search._kernel_key())


@needs_cc
def test_truncated_cached_kernel_falls_back_to_python(kernel_cache, monkeypatch, capfd):
    # damaged in the cache and no compiler on PATH to rebuild it
    damaged_kernel(kernel_cache)
    monkeypatch.setenv("PATH", str(kernel_cache / "no-such-dir"))
    assert cli_report(capfd)["volatile"]["engine"] == "naive"
    assert list(kernel_cache.iterdir()) == []


def test_colors_wider_than_the_kernel_word_run_on_python():
    wide = solve(GridSpec(2, 2, search._KERNEL_COLORS + 1))
    assert wide.engine == "naive"
    assert outcome(wide) == outcome(solve(GridSpec(2, 2, 3)))


@needs_cc
def test_kernel_backtracks_past_the_top_bit_of_its_word():
    # only color 32 fits the first cell and nothing fits the second, so
    # the search must leave the first cell with every color tried
    engine = search._Engine(GridSpec(1, 2, search._KERNEL_COLORS))
    assert engine.route == "c"
    engine._forb[:] = [0x7FFFFFFF, 0xFFFFFFFF]
    assert engine.run(suspend_at=10) == UNSAT  # a wrapped shift loops
    assert (engine.nodes, engine.tests, engine.calls, engine.max_pos) == (1, 64, 2, 1)
