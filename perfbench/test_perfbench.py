"""Tests of the benchmark's own logic: seeding, pins, percentiles, spans.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from packlat.grid import GridSpec  # noqa: E402
from packlat.oracle import enumerate_feasible  # noqa: E402


@pytest.fixture(scope="module")
def pool():
    return wl.load_pool()


def test_same_seed_gives_identical_batch(pool):
    assert wl.cli_batch(7, pool) == wl.cli_batch(7, pool)
    assert wl.batch_digest(wl.cli_batch(7, pool)) != wl.batch_digest(wl.cli_batch(8, pool))


def test_every_seed_does_the_same_amount_of_work(pool):
    batches = [wl.cli_batch(seed, pool) for seed in range(1, 41)]
    assert len({len(ops) for ops in batches}) == 1
    for ops in batches:
        nodes = sum(wl.op_nodes(op) for op in ops)
        assert abs(nodes - wl.BATCH_NODES) <= 0.01 * wl.BATCH_NODES
        assert sum(op["op"] == "solve" and op["oracle"] for op in ops) >= 2


def test_batch_pins_match_the_library(pool):
    ops = wl.cli_batch(3, pool)
    got = tracing.run_batch(tracing.Tracer(enabled=False), ops)
    assert got["nodes"] == sum(wl.op_nodes(op) for op in ops)


def test_oracle_flags_hold(pool):
    for entry in pool["oracle_sat"][:5] + pool["oracle_unsat"][:5]:
        assert enumerate_feasible(wl.grid_of(entry)).sat == (entry["status"] == "SAT")


def test_high_percentile_needs_ten_samples_beyond_it():
    assert run.high_percentile([float(i) for i in range(1, 101)]) == (90.0, 90)
    assert run.high_percentile([float(i) for i in range(1, 51)]) == (40.0, 80)
    assert run.high_percentile([1.0, 2.0, 3.0, 10.0]) == (2.5, 50)


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "search.solve", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "checkpoint.write", "parent": 0, "start": 2.0, "end": 3.0},
        {"id": 2, "name": "checkpoint.write", "parent": 0, "start": 5.0, "end": 7.0},
    ]
    assert tracing._self_times(spans) == {0: 7.0, 1: 1.0, 2: 2.0}


def test_probe_covers_every_layer_metric(pool, tmp_path):
    tracer = tracing.Tracer()
    tracer.run = "probe"
    tracing.probe(tracer, tmp_path, pool)
    spans = tracer.of_run("probe")
    metrics, from_probe = tracing.layer_metrics(spans, spans)
    assert from_probe == []
    runner_metrics = {"cli.startup_s", "trace.overhead_s", "trace.spans"}
    assert set(metrics) | runner_metrics == set(run.PER_LAYER_UNITS)
    assert metrics["checkpoint.writes"] == 2 * wl.HEADLINE_SLICE_WRITES
    # split, units and dispatch all describe the one tree of the parallel probe
    grid, depth, workers = tracing.PROBE_PAR
    assert metrics["split.units"] == len(tracing.split(wl.grid_of(grid), depth).units)
    assert [s["workers"] for s in spans if s["name"] == "search.solve_parallel"] == [workers]


def test_benchmark_json_names_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOADS


def test_grid_round_trip():
    entry = {"w": 4, "h": 3, "k": 5, "anchor": [2, 2, 5]}
    grid = wl.grid_of(entry)
    assert grid == GridSpec.from_dict(grid.to_dict())
    assert wl.grid_args(entry) == ["--width", "4", "--height", "3", "--k", "5", "--anchor", "2,2,5"]
