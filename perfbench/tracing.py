"""Span tracing and the in-process passes of the traced run (``--trace 1``).

A pass makes, in the benchmark's own process, the library calls that the
workload's CLI processes make. ``Tracer.call`` records a span around each
call into a layer: name, start, end, parent span and pass id, plus the
counts the call returned. Spans stay in memory until the run ends. A
disabled tracer calls straight through, so an untraced pass of the same
code gives the tracing overhead.

The table build is private to ``packlat.search``; it is reached as the
first ``solve(grid, suspend_at=1)`` on each grid after the runner clears
the ``lru_cache`` on ``search._tables``. Every later solve on that grid
is kernel only.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import packlat.oracle as oracle_module
from packlat.cli import build_report
from packlat.coloring import verify
from packlat.oracle import packing_chromatic_number
from packlat.render import render_svg
from packlat.search import (
    UnitOutcome,
    merge_outcomes,
    solve,
    solve_parallel,
    solve_unit,
    split,
)

import workloads as wl

LAYER_OF = {
    "grid.GridSpec": "grid",
    "search.tables": "tables",
    "search.solve": "kernel",
    "search.resume": "kernel",
    "search.solve_unit": "unit",
    "search.split": "split",
    "search.solve_parallel": "dispatch",
    "search.merge_outcomes": "merge",
    "checkpoint.write": "checkpoint",
    "checkpoint.from_dict": "checkpoint",
    "search.resume.replay": "checkpoint",
    "coloring.verify": "verify",
    "oracle.packing_chromatic_number": "oracle",
    "oracle.enumerate_feasible": "oracle",
    "render.render_svg": "render",
    "cli.build_report": "cli",
}
KERNEL_SPANS = ("search.solve", "search.resume", "search.solve_unit")

# Layers a workload never calls are measured on these small fixed inputs.
PROBE_PAR = ({"w": 6, "h": 4, "k": 6, "anchor": None}, 4, 2)  # grid, depth, workers
PROBE_HEADLINE_N = 20_000


class Mismatch(Exception):
    """An in-process pass produced counts that differ from the pins."""


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.run: str | None = None
        self._open: list[int] = []

    def call(self, name: str, fn, *args, counts=None, **kwargs):
        """Call fn, recording a span; ``counts(result)`` adds counts to it."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = {"id": len(self.spans), "name": name, "run": self.run,
                "parent": self._open[-1] if self._open else None}
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        if counts is not None:
            span.update(counts(result))
        return result

    @staticmethod
    def search_counts(result) -> dict:
        return result.stats.counters()

    def of_run(self, run: str) -> list[dict]:
        return [s for s in self.spans if s["run"] == run]


def split_counts(result) -> dict:
    return {"units": len(result.units), "prefix_overhead": result.prefix_overhead}


def expect(got, want, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: {got} != pinned {want}")


def report_text(grid, mode: str, result) -> str:
    """What ``packlat solve`` prints for a result: build_report as sorted JSON."""
    return json.dumps(build_report(grid, mode, {}, result, time.time()), indent=2, sort_keys=True)


def _report(tr: Tracer, grid, mode: str, result) -> None:
    tr.call("cli.build_report", report_text, grid, mode, result)


def build_grid(tr: Tracer, entry: dict, built: set):
    """Build the GridSpec; on its first use in the pass, build its tables."""
    grid = tr.call("grid.GridSpec", wl.grid_of, entry)
    if grid not in built:
        built.add(grid)
        bits = (grid.n_cells - len(grid.anchors)) * grid.max_color
        tr.call("search.tables", solve, grid, suspend_at=1,
                counts=lambda _: {"mask_bits": bits})
    return grid


def pass_seq(tr: Tracer, workdir: Path) -> dict:
    grid = build_grid(tr, wl.SEQ_GRID, set())
    result = tr.call("search.solve", solve, grid, counts=Tracer.search_counts)
    _report(tr, grid, "seq", result)
    expect(result.stats.counters(), wl.SEQ_PINS, "seq-exhaust counters")
    return {"kernel": result.stats.counters()}


def run_par(tr: Tracer, entry: dict, depth: int, workers: int) -> dict:
    """Split, every unit in turn, merge, then the same tree by solve_parallel."""
    grid = build_grid(tr, entry, set())
    cut = tr.call("search.split", split, grid, depth, counts=split_counts)
    outcomes = []
    for unit in cut.units:
        r = tr.call("search.solve_unit", solve_unit, unit, counts=Tracer.search_counts)
        outcomes.append(UnitOutcome(unit.prefix, r.status, r.stats.nodes, r.coloring,
                                    r.stats.tests, r.stats.calls, r.stats.max_depth))
    status, _, sequential, unit_total = tr.call("search.merge_outcomes", merge_outcomes, cut, outcomes)
    par = tr.call("search.solve_parallel", solve_parallel, grid, depth, workers=workers,
                  counts=lambda r: {"workers": r.parallel.workers})
    _report(tr, grid, "par", par)
    info = vars(par.parallel)
    return {
        "merged": {"status": status, "nodes": sequential, "unit_nodes_total": unit_total,
                   "units": len(cut.units), "prefix_overhead": cut.prefix_overhead,
                   "emitted_prefix_assignments": cut.emitted_prefix_assignments},
        "solve_parallel": dict(par.stats.counters(), status=par.status, **info),
    }


def pass_par(tr: Tracer, workdir: Path) -> dict:
    got = run_par(tr, wl.SEQ_GRID, wl.PAR_DEPTH, wl.PAR_WORKERS)
    expect(got["solve_parallel"], dict(wl.PAR_PINS, status="UNSAT", **wl.PAR_INFO),
           "par-exhaust solve_parallel")
    merged = {key: wl.PAR_INFO[key] for key in
              ("unit_nodes_total", "units", "prefix_overhead", "emitted_prefix_assignments")}
    expect(got["merged"], dict(merged, status="UNSAT", nodes=wl.PAR_PINS["nodes"]),
           "par-exhaust split and merge")
    return got


def pass_headline(tr: Tracer, workdir: Path) -> dict:
    from headline_job import run_headline

    got = run_headline(tr, wl.HEADLINE_N, workdir / "cp", replay_probe=True)
    expect(got, wl.HEADLINE_PINS, "headline-prefix counters")
    return got


def run_batch(tr: Tracer, ops: list[dict]) -> dict:
    """The library calls behind each CLI operation of a cli-batch pass.

    ``packing_chromatic_number`` calls ``enumerate_feasible`` through the
    oracle module, so the pass swaps in a wrapper there to record those
    inner calls and the assignments they examine.
    """
    inner = oracle_module.enumerate_feasible
    oracle_module.enumerate_feasible = lambda grid: tr.call(
        "oracle.enumerate_feasible", inner, grid,
        counts=lambda r: {"examined": r.total_assignments_examined})
    try:
        return _batch_ops(tr, ops)
    finally:
        oracle_module.enumerate_feasible = inner


def _batch_ops(tr: Tracer, ops: list[dict]) -> dict:
    built: set = set()
    colorings: dict = {}
    cut, outcomes = None, []
    nodes = 0
    for op in ops:
        kind = op["op"]
        if kind == "solve":
            grid = build_grid(tr, op["grid"], built)
            r = tr.call("search.solve", solve, grid, counts=Tracer.search_counts)
            _report(tr, grid, "seq", r)
            expect((r.status, r.stats.counters()), (op["status"], op["pins"]), f"solve {op['grid']}")
            colorings[op["witness"]] = (grid, r.coloring)
            nodes += r.stats.nodes
        elif kind == "verify":
            grid, rows = colorings[op["witness"]]
            expect(tr.call("coloring.verify", verify, grid, rows), None, "verify")
        elif kind == "render":
            _, rows = colorings[op["witness"]]
            svg = tr.call("render.render_svg", render_svg, rows)
            expect(svg.count("<rect "), op["grid"]["w"] * op["grid"]["h"], "render cells")
        elif kind == "chi":
            chi = tr.call("oracle.packing_chromatic_number", packing_chromatic_number,
                          op["w"], op["h"], op["cap"])
            expect(chi, op["chi"], f"chi {op['w']}x{op['h']}")
        elif kind == "split":
            grid = build_grid(tr, op["grid"], built)
            cut = tr.call("search.split", split, grid, op["depth"], counts=split_counts)
            outcomes = []
            expect(len(cut.units), op["units"], "split units")
        elif kind == "solve-unit":
            unit = cut.units[op["index"]]
            r = tr.call("search.solve_unit", solve_unit, unit, counts=Tracer.search_counts)
            _report(tr, unit.grid, "unit", r)
            expect((r.status, r.stats.nodes), (op["status"], op["nodes"]), "solve-unit")
            outcomes.append(UnitOutcome(unit.prefix, r.status, r.stats.nodes, r.coloring))
            nodes += r.stats.nodes
        elif kind == "merge":
            status, _, sequential, _ = tr.call("search.merge_outcomes", merge_outcomes, cut, outcomes)
            expect((status, sequential), (op["status"], op["sequential_nodes"]), "merge")
    return {"nodes": nodes}


def pass_batch(ops: list[dict]):
    return lambda tr, workdir: run_batch(tr, ops)


def probe(tr: Tracer, workdir: Path, pool: dict) -> None:
    """Call every layer once on small fixed inputs.

    Only ``run_par`` calls split, solve_unit, merge_outcomes and
    solve_parallel, so the dispatch metrics taken from the probe are judged
    against the split and units of the same tree.
    """
    from headline_job import run_headline

    run_par(tr, *PROBE_PAR)
    run_headline(tr, PROBE_HEADLINE_N, workdir / "cp", replay_probe=True)
    run_batch(tr, wl.probe_batch(pool))


def _self_times(spans: list[dict]) -> dict[int, float]:
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], probe_spans: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, and the layers taken from the probe.

    A layer the pass never called is measured on the probe's spans.
    """
    layers = set(LAYER_OF.values())
    have = {LAYER_OF[s["name"]] for s in spans}
    if any(s["name"] in KERNEL_SPANS for s in spans):
        have.add("kernel")  # units run the same DFS kernel as solve and resume
    from_probe = sorted(layers - have)
    source = {layer: (spans if layer in have else probe_spans) for layer in layers}
    own = _self_times(spans) | _self_times(probe_spans)

    def pick(layer, *names):
        names = names or tuple(n for n, lay in LAYER_OF.items() if lay == layer)
        return [s for s in source[layer] if s["name"] in names]

    def busy(items):
        return sum(own[s["id"]] for s in items)

    m = {"grid.busy_s": busy(pick("grid"))}
    tables = pick("tables")
    m["tables.build_s"] = busy(tables)
    m["tables.mask_bits"] = sum(s["mask_bits"] for s in tables)

    kernel = [s for s in source["kernel"] if s["name"] in KERNEL_SPANS]
    nodes = sum(s["nodes"] for s in kernel)
    tests = sum(s["tests"] for s in kernel)
    m["kernel.busy_s"] = busy(kernel)
    m["kernel.ns_per_node"] = m["kernel.busy_s"] / nodes * 1e9
    m["kernel.nodes"] = nodes
    m["kernel.tests"] = tests
    m["kernel.calls"] = sum(s["calls"] for s in kernel)
    m["kernel.max_depth"] = max(s["max_depth"] for s in kernel)
    m["kernel.nodes_per_test"] = nodes / tests

    cuts = pick("split")
    m["split.busy_s"] = busy(cuts)
    m["split.units"] = sum(s["units"] for s in cuts)
    m["split.prefix_overhead"] = sum(s["prefix_overhead"] for s in cuts)

    units = pick("unit")
    unit_busy = [own[s["id"]] for s in units]
    m["unit.busy_s_p50"] = statistics.median(unit_busy)
    m["unit.busy_s_max"] = max(unit_busy)
    m["unit.nodes_max_share"] = max(s["nodes"] for s in units) / sum(s["nodes"] for s in units)

    # dispatch is judged against the split and units of the same pass
    pars = pick("dispatch")
    same = source["dispatch"]
    wall = sum(s["end"] - s["start"] for s in pars)
    workers = pars[0]["workers"]
    unit_total = busy([s for s in same if s["name"] == "search.solve_unit"])
    split_busy = busy([s for s in same if s["name"] == "search.split"])
    m["dispatch.overhead_s"] = wall - split_busy - unit_total / workers
    m["par.efficiency"] = unit_total / (workers * wall)

    m["merge.busy_s"] = busy(pick("merge"))

    writes = pick("checkpoint", "checkpoint.write")
    m["checkpoint.writes"] = len(writes)
    m["checkpoint.write_s"] = busy(writes)
    m["checkpoint.bytes"] = sum(s["bytes"] for s in writes)
    m["resume.replay_s"] = busy(pick("checkpoint", "search.resume.replay"))

    checks = pick("verify")
    m["verify.busy_s"] = busy(checks)
    m["verify.calls"] = len(checks)
    oracle = pick("oracle")
    m["oracle.busy_s"] = busy(oracle)
    m["oracle.assignments_examined"] = sum(s.get("examined", 0) for s in oracle)
    m["render.busy_s"] = busy(pick("render"))
    m["cli.report_s"] = busy(pick("cli"))
    return m, from_probe
