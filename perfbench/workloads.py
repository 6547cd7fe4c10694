"""Workloads, pinned counts and metric definitions of the packlat benchmark.

Every workload checks its outputs against pinned counts, so a faster
number can never come from a different search tree. An operation fails,
counts in ``failed`` and gets no timing when its exit code is wrong, a
pinned counter does not match, a witness fails ``verify``, a merge does
not reconstruct the sequential count, a status disagrees with the
oracle, or its stderr holds a traceback.

Workloads, and why each is here:

* ``seq-exhaust``: the canonical 9x7 k=6 certificate in one fresh
  ``packlat solve`` process; the mask kernel fills about 90% of its wall
  time, so kernel changes show here.
* ``par-exhaust``: the same tree cut into 2,279 units of about 600 nodes
  and run by 2 workers, so per-unit costs (split, pickling, pool
  dispatch) are a visible share; against ``seq-exhaust`` it gives the
  parallel efficiency.
* ``headline-prefix``: the first 2N nodes of the 15x9 k=11 headline tree,
  with checkpoint files, a checkpoint load and a resume; its mask has
  1,474 bits against 372 on 9x7, and only it writes checkpoints.
* ``cli-batch``: a seeded mix of short CLI calls on small windows where
  interpreter start and import dominate each call, so work moved into
  set-up shows; it is the only workload that runs ``verify``, the
  oracle, ``render`` and the split/merge file formats.

End-to-end metrics (printed with ``--trace 0``):

* ``wall_s`` (s): median wall time of the workload's fixed amount of
  work: one solve process, one headline job, or one pass of the batch.
* ``nodes_per_s`` (1/s): the pinned search nodes of that work divided by
  ``wall_s``. ``par-exhaust`` uses the reconstructed sequential count.
* ``setup_s`` (s): median time for a fresh interpreter to import packlat,
  build the GridSpec and return from ``solve(grid, suspend_at=1)``; the
  table build happens here. On ``cli-batch`` the median runs over the
  batch's solve instances.
* ``op_latency_p50_s`` and ``op_latency_p90_s`` (s): latency of one
  process the workload starts. The high figure is p90, or else the
  highest percentile with at least ten samples beyond it, floored at the
  median; the percentile used and the sample count are printed.
* ``ops_per_s`` (1/s): operations completed per second of measuring.
* ``peak_rss_mb`` (MB): largest resident set of any process the run
  started, from ``getrusage(RUSAGE_CHILDREN)``.
* ``success_rate`` (ratio): 1 - error_rate, where error_rate is failed
  operations over attempted ones (the ``failed`` and ``attempted``
  fields of the result). A metric that is 0 on a clean run cannot carry
  a relative bound, so the benchmark bounds its complement.

Which per-layer metric (``--trace 1``) should move which end-to-end
metric, on which workload:

=================================================  =========================  ==================================
per-layer metrics                                  end-to-end metric          workload
=================================================  =========================  ==================================
kernel.busy_s, kernel.ns_per_node, kernel.nodes,   nodes_per_s, wall_s        seq-exhaust, headline-prefix;
kernel.tests, kernel.calls, kernel.max_depth,                                 par-exhaust scaled by
kernel.nodes_per_test                                                         par.efficiency; ~0 on cli-batch
tables.build_s, tables.mask_bits                   setup_s                    headline-prefix, cli-batch
split.busy_s, split.units, split.prefix_overhead   wall_s                     par-exhaust
unit.busy_s_p50, unit.busy_s_max,                  wall_s                     par-exhaust
unit.nodes_max_share
dispatch.overhead_s, par.efficiency                wall_s                     par-exhaust
merge.busy_s                                       wall_s                     par-exhaust
checkpoint.writes, checkpoint.write_s,             wall_s                     headline-prefix
checkpoint.bytes, resume.replay_s
verify.busy_s, verify.calls                        op_latency_*               cli-batch
oracle.busy_s, oracle.assignments_examined         op_latency_*               cli-batch
render.busy_s                                      op_latency_*               cli-batch
cli.startup_s, cli.report_s                        setup_s, op_latency_*      every workload; op_latency_* on
                                                                              cli-batch
grid.busy_s                                        setup_s                    every workload
trace.overhead_s, trace.spans                      (none: cost of tracing)    every workload
=================================================  =========================  ==================================
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

from packlat.coloring import load_coloring, verify
from packlat.grid import GridSpec, Position

HERE = Path(__file__).resolve().parent

EXIT = {"SAT": 0, "UNSAT": 10}

SEQ_GRID = {"w": 9, "h": 7, "k": 6, "anchor": [5, 4, 4]}
SEQ_PINS = {"nodes": 1378337, "tests": 8270028, "calls": 1378338, "max_depth": 30}

PAR_DEPTH = 6
PAR_WORKERS = 2
# tests and calls are sums over units; nodes is the reconstructed sequential count
PAR_PINS = {"nodes": 1378337, "tests": 8260878, "calls": 1376813, "max_depth": 30}
PAR_INFO = {
    "depth": PAR_DEPTH,
    "units": 2279,
    "unit_nodes_total": 1374534,
    "emitted_prefix_assignments": 3799,
    "prefix_overhead": 4,
    "count_reproducible": True,
    "early_exit": False,
    "workers": PAR_WORKERS,
}

HEADLINE_GRID = {"w": 15, "h": 9, "k": 11, "anchor": [5, 5, 9]}
HEADLINE_N = 500_000
HEADLINE_SLICE_WRITES = 4  # checkpoint files per slice, the last one at the slice end
# counters of solve(suspend_at=N) and of resume(last checkpoint, suspend_at=2N);
# resume restarts tests, calls and max_depth from the resume point
HEADLINE_PINS = {
    "at_n": {"nodes": 500000, "tests": 5499585, "calls": 500001, "max_depth": 55,
             "status": "INTERRUPTED", "branch_len": 51,
             "branch_sha256": "c9aa15b6afaf012a3e9830faaa11a942237671367bf5d6dee17fc24b75cf1f83"},
    "at_2n": {"nodes": 1000000, "tests": 5500039, "calls": 500001, "max_depth": 53,
              "status": "INTERRUPTED", "branch_len": 47,
              "branch_sha256": "fc13baecf8f0b2515cac9bb2901de7dabcf9994a9f725a0b8e5bfc3f86e4cfc1"},
    "checkpoint_writes": 2 * HEADLINE_SLICE_WRITES,
}

BATCH_SAT = 12       # SAT solves, each followed by verify and render of its witness
BATCH_UNSAT = 4      # small UNSAT solves
# plus one SAT and one UNSAT solve on windows whose status the oracle confirmed
BATCH_CHI = 3        # oracle calls
BATCH_NODES = 250_000


def grid_of(entry: dict) -> GridSpec:
    anchors = ()
    if entry["anchor"]:
        col, row, color = entry["anchor"]
        anchors = ((Position(col, row), color),)
    return GridSpec(entry["w"], entry["h"], entry["k"], anchors)


def grid_args(entry: dict) -> list[str]:
    args = ["--width", str(entry["w"]), "--height", str(entry["h"]), "--k", str(entry["k"])]
    if entry["anchor"]:
        args += ["--anchor", ",".join(map(str, entry["anchor"]))]
    return args


def load_pool() -> dict:
    return json.loads((HERE / "pool.json").read_text(encoding="utf-8"))


def solve_job(i: int, entry: dict) -> list[dict]:
    grid = {key: entry[key] for key in ("w", "h", "k", "anchor")}
    pins = {key: entry[key] for key in ("nodes", "tests", "calls", "max_depth")}
    witness = f"w{i:02d}.json"
    job = [{"op": "solve", "grid": grid, "status": entry["status"], "pins": pins,
            "oracle": entry["oracle"], "witness": witness}]
    if entry["status"] == "SAT":
        job += [{"op": "verify", "grid": grid, "witness": witness},
                {"op": "render", "grid": grid, "witness": witness}]
    return job


def pipeline_job(entry: dict) -> list[dict]:
    units = len(entry["unit_nodes"])
    job = [{"op": "split", "grid": entry["grid"], "depth": entry["depth"], "units": units}]
    job += [{"op": "solve-unit", "index": j, "status": entry["unit_status"][j],
             "nodes": entry["unit_nodes"][j]} for j in range(units)]
    job.append({"op": "merge", "grid": entry["grid"], "units": units,
                "status": entry["status"], "sequential_nodes": entry["sequential_nodes"]})
    return job


def chi_job(entry: dict) -> list[dict]:
    return [{"op": "chi", "w": entry["w"], "h": entry["h"], "cap": entry["chi"] + 1,
             "chi": entry["chi"]}]


def probe_batch(pool: dict) -> list[dict]:
    """One solve, verify, render and chi call, for layers a traced workload never calls.

    It holds no split pipeline: the probe's split, unit, merge and dispatch
    spans all come from one parallel run on one tree.
    """
    return solve_job(0, pool["oracle_sat"][0]) + chi_job(pool["chi"][-1])


def cli_batch(seed: int, pool: dict) -> list[dict]:
    """The seeded list of CLI operations that make one pass of cli-batch.

    The seed picks every instance but the last two UNSAT solves: they are
    the pair from the pool that brings the pass's search nodes closest to
    BATCH_NODES, so every seed's pass does the same search work within 1%
    and runs the same number of processes.
    """
    rng = random.Random(seed)
    sat = rng.sample(pool["sat_small"], BATCH_SAT)
    sat += [rng.choice(pool["oracle_sat"])]
    unsat = rng.sample(pool["unsat_small"], BATCH_UNSAT) + [rng.choice(pool["oracle_unsat"])]
    chi = rng.sample(pool["chi"], BATCH_CHI)
    pipe = rng.choice(pool["pipeline"])
    rest = sum(e["nodes"] for e in sat + unsat) + sum(pipe["unit_nodes"])
    pair = min(
        combinations(pool["unsat_medium"], 2),
        key=lambda ab: abs(BATCH_NODES - rest - ab[0]["nodes"] - ab[1]["nodes"]),
    )
    jobs = [solve_job(i, e) for i, e in enumerate(sat + unsat + list(pair))]
    jobs += [chi_job(c) for c in chi]
    jobs.append(pipeline_job(pipe))
    rng.shuffle(jobs)
    return [op for job in jobs for op in job]


def batch_digest(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()[:16]


def op_nodes(op: dict) -> int:
    """Pinned search nodes an operation performs (0 for non-search calls)."""
    if op["op"] == "solve":
        return op["pins"]["nodes"]
    if op["op"] == "solve-unit":
        return op["nodes"]
    if op["op"] == "headline":
        return 2 * HEADLINE_N
    return 0


UNITS_DIR = "units"


def op_argv(op: dict) -> list[str]:
    """Arguments after ``python -m packlat.cli`` for one CLI operation."""
    kind = op["op"]
    if kind == "solve":
        argv = ["solve", *grid_args(op["grid"])]
        if op.get("mode") == "par":
            argv += ["--mode", "par", "--split-depth", str(PAR_DEPTH),
                     "--workers", str(PAR_WORKERS)]
        if "witness" in op:
            argv += ["--witness-file", op["witness"]]
        return argv
    if kind == "verify":
        return ["verify", op["witness"]]
    if kind == "render":
        return ["render", op["witness"], "--format", "svg"]
    if kind == "chi":
        return ["chi", "--width", str(op["w"]), "--height", str(op["h"]), "--cap", str(op["cap"])]
    if kind == "split":
        return ["split", *grid_args(op["grid"]), "--split-depth", str(op["depth"]),
                "--out-dir", UNITS_DIR]
    if kind == "solve-unit":
        return ["solve-unit", f"{UNITS_DIR}/unit_{op['index']:04d}.json"]
    if kind == "merge":
        reports = [f"{UNITS_DIR}/report_{j:04d}.json" for j in range(op["units"])]
        return ["merge", f"{UNITS_DIR}/split.json", *reports,
                "--expect-sequential-nodes", str(op["sequential_nodes"])]
    raise ValueError(f"unknown operation {kind!r}")


def check_op(op: dict, code: int, out: str, err: str, workdir: Path) -> str | None:
    """Why an operation's outputs are wrong, or None when they are right."""
    if "Traceback (most recent call last)" in err:
        return "traceback on stderr"
    kind = op["op"]
    if kind == "solve":
        return _check_solve(op, code, out, workdir)
    if kind == "headline":
        return _check_headline(code, out)
    if kind == "verify":
        return None if code == 0 and out.strip() == "OK" else f"verify: exit {code}, {out.strip()!r}"
    if kind == "render":
        cells = op["grid"]["w"] * op["grid"]["h"]
        if code != 0 or not out.startswith("<?xml") or out.count("<rect ") != cells:
            return f"render: exit {code} or malformed SVG"
        return None
    if kind == "chi":
        if code != 0 or out.strip() != str(op["chi"]):
            return f"oracle: chi {out.strip()!r} (exit {code}), expected {op['chi']}"
        return None
    if kind == "split":
        if code != 0:
            return f"split: exit {code}"
        manifest = json.loads(out)
        return None if manifest["units"] == op["units"] else f"split: {manifest['units']} units"
    if kind == "solve-unit":
        if code != EXIT[op["status"]]:
            return f"solve-unit: exit {code}, expected {EXIT[op['status']]}"
        nodes = json.loads(out)["stats"]["nodes"]
        return None if nodes == op["nodes"] else f"solve-unit: nodes {nodes} != {op['nodes']}"
    if kind == "merge":
        if code != EXIT[op["status"]]:
            return f"merge: exit {code}, expected {EXIT[op['status']]}"
        nodes = json.loads(out)["stats"]["nodes"]
        return None if nodes == op["sequential_nodes"] else f"merge: nodes {nodes}"
    raise ValueError(f"unknown operation {kind!r}")


def _check_solve(op: dict, code: int, out: str, workdir: Path) -> str | None:
    expected = EXIT[op["status"]]
    if code != expected:
        return f"solve: exit {code}, expected {expected}"
    report = json.loads(out)
    if report["status"] != op["status"]:
        source = "the oracle" if op.get("oracle") else "the pinned status"
        return f"solve: status {report['status']} disagrees with {source}"
    if report["stats"] != op["pins"]:
        return f"solve: counters {report['stats']} != pinned {op['pins']}"
    if op.get("mode") == "par" and report["parallel"] != PAR_INFO:
        return f"solve: parallel bookkeeping {report['parallel']} != pinned"
    if report["status"] == "SAT" and "witness" in op:
        grid, rows = load_coloring((workdir / op["witness"]).read_text(encoding="utf-8"))
        if grid != grid_of(op["grid"]) or verify(grid, rows) is not None:
            return "solve: witness fails verify"
    return None


def _check_headline(code: int, out: str) -> str | None:
    if code != 0:
        return f"headline job: exit {code}"
    got = json.loads(out)
    return None if got == HEADLINE_PINS else f"headline job: counters {got} != pinned"
