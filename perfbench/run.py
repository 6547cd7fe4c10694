"""Benchmark of the packlat package: time to certificate on pinned trees.

Run from the root of a checkout (the package is taken from ``src``)::

    python3 perfbench/run.py --workload seq-exhaust --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics from fresh ``packlat`` CLI
processes. ``--trace 1`` makes the same library calls in this process,
once untraced and once with a span around each call into a layer, and
reports the per-layer metrics and the tracing overhead. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Workloads, metrics and the layer table are described in
``workloads.py``; ``collect.py`` runs every workload over several seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
TRACE_OUT = ROOT / ".perfbench_out"
WORKLOADS = ("seq-exhaust", "par-exhaust", "headline-prefix", "cli-batch")
OP_TIMEOUT_S = 150
STARTUP_PROBES = 5  # fresh interpreters that only import packlat.cli, per traced run

END_TO_END_UNITS = {
    "wall_s": "s",
    "nodes_per_s": "1/s",
    "setup_s": "s",
    "op_latency_p50_s": "s",
    "op_latency_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER_UNITS = {
    "grid.busy_s": "s",
    "tables.build_s": "s",
    "tables.mask_bits": "bits",
    "kernel.busy_s": "s",
    "kernel.ns_per_node": "ns",
    "kernel.nodes": "count",
    "kernel.tests": "count",
    "kernel.calls": "count",
    "kernel.max_depth": "cells",
    "kernel.nodes_per_test": "ratio",
    "split.busy_s": "s",
    "split.units": "count",
    "split.prefix_overhead": "count",
    "unit.busy_s_p50": "s",
    "unit.busy_s_max": "s",
    "unit.nodes_max_share": "ratio",
    "dispatch.overhead_s": "s",
    "par.efficiency": "ratio",
    "merge.busy_s": "s",
    "checkpoint.writes": "count",
    "checkpoint.write_s": "s",
    "checkpoint.bytes": "bytes",
    "resume.replay_s": "s",
    "verify.busy_s": "s",
    "verify.calls": "count",
    "oracle.busy_s": "s",
    "oracle.assignments_examined": "count",
    "render.busy_s": "s",
    "cli.startup_s": "s",
    "cli.report_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

SETUP_SNIPPET = (
    "import sys\n"
    "from packlat.grid import GridSpec\n"
    "from packlat.search import solve\n"
    "solve(GridSpec.from_json(sys.argv[1]), suspend_at=1)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], cwd: Path) -> tuple[int, str, str, float]:
    """Run one process to completion in its own session; return code, out, err, seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {OP_TIMEOUT_S} s"
    return proc.returncode, out, err, time.perf_counter() - start


def timed_setup(grid_json: str, cwd: Path) -> float:
    code, _, err, seconds = run_child([sys.executable, "-c", SETUP_SNIPPET, grid_json], cwd)
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return seconds


def high_percentile(samples: list[float]) -> tuple[float, int]:
    """p90, or else the highest percentile with ten samples beyond it, or else p50.

    Nearest rank on the sorted samples; returns the value and the percentile.
    """
    n = len(samples)
    if n < 20:
        return statistics.median(samples), 50
    rank = -(-9 * n // 10) if n >= 100 else n - 10
    return sorted(samples)[rank - 1], round(100 * rank / n)


def environment(workers: int | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "PACKLAT_THREADS": os.environ.get("PACKLAT_THREADS"),
        "workers": workers,
    }


def check_package(cwd: Path) -> None:
    """Make sure child processes import packlat from this checkout's src."""
    code, out, err, _ = run_child(
        [sys.executable, "-c", "import packlat.cli; print(packlat.cli.__file__)"], cwd)
    if code != 0 or not Path(out.strip()).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"packlat does not import from {SRC}: {out.strip()} {err.strip()}")


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failures.append(error)
        return error is None


def workload_ops(workload: str, seed: int) -> list[dict]:
    import workloads as wl

    if workload == "seq-exhaust":
        return [{"op": "solve", "grid": wl.SEQ_GRID, "status": "UNSAT", "pins": wl.SEQ_PINS}]
    if workload == "par-exhaust":
        return [{"op": "solve", "grid": wl.SEQ_GRID, "status": "UNSAT", "pins": wl.PAR_PINS,
                 "mode": "par"}]
    if workload == "headline-prefix":
        return [{"op": "headline", "grid": wl.HEADLINE_GRID}]
    return wl.cli_batch(seed, wl.load_pool())


def op_command(op: dict) -> list[str]:
    import workloads as wl

    if op["op"] == "headline":
        return [sys.executable, str(ROOT / "perfbench" / "headline_job.py"), "--out-dir", "cp"]
    return [sys.executable, "-m", "packlat.cli", *wl.op_argv(op)]


def measure_end_to_end(workload: str, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    import workloads as wl

    ops = workload_ops(workload, seed)
    if workload == "cli-batch":
        print(f"batch: {len(ops)} operations, digest {wl.batch_digest(ops)}")
    latencies: list[float] = []
    walls: list[float] = []
    setup: list[float] = []
    nodes = sum(wl.op_nodes(op) for op in ops)
    measured = 0.0
    passes = 0
    while not walls or measured + statistics.median(walls) <= seconds:
        passes += 1
        pass_dir = Path(tempfile.mkdtemp(dir=work))
        start = time.perf_counter()
        clean = True
        probing = 0.0
        for op in ops:
            # set-up probes sit between the operations, so they sample the
            # same stretch of time; cli-batch probes each instance once
            if op["op"] in ("solve", "headline") and (len(ops) == 1 or passes == 1):
                setup.append(timed_setup(wl.grid_of(op["grid"]).to_json(), work))
                probing += setup[-1]
            code, out, err, elapsed = run_child(op_command(op), pass_dir)
            if op["op"] == "solve-unit" and code in (0, 10):
                report = pass_dir / wl.UNITS_DIR / f"report_{op['index']:04d}.json"
                report.write_text(out, encoding="utf-8")
            try:
                error = wl.check_op(op, code, out, err, pass_dir)
            except (OSError, ValueError, KeyError) as exc:
                error = f"{op['op']}: unreadable output ({exc!r})"
            if tally.record(error):
                latencies.append(elapsed)
            else:
                clean = False
        wall = time.perf_counter() - start - probing
        measured += wall
        if clean:
            walls.append(wall)
        shutil.rmtree(pass_dir)
        if not clean and not walls:
            break

    if not walls:
        return {}
    wall_s = statistics.median(walls)
    high, pct = high_percentile(latencies)
    print(f"passes: {len(walls)} clean; set-up probes: {len(setup)}; op latency: "
          f"{len(latencies)} samples, op_latency_p90_s is p{pct}")
    return {
        "wall_s": wall_s,
        "nodes_per_s": nodes / wall_s,
        "setup_s": statistics.median(setup),
        "op_latency_p50_s": statistics.median(latencies),
        "op_latency_p90_s": high,
        "ops_per_s": len(latencies) / measured,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "success_rate": 1 - len(tally.failures) / tally.attempted,
    }


def measure_traced(workload: str, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    import packlat.search
    import tracing
    import workloads as wl

    pool = wl.load_pool()
    if workload == "cli-batch":
        run_pass = tracing.pass_batch(wl.cli_batch(seed, pool))
    else:
        run_pass = {"seq-exhaust": tracing.pass_seq, "par-exhaust": tracing.pass_par,
                    "headline-prefix": tracing.pass_headline}[workload]
    startup = []
    for _ in range(STARTUP_PROBES):
        code, _, err, elapsed = run_child([sys.executable, "-c", "import packlat.cli"], work)
        if code != 0:
            raise RuntimeError(f"startup probe failed: {err.strip()}")
        startup.append(elapsed)

    tracer = tracing.Tracer()
    plain = tracing.Tracer(enabled=False)

    def one_pass(tr, run_id):
        tr.run = run_id
        packlat.search._tables.cache_clear()
        pass_dir = Path(tempfile.mkdtemp(dir=work))
        start = time.perf_counter()
        try:
            counters = run_pass(tr, pass_dir)
        except Exception as exc:  # a failed pass is counted, not fatal
            tally.record(f"{type(exc).__name__}: {exc}")
            return None, None
        finally:
            shutil.rmtree(pass_dir)
        elapsed = time.perf_counter() - start
        tally.record(None)
        return counters, elapsed

    packlat.search._tables.cache_clear()
    tracer.run = "probe"
    try:
        tracing.probe(tracer, Path(tempfile.mkdtemp(dir=work)), pool)
    except Exception as exc:  # reported as a failed run
        raise RuntimeError(f"probe: {type(exc).__name__}: {exc}") from exc
    probe_spans = tracer.of_run("probe")

    plain_walls, traced_walls, per_pass = [], [], []
    measured = 0.0
    while not per_pass or measured + statistics.median(traced_walls) * 2 <= seconds:
        i = len(per_pass)
        base, plain_wall = one_pass(plain, None)
        counters, traced_wall = one_pass(tracer, f"pass{i}")
        if base is None or counters is None:
            break
        if base != counters:
            tally.record(f"traced pass counters differ from untraced: {counters} != {base}")
            break
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        measured += plain_wall + traced_wall
        metrics, from_probe = tracing.layer_metrics(tracer.of_run(f"pass{i}"), probe_spans)
        per_pass.append(metrics)

    TRACE_OUT.mkdir(exist_ok=True)
    out = TRACE_OUT / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")
    if not per_pass:
        return {}
    print(f"traced passes: {len(per_pass)}; layers measured on the probe: "
          f"{', '.join(from_probe) or 'none'}; spans written to {out.relative_to(ROOT)}")
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.spans"] = len(tracer.of_run("pass0"))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="packlat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "packlat" / "__init__.py").is_file():
        print(f"perfbench: no packlat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    tally = Tally()
    try:
        check_package(work)
        print(f"packlat benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        workers = 2 if args.workload == "par-exhaust" or args.trace else None
        print("environment: " + json.dumps(environment(workers), sort_keys=True))
        measure = measure_traced if args.trace else measure_end_to_end
        values = measure(args.workload, args.seed, args.seconds, work, tally)
    except RuntimeError as exc:
        tally.record(str(exc))
        values = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:>16.6g} {m['unit']}")
    failed = len(tally.failures)
    print(f"  error_rate {failed / max(tally.attempted, 1):.4g} "
          f"({failed} failed of {tally.attempted} attempted)")
    for failure in tally.failures[:20]:
        print(f"  FAILED: {failure}")
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": max(tally.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
