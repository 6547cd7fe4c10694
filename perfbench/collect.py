"""Run the benchmark over several seeds and summarise each metric.

For every workload and seed this runs ``perfbench/run.py`` in a fresh
process, then prints, per metric, the median of the runs and the spread:
the distance between the first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``). A spread above a third of
the metric's bound in ``BENCHMARK.json`` is flagged.

With ``--sets 2`` every seed runs twice, one whole set after the other.
The second set's median of each end-to-end metric is then compared with
the first, and a shift either way by more than the bound is flagged;
exact counters of traced runs must be equal for each seed in both sets.
``--out`` writes every value and summary as JSON.

Usage, from the root of a checkout::

    python3 perfbench/collect.py --seeds 1-10 --seconds 28 --sets 2
    python3 perfbench/collect.py --workloads cli-batch --seeds 1-2 --trace 1 --sets 2
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT = ("kernel.nodes", "kernel.tests", "kernel.calls", "kernel.max_depth",
         "split.units", "split.prefix_overhead", "checkpoint.writes")


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--sets", type=int, default=1, help="times each seed is run")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = {m["name"]: m for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)

    report = {}
    for workload in names:
        sets = [[run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
                for _ in range(args.sets)]
        incorrect = sum(not r["correct"] for results in sets for r in results)
        print(f"{workload}: {args.sets} x {len(seeds)} runs, {incorrect} incorrect")
        metrics = {}
        for name, first in sets[0][0]["metrics"].items():
            per_set = [[r["metrics"][name]["value"] for r in results] for results in sets]
            summaries = [summarise(values) for values in per_set]
            metrics[name] = {"unit": first["unit"], "sets": [
                dict(s, values=v) for s, v in zip(summaries, per_set)]}
            flags = []
            bound = spec[name]["bound"] if name in spec else None
            if bound and any(s["spread"] > bound / 3 for s in summaries):
                flags.append(f"spread above a third of the bound {bound}")
            if bound and len(summaries) > 1:
                shift = summaries[-1]["median"] / summaries[0]["median"] - 1
                flags.append(f"second median {shift:+.1%}")
                if abs(shift) > bound:
                    flags.append("SHIFT BEYOND THE BOUND")
            if name in EXACT and any(len(set(v)) > 1 for v in zip(*per_set)):
                flags.append("EXACT COUNTER DIFFERS BETWEEN SETS")
            medians = " ".join(f"{s['median']:>12.6g}" for s in summaries)
            spreads = " ".join(f"{s['spread']:7.2%}" for s in summaries)
            print(f"  {name:30s} median {medians} spread {spreads}  {'; '.join(flags)}")
            for values in per_set:
                print("    " + " ".join(f"{v:.5g}" for v in values))
        report[workload] = {"incorrect": incorrect, "metrics": metrics}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
