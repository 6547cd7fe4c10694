"""The headline-prefix job: two node slices of the 15x9 k=11 headline tree.

The job builds the grid, solves to N = ``workloads.HEADLINE_N`` nodes
while writing checkpoint files, loads the last file with
``Checkpoint.from_dict``, resumes to 2N (writing more files) and builds
the report of the resumed run. It prints the
counters and branch digests at N and 2N as one JSON line, which the
benchmark compares with the pins in ``workloads.HEADLINE_PINS``.

Usage, with ``src`` on ``PYTHONPATH``::

    python3 perfbench/headline_job.py --out-dir cp
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from packlat.search import Checkpoint, resume, solve

from tracing import Tracer, build_grid, report_text
from workloads import HEADLINE_GRID, HEADLINE_N, HEADLINE_SLICE_WRITES


def _slice_counters(result) -> dict:
    branch = result.checkpoint.branch
    return dict(
        result.stats.counters(),
        status=result.status,
        branch_len=len(branch),
        branch_sha256=hashlib.sha256(json.dumps(branch).encode()).hexdigest(),
    )


def run_headline(tracer: Tracer, n: int, out_dir: Path, replay_probe: bool = False) -> dict:
    """Solve to n nodes, resume the last checkpoint file to 2n; return the counters.

    With ``replay_probe`` the job also times the resume replay alone, as
    ``resume(cp, suspend_at=cp.nodes + 1)``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    every = n // HEADLINE_SLICE_WRITES
    writes = []

    def write(cp: Checkpoint) -> dict:
        text = json.dumps(cp.to_dict(), sort_keys=True) + "\n"
        (out_dir / f"cp_{cp.nodes:012d}.json").write_text(text, encoding="utf-8")
        writes.append(len(text))
        return {"bytes": len(text)}

    def on_checkpoint(cp: Checkpoint) -> None:
        tracer.call("checkpoint.write", write, cp, counts=lambda c: c)

    grid = build_grid(tracer, HEADLINE_GRID, set())
    first = tracer.call(
        "search.solve", solve, grid, suspend_at=n, checkpoint_every=every,
        on_checkpoint=on_checkpoint, interrupted=lambda: False,
        counts=Tracer.search_counts,
    )
    on_checkpoint(first.checkpoint)
    last = max(out_dir.glob("cp_*.json"))
    data = json.loads(last.read_text(encoding="utf-8"))
    cp = tracer.call("checkpoint.from_dict", Checkpoint.from_dict, data)
    if replay_probe:
        tracer.call("search.resume.replay", resume, cp, suspend_at=cp.nodes + 1)
    second = tracer.call(
        "search.resume", resume, cp, suspend_at=2 * n, checkpoint_every=every,
        on_checkpoint=on_checkpoint, interrupted=lambda: False,
        counts=lambda r: dict(r.stats.counters(), nodes=r.stats.nodes - cp.nodes),
    )
    on_checkpoint(second.checkpoint)
    tracer.call("cli.build_report", report_text, grid, "resume", second)
    return {
        "at_n": _slice_counters(first),
        "at_2n": _slice_counters(second),
        "checkpoint_writes": len(writes),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, required=True, help="checkpoint directory")
    args = parser.parse_args()
    print(json.dumps(run_headline(Tracer(enabled=False), HEADLINE_N, args.out_dir), sort_keys=True))


if __name__ == "__main__":
    main()
