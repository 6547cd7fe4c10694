"""Command-line entry point for reproducible packing-coloring experiments.

Subcommands: solve, verify, chi, split, solve-unit, resume, merge, render.
Reports are JSON on stdout; everything except the single ``volatile``
field is stable across runs of identical inputs in sequential mode.

Exit codes: 0 = SAT / OK, 10 = UNSAT, 11 = verification violation,
20 = search interrupted and a checkpoint written, 1 = any error
(including usage errors and a Ctrl-C before the search starts).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import sys
import time
from dataclasses import asdict
from pathlib import Path

from packlat import __version__
from packlat.coloring import (
    coloring_to_dict,
    format_coloring_text,
    load_coloring,
    verify,
)
from packlat.errors import MalformedInput, PacklatError
from packlat.grid import GridSpec, Position
from packlat.oracle import packing_chromatic_number
from packlat.render import render_svg
from packlat.search import (
    DEFAULT_PROGRESS_EVERY,
    INTERRUPTED,
    SAT,
    UNSAT,
    Checkpoint,
    SolveResult,
    SplitResult,
    UnitOutcome,
    WorkUnit,
    default_workers,
    merge_outcomes,
    resume,
    solve,
    solve_parallel,
    solve_unit,
    split,
)

CONVENTION = (
    "cells addressed as (col,row), 1-indexed; window is width columns by "
    "height rows; scan order row-major, row 1 first"
)

STATUS_EXIT = {SAT: 0, UNSAT: 10, INTERRUPTED: 20}
EXIT_VIOLATION = 11
_GRID_FILE_HELP = "grid spec JSON file (alternative to --width/--height/--k)"
MANIFEST_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # spec'd contract: usage problems exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, help="window columns")
    parser.add_argument("--height", type=int, help="window rows")
    parser.add_argument("--k", type=int, help="color budget")
    parser.add_argument(
        "--anchor", action="append", default=[], metavar="COL,ROW,COLOR",
        help="precolored cell, repeatable",
    )


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """The options of a sequential run, shared by solve and resume."""
    parser.add_argument("--naive-check", action="store_true",
                        help="use the ball-rescan admissibility test "
                             "(slow, for differential runs)")
    parser.add_argument("--checkpoint-every", type=int, default=None, metavar="NODES")
    parser.add_argument("--checkpoint-file", default=None)
    parser.add_argument("--witness-file", default=None)
    parser.add_argument("--progress-every", type=int,
                        default=DEFAULT_PROGRESS_EVERY, metavar="NODES",
                        help="stderr status line interval in nodes")


def _parse_anchor(text: str) -> tuple[Position, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise MalformedInput(f"anchor must be COL,ROW,COLOR, got {text!r}")
    try:
        col, row, color = (int(p) for p in parts)
    except ValueError as exc:
        raise MalformedInput(f"bad anchor {text!r}: {exc}") from exc
    return Position(col, row), color


def _grid_from_args(args) -> GridSpec:
    if getattr(args, "grid_file", None):
        text = Path(args.grid_file).read_text(encoding="utf-8")
        grid = GridSpec.from_json(text)
        if args.anchor or args.width or args.height or args.k:
            raise MalformedInput("give either a grid file or flags, not both")
        return grid
    if args.width is None or args.height is None or args.k is None:
        raise _UsageError("need a grid file or all of --width, --height, --k")
    anchors = tuple(_parse_anchor(a) for a in args.anchor)
    return GridSpec(args.width, args.height, args.k, anchors)


def _coloring_from_args(args) -> tuple[GridSpec | None, GridSpec, list[list[int]]]:
    """The grid given by --grid or flags (None if neither), and the coloring file's."""
    grid = None
    if args.grid_file or args.width or args.height or args.k or args.anchor:
        grid = _grid_from_args(args)
    return (grid, *load_coloring(Path(args.coloring).read_text(encoding="utf-8"), grid))


@contextlib.contextmanager
def _json_file(path):
    """Read a JSON file, naming it in any error its content causes."""
    try:
        yield json.loads(Path(path).read_text(encoding="utf-8"))
    except (MalformedInput, json.JSONDecodeError) as exc:
        raise MalformedInput(f"{path}: {exc}") from exc


def _volatile(t0_wall: float, elapsed: float, engine: str | None) -> dict:
    return {
        "started_at_unix": t0_wall,
        "elapsed_seconds": elapsed,
        "host": platform.node(),
        "pid": os.getpid(),
        "engine": engine,
    }


def lower_bound_note(grid: GridSpec) -> dict:
    """The inference an anchored (or plain) UNSAT window supports.

    The tool certifies only the finite statement; the step to the infinite
    lattice rides on the stated assumption when anchors are involved.
    """
    k = grid.max_color
    w, h = grid.width, grid.height
    claim = f"packing chromatic number of the infinite square lattice >= {k + 1}"
    if not grid.anchors:
        argument = (
            f"A packing {k}-coloring of the infinite square lattice would "
            f"restrict to a packing {k}-coloring of any {w}x{h} window, "
            f"because rectangular windows preserve lattice distances. The "
            f"exhausted search shows no such window coloring exists."
        )
        assumption = None
    elif len(grid.anchors) == 1:
        (pos, color), = grid.anchors
        argument = (
            f"If a packing {k}-coloring of the infinite square lattice "
            f"put color {color} on any cell, the {w}x{h} window taken "
            f"around that cell, placed at (col {pos.col}, row {pos.row}), "
            f"would be a packing {k}-coloring of the window extending the "
            f"anchor. The exhausted search shows no such window coloring "
            f"exists."
        )
        assumption = (
            f"every packing {k}-coloring of the lattice uses color "
            f"{color} somewhere; this premise is assumed here, not proved"
        )
    else:
        argument = (
            f"No packing {k}-coloring of the {w}x{h} window realizes the "
            f"anchor pattern, so no packing {k}-coloring of the lattice "
            f"contains a window matching it."
        )
        assumption = (
            f"every packing {k}-coloring of the lattice realizes the anchor "
            f"pattern in some window placement; this premise is assumed "
            f"here, not proved"
        )
    return {"claim": claim, "argument": argument, "assumption": assumption}


def _report(grid: GridSpec, mode: str, status: str, stats: dict, witness, **fields) -> dict:
    """The fields every run and merge report carries, plus the given ones."""
    return {
        "tool": "packlat",
        "version": __version__,
        "convention": CONVENTION,
        "grid": grid.to_dict(),
        "mode": mode,
        "status": status,
        "stats": stats,
        "witness": witness,
        "lower_bound": lower_bound_note(grid) if status == UNSAT else None,
        **fields,
    }


def build_report(
    grid: GridSpec,
    mode: str,
    flags: dict,
    result: SolveResult,
    t0_wall: float,
    extra: dict | None = None,
) -> dict:
    report = _report(
        grid, mode, result.status, result.stats.counters(), result.coloring, flags=flags,
        volatile=_volatile(t0_wall, result.stats.elapsed, result.engine),
    )
    if result.parallel is not None:
        report["parallel"] = asdict(result.parallel)
    if extra:
        report.update(extra)
    return report


def _emit_report(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _write_witness(path: str, grid: GridSpec, rows: list[list[int]]) -> None:
    out = Path(path)
    if out.suffix == ".json":
        out.write_text(
            json.dumps(coloring_to_dict(grid, rows), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    else:
        out.write_text(format_coloring_text(rows), encoding="utf-8")


def _write_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    """Replace the checkpoint file atomically: a crash leaves the old or the new."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            out.write(json.dumps(checkpoint.to_dict(), sort_keys=True) + "\n")
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _progress_printer(t0: float):
    def on_progress(nodes: int, frontier: int) -> None:
        elapsed = time.perf_counter() - t0
        rate = nodes / elapsed if elapsed > 0 else 0.0
        print(
            f"[packlat] nodes={nodes:,} frontier={frontier} cells "
            f"elapsed={elapsed:.1f}s rate={rate:,.0f}/s",
            file=sys.stderr,
            flush=True,
        )
    return on_progress


def _run_sequential(args, search, start):
    """Shared driver for cmd_solve (seq) and cmd_resume: ``search(start, ...)``."""
    checkpoint_file = args.checkpoint_file
    if args.checkpoint_every and not checkpoint_file:
        raise _UsageError("--checkpoint-every needs --checkpoint-file")

    def on_checkpoint(cp: Checkpoint) -> None:
        _write_checkpoint(checkpoint_file, cp)

    flag = {"hit": False}

    def _handler(signum, frame):
        flag["hit"] = True

    t0 = time.perf_counter()
    old_handler = signal.signal(signal.SIGINT, _handler)
    try:
        return search(
            start,
            naive=args.naive_check,
            checkpoint_every=args.checkpoint_every,
            on_checkpoint=on_checkpoint if args.checkpoint_every else None,
            progress_every=args.progress_every,
            on_progress=_progress_printer(t0),
            interrupted=lambda: flag["hit"],
        )
    finally:
        signal.signal(signal.SIGINT, old_handler)


def _finish_run(args, grid: GridSpec, mode: str, flags: dict, result: SolveResult,
                t0_wall: float, extra: dict, checkpoint_path: str | None = None) -> int:
    """Write the checkpoint and witness files a result calls for, then the report."""
    if result.status == INTERRUPTED:
        _write_checkpoint(checkpoint_path, result.checkpoint)
        extra["checkpoint_file"] = checkpoint_path
    if result.coloring is not None and args.witness_file:
        _write_witness(args.witness_file, grid, result.coloring)
        extra["witness_file"] = args.witness_file
    _emit_report(build_report(grid, mode, flags, result, t0_wall, extra))
    return STATUS_EXIT[result.status]


def cmd_solve(args) -> int:
    grid = _grid_from_args(args)
    t0_wall = time.time()
    flags = {
        "mode": args.mode,
        "naive_check": bool(args.naive_check),
        "split_depth": args.split_depth,
        "checkpoint_every": args.checkpoint_every,
        "early_exit": bool(args.early_exit),
    }
    if args.mode == "par":
        if args.naive_check:
            raise _UsageError("--naive-check applies to sequential mode only")
        if args.checkpoint_every:
            raise _UsageError(
                "checkpointing applies to sequential mode; parallel runs are "
                "resumed per unit"
            )
        depth = args.split_depth if args.split_depth else 2
        result = solve_parallel(
            grid, depth, workers=args.workers, early_exit=args.early_exit
        )
    else:
        result = _run_sequential(args, solve, grid)
    return _finish_run(args, grid, args.mode, flags, result, t0_wall, {},
                       args.checkpoint_file or "packlat-interrupted.checkpoint.json")


def cmd_resume(args) -> int:
    with _json_file(args.checkpoint) as data:
        checkpoint = Checkpoint.from_dict(data)
    grid = checkpoint.grid
    t0_wall = time.time()
    flags = {
        "mode": "resume",
        "naive_check": bool(args.naive_check),
        "resumed_from_nodes": checkpoint.nodes,
        "checkpoint_every": args.checkpoint_every,
    }
    result = _run_sequential(args, resume, checkpoint)
    return _finish_run(args, grid, "resume", flags, result, t0_wall, {},
                       args.checkpoint_file or args.checkpoint)


def cmd_verify(args) -> int:
    grid, file_grid, rows = _coloring_from_args(args)
    if grid is not None and file_grid != grid:
        raise MalformedInput("coloring file's embedded grid disagrees with flags")
    violation = verify(file_grid, rows)
    if violation is None:
        print("OK")
        return 0
    print(
        f"VIOLATION color={violation.color} "
        f"first=({violation.first.col},{violation.first.row}) "
        f"second=({violation.second.col},{violation.second.row})"
    )
    return EXIT_VIOLATION


def cmd_chi(args) -> int:
    value = packing_chromatic_number(args.width, args.height, args.cap)
    print(f">{args.cap}" if value is None else str(value))
    return 0


def cmd_split(args) -> int:
    grid = _grid_from_args(args)
    result = split(grid, args.split_depth)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    unit_files = []
    for i, unit in enumerate(result.units):
        name = f"unit_{i:04d}.json"
        (out_dir / name).write_text(
            json.dumps(unit.to_dict(), sort_keys=True) + "\n", encoding="utf-8"
        )
        unit_files.append(name)
    manifest = {
        "version": MANIFEST_VERSION,
        "convention": CONVENTION,
        "grid": grid.to_dict(),
        "depth": result.depth,
        "units": len(result.units),
        "emitted_prefix_assignments": result.emitted_prefix_assignments,
        "prefix_overhead": result.prefix_overhead,
        "assignments_at_emission": list(result.assignments_at_emission),
        "unit_files": unit_files,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True)
    (out_dir / "split.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_solve_unit(args) -> int:
    with _json_file(args.unit) as data:
        unit = WorkUnit.from_dict(data)
    t0_wall = time.time()
    result = solve_unit(unit, naive=args.naive_check)
    flags = {"mode": "unit", "naive_check": bool(args.naive_check)}
    return _finish_run(args, unit.grid, "unit", flags, result, t0_wall,
                       {"unit": {"prefix": list(unit.prefix)}})


def _fields(data: object, *keys: str) -> list:
    """The named fields of a JSON object."""
    if not isinstance(data, dict):
        raise MalformedInput("not a JSON object")
    for key in keys:
        if key not in data:
            raise MalformedInput(f'no "{key}" field')
    return [data[key] for key in keys]


def cmd_merge(args) -> int:
    """Merge unit reports that are exactly the units the split manifest lists."""
    with _json_file(args.manifest) as manifest:
        (version,) = _fields(manifest, "version")
        if version != MANIFEST_VERSION:
            raise MalformedInput(f"unsupported split manifest version {version!r}")
        grid_dict, depth, emitted, overhead, at_emission, unit_files = _fields(
            manifest, "grid", "depth", "emitted_prefix_assignments",
            "prefix_overhead", "assignments_at_emission", "unit_files",
        )
        grid = GridSpec.from_dict(grid_dict)
        if not isinstance(unit_files, list) or not all(isinstance(n, str) for n in unit_files):
            raise MalformedInput('"unit_files" is not a list of file names')
    units = []
    for name in unit_files:
        with _json_file(Path(args.manifest).parent / name) as data:
            units.append(WorkUnit.from_dict(data))
            if units[-1].grid != grid or len(units[-1].prefix) != depth:
                raise MalformedInput(f"not a unit of a depth-{depth} split of this grid")
    expected = set(units)
    outcomes: dict[tuple[int, ...], UnitOutcome] = {}
    for path in args.reports:
        with _json_file(path) as report:
            report_grid, unit, status, stats = _fields(report, "grid", "unit", "status", "stats")
            (prefix,), (nodes,) = _fields(unit, "prefix"), _fields(stats, "nodes")
            unit = WorkUnit.from_dict({"grid": report_grid, "prefix": prefix})
            if unit not in expected:
                raise MalformedInput(f"unit {list(unit.prefix)} is not in the split")
            if unit.prefix in outcomes:
                raise MalformedInput(f"a second report for unit {list(unit.prefix)}")
            if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 0:
                raise MalformedInput(f"stats.nodes {nodes!r} is not a non-negative integer")
            witness = report.get("witness")
            if status == SAT and (violation := verify(grid, witness)) is not None:
                raise MalformedInput(f"SAT witness breaks the rule for color {violation.color}")
        outcomes[unit.prefix] = UnitOutcome(unit.prefix, status, nodes, witness)
    split_result = SplitResult(
        units=tuple(units),
        depth=depth,
        emitted_prefix_assignments=emitted,
        prefix_overhead=overhead,
        assignments_at_emission=tuple(at_emission),
    )
    status, coloring, sequential, unit_total = merge_outcomes(
        split_result, list(outcomes.values())
    )
    merged = _report(grid, "merge", status, {"nodes": sequential}, coloring, merge={
        "units": len(outcomes),
        "unit_nodes_total": unit_total,
        "emitted_prefix_assignments": emitted,
        "prefix_overhead": overhead,
    })
    if args.expect_sequential_nodes is not None:
        if sequential != args.expect_sequential_nodes:
            print(
                f"packlat: count additivity FAILED: reconstructed {sequential} "
                f"!= expected {args.expect_sequential_nodes}",
                file=sys.stderr,
            )
            return 1
        merged["merge"]["matches_sequential_nodes"] = args.expect_sequential_nodes
    _emit_report(merged)
    return STATUS_EXIT[status]


def cmd_render(args) -> int:
    _, _, rows = _coloring_from_args(args)
    rendered = render_svg(rows) if args.format == "svg" else format_coloring_text(rows)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="packlat",
        description="Exact search and verification for packing colorings "
                    "of rectangular windows of the square lattice.",
    )
    parser.add_argument("--version", action="version", version=f"packlat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="search a window for a packing coloring")
    p_solve.add_argument("grid_file", nargs="?", default=None, help=_GRID_FILE_HELP)
    _add_grid_args(p_solve)
    p_solve.add_argument("--mode", choices=["seq", "par"], default="seq")
    p_solve.add_argument("--split-depth", type=int, default=None,
                         help="prefix length for parallel work units")
    p_solve.add_argument("--workers", type=int, default=None,
                         help=f"worker processes (default {default_workers()}, "
                              f"capped by PACKLAT_THREADS)")
    p_solve.add_argument("--early-exit", action="store_true",
                         help="parallel mode: stop at the first SAT unit "
                              "(node counts no longer reproduce sequential)")
    _add_run_args(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a complete coloring file")
    p_verify.add_argument("coloring", help="coloring file (text or JSON)")
    p_verify.add_argument("--grid", dest="grid_file", default=None,
                          help="grid spec JSON file for text colorings")
    _add_grid_args(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_chi = sub.add_parser("chi", help="exact packing chromatic number of a "
                                       "small window, by brute force")
    p_chi.add_argument("--width", type=int, required=True)
    p_chi.add_argument("--height", type=int, required=True)
    p_chi.add_argument("--cap", type=int, default=6,
                       help="largest budget to try (default 6)")
    p_chi.set_defaults(func=cmd_chi)

    p_split = sub.add_parser("split", help="cut the search into work units")
    p_split.add_argument("grid_file", nargs="?", default=None, help=_GRID_FILE_HELP)
    _add_grid_args(p_split)
    p_split.add_argument("--split-depth", type=int, required=True)
    p_split.add_argument("--out-dir", default="units")
    p_split.set_defaults(func=cmd_split)

    p_unit = sub.add_parser("solve-unit", help="run one work unit file")
    p_unit.add_argument("unit", help="work unit JSON file")
    p_unit.add_argument("--naive-check", action="store_true")
    p_unit.add_argument("--witness-file", default=None)
    p_unit.set_defaults(func=cmd_solve_unit)

    p_resume = sub.add_parser("resume", help="continue from a checkpoint file")
    p_resume.add_argument("checkpoint")
    _add_run_args(p_resume)
    p_resume.set_defaults(func=cmd_resume)

    p_merge = sub.add_parser("merge", help="combine unit reports, checking "
                                           "the count additivity identity")
    p_merge.add_argument("manifest", help="split.json written by the split command")
    p_merge.add_argument("reports", nargs="+", help="solve-unit report files")
    p_merge.add_argument("--expect-sequential-nodes", type=int, default=None,
                         help="fail loudly unless the reconstructed count matches")
    p_merge.set_defaults(func=cmd_merge)

    p_render = sub.add_parser("render", help="draw a coloring as text or SVG")
    p_render.add_argument("coloring")
    p_render.add_argument("--grid", dest="grid_file", default=None)
    _add_grid_args(p_render)
    p_render.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p_render.add_argument("--out", default=None)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"packlat: usage error: {exc}", file=sys.stderr)
        return 1
    except (PacklatError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"packlat: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # a running search catches SIGINT itself and exits 20 with a checkpoint
        print("packlat: interrupted before the search started", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
