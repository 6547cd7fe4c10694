"""End-to-end command-line behavior: exit codes, reports, file formats."""

import json
import re
import sys
from pathlib import Path

import pytest

from packlat.cli import main
from packlat.coloring import verify
from packlat.grid import GridSpec, Position


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out: str) -> dict:
    return json.loads(out)


def stable(report: dict) -> dict:
    scrubbed = dict(report)
    scrubbed.pop("volatile", None)
    return scrubbed


def _child_env() -> dict:
    """The environment for a packlat child process, whatever its directory.

    A relative PYTHONPATH (say PYTHONPATH=src in a source checkout) does not
    resolve in another directory, so the directory that holds the imported
    package goes first, as an absolute path.
    """
    import os

    import packlat

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(packlat.__file__).resolve().parent.parent), env.get("PYTHONPATH"),
    ]))
    return env


# --- solve ------------------------------------------------------------------


def test_solve_sat_exit_zero(capsys, tmp_path):
    witness = tmp_path / "witness.txt"
    code, out, _ = run(
        capsys, "solve", "--width", "2", "--height", "2", "--k", "3",
        "--witness-file", str(witness),
    )
    assert code == 0
    report = report_of(out)
    assert report["status"] == "SAT"
    assert report["witness"] == [[1, 2], [3, 1]]
    assert witness.read_text() == "1 2\n3 1\n"


def test_solve_unsat_exit_ten(capsys):
    code, out, _ = run(capsys, "solve", "--width", "3", "--height", "3", "--k", "3")
    assert code == 10
    report = report_of(out)
    assert report["status"] == "UNSAT"
    assert report["witness"] is None
    assert report["lower_bound"]["assumption"] is None  # no anchors: unconditional


def test_solve_reports_are_deterministic_modulo_volatile(capsys):
    code1, out1, _ = run(capsys, "solve", "--width", "3", "--height", "3", "--k", "3")
    code2, out2, _ = run(capsys, "solve", "--width", "3", "--height", "3", "--k", "3")
    assert code1 == code2 == 10
    assert stable(report_of(out1)) == stable(report_of(out2))
    assert out1 != out2 or report_of(out1)["volatile"] == report_of(out2)["volatile"]


def test_solve_report_round_trips(capsys):
    _, out, _ = run(capsys, "solve", "--width", "2", "--height", "2", "--k", "3")
    report = report_of(out)
    assert json.loads(json.dumps(report)) == report


def test_solve_anchored_run_carries_assumption_note(capsys):
    code, out, _ = run(
        capsys, "solve", "--width", "3", "--height", "3", "--k", "3",
        "--anchor", "2,2,3",
    )
    assert code == 10
    note = report_of(out)["lower_bound"]
    assert "color 3" in note["assumption"]
    assert "assumed" in note["assumption"]


def test_solve_from_grid_file(capsys, tmp_path):
    grid = GridSpec(2, 2, 3, anchors=((Position(1, 1), 2),))
    path = tmp_path / "grid.json"
    path.write_text(grid.to_json())
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    report = report_of(out)
    assert report["grid"] == grid.to_dict()
    assert report["witness"][0][0] == 2


def test_solve_usage_error_exit_one(capsys):
    code, _, err = run(capsys, "solve", "--width", "2", "--height", "2")
    assert code == 1
    assert "usage error" in err
    code, _, err = run(capsys, "solve", "--width", "2", "--height", "2", "--k", "3",
                       "--mode", "par", "--early-exit")
    assert (code, err) == (1, "packlat: usage error: unrecognized arguments: --early-exit\n")


def test_solve_bad_anchor_exit_one(capsys):
    code, _, err = run(
        capsys, "solve", "--width", "2", "--height", "2", "--k", "2",
        "--anchor", "5,5,1",
    )
    assert code == 1
    assert "error" in err


def test_solve_naive_check_matches_fast_mode(capsys):
    _, fast, _ = run(capsys, "solve", "--width", "3", "--height", "3", "--k", "4")
    _, slow, _ = run(
        capsys, "solve", "--width", "3", "--height", "3", "--k", "4", "--naive-check"
    )
    fast_report, slow_report = report_of(fast), report_of(slow)
    assert fast_report["status"] == slow_report["status"]
    assert fast_report["stats"]["nodes"] == slow_report["stats"]["nodes"]


def test_solve_parallel_mode_matches_sequential(capsys):
    _, seq, _ = run(capsys, "solve", "--width", "3", "--height", "3", "--k", "4")
    code, par, _ = run(
        capsys, "solve", "--width", "3", "--height", "3", "--k", "4",
        "--mode", "par", "--split-depth", "2", "--workers", "2",
    )
    assert code == 0
    seq_report, par_report = report_of(seq), report_of(par)
    assert par_report["status"] == seq_report["status"] == "SAT"
    assert par_report["stats"]["nodes"] == seq_report["stats"]["nodes"]
    assert par_report["parallel"]["count_reproducible"] is True


# --- verify -----------------------------------------------------------------


def test_verify_accepts_good_text_coloring(capsys, tmp_path):
    path = tmp_path / "good.txt"
    path.write_text("1 2\n3 1\n")
    code, out, _ = run(
        capsys, "verify", str(path), "--width", "2", "--height", "2", "--k", "3"
    )
    assert code == 0
    assert out.strip() == "OK"


def test_verify_rejects_bad_coloring_with_witness(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n2 1\n")
    code, out, _ = run(
        capsys, "verify", str(path), "--width", "2", "--height", "2", "--k", "2"
    )
    assert code == 11
    assert "color=2" in out
    assert "(2,1)" in out and "(1,2)" in out


def test_verify_truncated_file_exit_one(capsys, tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("1 2\n")
    code, _, err = run(
        capsys, "verify", str(path), "--width", "2", "--height", "2", "--k", "2"
    )
    assert code == 1
    assert "error" in err


def test_verify_json_coloring_self_describing(capsys, tmp_path):
    from packlat.coloring import coloring_to_dict

    grid = GridSpec(2, 2, 3)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(coloring_to_dict(grid, [[1, 2], [3, 1]])))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.strip() == "OK"


# --- chi --------------------------------------------------------------------


@pytest.mark.parametrize("width,height,expected", [
    (1, 1, "1"), (2, 2, "3"), (3, 3, "4"),
])
def test_chi_exact_values(capsys, width, height, expected):
    code, out, _ = run(
        capsys, "chi", "--width", str(width), "--height", str(height), "--cap", "5"
    )
    assert code == 0
    assert out.strip() == expected


def test_chi_cap_exceeded(capsys):
    code, out, _ = run(capsys, "chi", "--width", "3", "--height", "3", "--cap", "3")
    assert code == 0
    assert out.strip() == ">3"


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_chi_cap_below_one_is_a_usage_error(capsys, cap):
    code, out, err = run(capsys, "chi", "--width", "3", "--height", "3", "--cap", cap)
    assert (code, out) == (1, "")
    assert err.startswith("packlat: usage error: argument --cap:")


def test_chi_guard_counts_at_least_two_colors_per_cell(capsys):
    # at budget 1 the brute force still builds tables that grow with cells squared
    assert run(capsys, "chi", "--width", "1500", "--height", "1", "--cap", "1") == (
        1, "", "packlat: error: 1500 cells at budget 1 exceed the 1e+08 oracle guard\n")


# --- split / solve-unit / merge ----------------------------------------------


def _split_solve_merge(capsys, tmp_path, grid_args, depth, expect_nodes=None):
    out_dir = tmp_path / "units"
    code, out, _ = run(
        capsys, "split", *grid_args, "--split-depth", str(depth),
        "--out-dir", str(out_dir),
    )
    assert code == 0
    manifest = report_of(out)
    report_files = []
    for i in range(manifest["units"]):
        code, out, _ = run(capsys, "solve-unit", str(out_dir / f"unit_{i:04d}.json"))
        assert code in (0, 10)
        report_path = tmp_path / f"report_{i:04d}.json"
        report_path.write_text(out)
        report_files.append(str(report_path))
    merge_args = ["merge", str(out_dir / "split.json"), *report_files]
    if expect_nodes is not None:
        merge_args += ["--expect-sequential-nodes", str(expect_nodes)]
    return run(capsys, *merge_args)


def test_domino_units_end_to_end(capsys, tmp_path):
    code, out, _ = _split_solve_merge(
        capsys, tmp_path, ["--width", "1", "--height", "2", "--k", "2"], depth=1
    )
    assert code == 0  # merged SAT
    merged = report_of(out)
    assert merged["status"] == "SAT"
    assert merged["witness"] == [[1], [2]]


def test_unsat_merge_reconstructs_sequential_nodes(capsys, tmp_path):
    _, seq_out, _ = run(capsys, "solve", "--width", "3", "--height", "3", "--k", "3")
    seq_nodes = report_of(seq_out)["stats"]["nodes"]
    code, out, _ = _split_solve_merge(
        capsys, tmp_path, ["--width", "3", "--height", "3", "--k", "3"],
        depth=1, expect_nodes=seq_nodes,
    )
    assert code == 10
    merged = report_of(out)
    assert merged["status"] == "UNSAT"
    assert merged["stats"]["nodes"] == seq_nodes
    assert merged["merge"]["matches_sequential_nodes"] == seq_nodes


def test_merge_mismatch_fails_loudly(capsys, tmp_path):
    code, _, err = _split_solve_merge(
        capsys, tmp_path, ["--width", "3", "--height", "3", "--k", "3"],
        depth=1, expect_nodes=999999,
    )
    assert code == 1
    assert "count additivity FAILED" in err


@pytest.mark.parametrize("grid_args,depth,seq_nodes", [
    (["--width", "3", "--height", "1", "--k", "1"], 2, 1),
    (["--width", "2", "--height", "2", "--k", "2"], 4, 5),
])
def test_a_split_with_no_units_merges_with_no_reports(capsys, tmp_path, grid_args, depth,
                                                      seq_nodes):
    _, seq_out, _ = run(capsys, "solve", *grid_args)
    assert report_of(seq_out)["stats"]["nodes"] == seq_nodes
    code, out, _ = _split_solve_merge(capsys, tmp_path, grid_args, depth, expect_nodes=seq_nodes)
    assert code == 10
    merged = report_of(out)
    assert (merged["status"], merged["merge"]["units"]) == ("UNSAT", 0)
    assert merged["merge"]["matches_sequential_nodes"] == seq_nodes


def test_merge_without_reports_fails_on_a_split_with_units(capsys, tmp_path):
    out_dir = tmp_path / "units"
    run(capsys, "split", "--width", "3", "--height", "3", "--k", "3", "--split-depth", "2",
        "--out-dir", str(out_dir))
    code, out, err = run(capsys, "merge", str(out_dir / "split.json"))
    assert (code, out) == (1, "")
    assert err == ("packlat: error: unit outcomes do not cover the split exactly: "
                   "0 outcomes for 6 units\n")


def test_merge_rejects_missing_units(capsys, tmp_path):
    out_dir = tmp_path / "units"
    code, out, _ = run(
        capsys, "split", "--width", "1", "--height", "2", "--k", "2",
        "--split-depth", "1", "--out-dir", str(out_dir),
    )
    assert report_of(out)["units"] == 2
    code, out, _ = run(capsys, "solve-unit", str(out_dir / "unit_0000.json"))
    only_report = tmp_path / "only.json"
    only_report.write_text(out)
    code, _, err = run(capsys, "merge", str(out_dir / "split.json"), str(only_report))
    assert code == 1


MERGE_DAMAGE = {
    "report-without-unit": ("report", 'no "unit" field'),
    "report-not-an-object": ("report", "not a JSON object"),
    "manifest-without-grid": ("manifest", 'no "grid" field'),
    "prefix-not-a-list": ("report", "bad work unit prefix: 'int' object is not iterable"),
    "prefix-not-integers": ("report", "bad work unit prefix: 'a' is not an integer"),
    "prefix-outside-the-split": ("report", "unit [7] is not in the split"),
    "nodes-not-an-integer": ("report", "stats.nodes 'x' is not a non-negative integer"),
    "duplicate-report": ("report", "a second report for unit [1]"),
    "sat-witness-breaks-the-rule": ("report", "SAT witness breaks the rule for color 1"),
    "sat-without-witness": ("report", "coloring shape does not match 1x2 window"),
    "status-not-terminal": ("report", "status 'INTERRUPTED' is not SAT or UNSAT"),
    "depth-not-an-integer": ("manifest", "bad split depth: 'x' is not an integer"),
    "depth-zero": ("manifest", "bad split depth: split depth 0 outside 1..2"),
    "depth-beyond-the-open-cells": ("manifest", "bad split depth: split depth 3 outside 1..2"),
    # the reports are checked against the manifest's grid before the split
    # is searched, so a forged width fails at once instead of searching it
    "manifest-width-edited": ("report", "unit [1] is not in the split"),
}


@pytest.mark.parametrize("damage", list(MERGE_DAMAGE))
def test_merge_rejects_malformed_files_without_traceback(capsys, tmp_path, damage):
    out_dir = tmp_path / "units"
    run(capsys, "split", "--width", "1", "--height", "2", "--k", "1",
        "--split-depth", "1", "--out-dir", str(out_dir))
    manifest_file, report_file = out_dir / "split.json", tmp_path / "report.json"
    unit_file = out_dir / "unit_0000.json"
    report_file.write_text(run(capsys, "solve-unit", str(unit_file))[1])
    assert run(capsys, "merge", str(manifest_file), str(report_file))[0] == 10
    manifest = json.loads(manifest_file.read_text())
    report = json.loads(report_file.read_text())
    reports = [report_file]
    if damage == "report-without-unit":
        del report["unit"]
    elif damage == "report-not-an-object":
        report = [1]
    elif damage == "manifest-without-grid":
        del manifest["grid"]
    elif damage == "prefix-not-a-list":
        report["unit"]["prefix"] = 5
    elif damage == "prefix-not-integers":
        report["unit"]["prefix"] = ["a"]
    elif damage == "prefix-outside-the-split":
        report["unit"]["prefix"] = [7]
    elif damage == "nodes-not-an-integer":
        report["stats"]["nodes"] = "x"
    elif damage == "duplicate-report":
        reports = [report_file, report_file]
    elif damage == "sat-witness-breaks-the-rule":
        report["status"], report["witness"] = "SAT", [[1], [1]]
    elif damage == "sat-without-witness":
        report["status"] = "SAT"
    elif damage == "status-not-terminal":
        report["status"] = "INTERRUPTED"
    elif damage == "manifest-width-edited":
        manifest["grid"]["width"] = 1_000_000
    else:
        manifest["depth"] = {"depth-not-an-integer": "x", "depth-zero": 0,
                             "depth-beyond-the-open-cells": 3}[damage]
    manifest_file.write_text(json.dumps(manifest))
    report_file.write_text(json.dumps(report))
    code, out, err = run(capsys, "merge", str(manifest_file), *map(str, reports))
    where, message = MERGE_DAMAGE[damage]
    bad_file = {"report": report_file, "manifest": manifest_file}[where]
    assert (code, out, err) == (1, "", f"packlat: error: {bad_file}: {message}\n")


# merge re-derives the split from "grid" and "depth"; older manifests also
# carry these fields, which are never read
MANIFEST_NOISE = {
    "assignments-at-emission-empty": ("assignments_at_emission", []),
    "prefix-overhead-not-a-number": ("prefix_overhead", "x"),
    "emitted-prefix-assignments-forged": ("emitted_prefix_assignments", 99),
}


@pytest.mark.parametrize("noise", list(MANIFEST_NOISE))
def test_merge_reads_only_grid_and_depth_from_the_manifest(capsys, tmp_path, noise):
    honest = _split_solve_merge(
        capsys, tmp_path, ["--width", "1", "--height", "2", "--k", "2"], depth=1,
    )
    assert honest[0] == 0  # SAT: the merge credits the first SAT unit's emission
    manifest_file = tmp_path / "units" / "split.json"
    manifest = json.loads(manifest_file.read_text())
    key, value = MANIFEST_NOISE[noise]
    manifest[key] = value
    manifest_file.write_text(json.dumps(manifest))
    reports = sorted(map(str, tmp_path.glob("report_*.json")))
    assert run(capsys, "merge", str(manifest_file), *reports) == honest


def test_split_manifest_has_exactly_five_keys(capsys, tmp_path):
    out_dir = tmp_path / "units"
    code, out, _ = run(capsys, "split", "--width", "4", "--height", "4", "--k", "4",
                       "--split-depth", "2", "--out-dir", str(out_dir))
    assert code == 0
    manifest = report_of(out)
    assert (out_dir / "split.json").read_text() == out
    assert sorted(manifest) == ["convention", "depth", "grid", "units", "version"]
    assert (manifest["depth"], manifest["units"]) == (2, 12)
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "split.json", *(f"unit_{i:04d}.json" for i in range(12))]


NOT_INTEGERS = {  # kind of file, field, forged value, message
    "checkpoint-branch-a-string": (
        "checkpoint", "branch", "121", "bad checkpoint: '1' is not an integer"),
    "checkpoint-nodes-a-float": (
        "checkpoint", "nodes", 2.7, "bad checkpoint: 2.7 is not an integer"),
    "grid-max-color-a-bool": (
        "grid", "max_color", True, "bad grid spec: True is not an integer"),
    "grid-height-a-float": ("grid", "height", 4.9, "bad grid spec: 4.9 is not an integer"),
    "unit-prefix-a-float": (
        "unit", "prefix", [1.0], "bad work unit prefix: 1.0 is not an integer"),
    "coloring-color-a-float": (
        "coloring", "colors", [[1.0, 2]], "bad color value: 1.0 is not an integer"),
}


@pytest.mark.parametrize("case", list(NOT_INTEGERS))
def test_json_inputs_take_only_integers(capsys, tmp_path, case):
    kind, key, value, message = NOT_INTEGERS[case]
    grid = GridSpec(2, 1, 2)
    data = {
        "checkpoint": {"version": 1, "grid": grid.to_dict(), "branch": [1], "nodes": 1},
        "grid": grid.to_dict(),
        "unit": {"grid": grid.to_dict(), "prefix": [1]},
        "coloring": {"grid": grid.to_dict(), "colors": [[1, 2]]},
    }[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    command = {"checkpoint": "resume", "grid": "solve", "unit": "solve-unit",
               "coloring": "verify"}[kind]
    assert run(capsys, command, str(path))[0] in (0, 10)  # the honest file is accepted
    data[key] = value
    path.write_text(json.dumps(data))
    assert run(capsys, command, str(path)) == (1, "", f"packlat: error: {path}: {message}\n")


# --- checkpoint / resume ----------------------------------------------------


def test_rolling_checkpoint_then_resume_matches_one_shot(capsys, tmp_path):
    cp_path = tmp_path / "run.checkpoint.json"
    code, out, _ = run(
        capsys, "solve", "--width", "4", "--height", "4", "--k", "4",
        "--checkpoint-every", "50", "--checkpoint-file", str(cp_path),
    )
    assert code == 10
    one_shot = report_of(out)
    checkpoint = json.loads(cp_path.read_text())
    assert checkpoint["version"] == 1
    assert checkpoint["nodes"] % 50 == 0
    code, out, _ = run(capsys, "resume", str(cp_path))
    assert code == 10
    resumed = report_of(out)
    assert resumed["stats"]["nodes"] == one_shot["stats"]["nodes"]
    assert resumed["status"] == one_shot["status"]


def test_failed_checkpoint_replace_keeps_the_old_file(capsys, tmp_path, monkeypatch):
    from packlat import cli, search

    search._load_kernel()  # a cold kernel build must not meet the broken replace
    cp_path = tmp_path / "run.checkpoint.json"
    cp_path.write_text("old checkpoint\n")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", refuse)
    code, _, err = run(
        capsys, "solve", "--width", "4", "--height", "4", "--k", "4",
        "--checkpoint-every", "50", "--checkpoint-file", str(cp_path),
    )
    assert code == 1
    assert "disk full" in err and "Traceback" not in err
    assert cp_path.read_text() == "old checkpoint\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [cp_path.name]


def test_checkpoint_every_requires_file(capsys):
    code, _, err = run(
        capsys, "solve", "--width", "3", "--height", "3", "--k", "3",
        "--checkpoint-every", "10",
    )
    assert code == 1
    assert "checkpoint-file" in err


BAD_RUN_OPTIONS = {  # options, message
    "checkpoint-every-negative": (
        ["--checkpoint-every", "-5"],
        "usage error: argument --checkpoint-every: '-5' is not an integer >= 0"),
    "progress-every-negative": (
        ["--progress-every", "-1"],
        "usage error: argument --progress-every: '-1' is not an integer >= 0"),
    "split-depth-zero": (
        ["--mode", "par", "--split-depth", "0"], "error: split depth 0 outside 1..16"),
    "workers-zero": (
        ["--mode", "par", "--workers", "0"],
        "usage error: argument --workers: '0' is not an integer >= 1"),
    # options the chosen mode would ignore
    "split-depth-without-par": (
        ["--split-depth", "7"],
        "usage error: --split-depth and --workers apply to --mode par only"),
    "workers-without-par": (
        ["--workers", "5"], "usage error: --split-depth and --workers apply to --mode par only"),
    "checkpoint-file-with-par": (
        ["--mode", "par", "--checkpoint-file", "x.json"],
        "usage error: --checkpoint-file applies to sequential mode only"),
}


@pytest.mark.parametrize("case", list(BAD_RUN_OPTIONS))
def test_bad_run_options_exit_one_at_once(capsys, tmp_path, case):
    options, message = BAD_RUN_OPTIONS[case]
    argv = ["solve", "--width", "4", "--height", "4", "--k", "4", *options]
    assert run(capsys, *argv) == (1, "", f"packlat: {message}\n")
    if "every" in case:  # resume takes the same run options, checked before the file is read
        argv = ["resume", str(tmp_path / "absent.json"), *options]
        assert run(capsys, *argv) == (1, "", f"packlat: {message}\n")


def test_zero_run_intervals_are_off(capsys):
    argv = ["solve", "--width", "4", "--height", "4", "--k", "4"]
    code, out, err = run(capsys, *argv, "--checkpoint-every", "0", "--progress-every", "0")
    assert (code, err) == (10, "")
    assert report_of(out)["stats"] == report_of(run(capsys, *argv)[1])["stats"]


def test_resume_rejects_corrupt_checkpoint(capsys, tmp_path):
    grid = GridSpec(3, 3, 3)
    bad = {"version": 1, "grid": grid.to_dict(), "branch": [1, 1], "nodes": 2}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "resume", str(path))
    assert code == 1
    assert "inadmissible" in err


def test_resume_rejects_version_mismatch(capsys, tmp_path):
    grid = GridSpec(3, 3, 3)
    bad = {"version": 7, "grid": grid.to_dict(), "branch": [], "nodes": 0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "resume", str(path))
    assert code == 1
    assert "version" in err


# --- error paths -------------------------------------------------------------

GRID_2x2 = {"anchors": [], "height": 2, "max_color": 3, "width": 2}
SPLIT_2x2 = {"version": 1, "grid": GRID_2x2, "depth": 1, "units": 3}
ERROR_PATHS = {  # argv, files in the working directory, message
    "anchor-two-fields": (
        ["solve", "--width", "3", "--height", "3", "--k", "3", "--anchor", "1,2"], {},
        "error: anchor must be COL,ROW,COLOR, got '1,2'"),
    "anchor-not-integers": (
        ["solve", "--width", "3", "--height", "3", "--k", "3", "--anchor", "a,b,c"], {},
        "error: bad anchor 'a,b,c': invalid literal for int() with base 10: 'a'"),
    "grid-file-and-flags": (
        ["solve", "grid.json", "--k", "3"], {"grid.json": GRID_2x2},
        "error: give either a grid file or flags, not both"),
    "par-naive-check": (
        ["solve", "--width", "3", "--height", "3", "--k", "3", "--mode", "par", "--naive-check"],
        {}, "usage error: --naive-check applies to sequential mode only"),
    "par-checkpoint-every": (
        ["solve", "--width", "3", "--height", "3", "--k", "3", "--mode", "par",
         "--checkpoint-every", "5"], {},
        "usage error: checkpointing applies to sequential mode; parallel runs are "
        "resumed per unit"),
    "verify-flags-disagree": (
        ["verify", "c.json", "--width", "2", "--height", "2", "--k", "4"],
        {"c.json": {"grid": GRID_2x2, "colors": [[1, 2], [3, 1]]}},
        "error: coloring file's embedded grid disagrees with flags"),
    "manifest-version-2": (
        ["merge", "split.json"], {"split.json": {**SPLIT_2x2, "version": 2}},
        "error: split.json: unsupported split manifest version 2"),
    "coloring-text-line": (
        ["verify", "c.txt", "--width", "2", "--height", "1", "--k", "3"], {"c.txt": "1 x\n"},
        "error: c.txt: bad coloring line '1 x'"),
    "coloring-json-without-colors": (
        ["verify", "c.json"], {"c.json": {"grid": GRID_2x2}},
        'error: c.json: coloring JSON must have "grid" and "colors"'),
    "coloring-not-json": (
        ["verify", "c.json"], {"c.json": "{not json\n"},
        "error: c.json: not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)"),
    "unit-without-prefix": (
        ["solve-unit", "u.json"], {"u.json": {"grid": GRID_2x2}},
        'error: u.json: work unit JSON must have "grid" and "prefix"'),
    "checkpoint-a-list": (
        ["resume", "cp.json"], {"cp.json": [1]},
        "error: cp.json: checkpoint must be a JSON object"),
    "checkpoint-negative-nodes": (
        ["resume", "cp.json"],
        {"cp.json": {"version": 1, "grid": GRID_2x2, "branch": [], "nodes": -1}},
        "error: cp.json: negative node count -1"),
    "merge-witness-not-integer": (
        ["merge", "split.json", "r.json"],
        {"split.json": SPLIT_2x2,
         "r.json": {"grid": GRID_2x2, "unit": {"prefix": [1]}, "status": "SAT",
                    "stats": {"nodes": 3}, "witness": [[1, 2], [3, 1.5]]}},
        "error: r.json: non-integer color 1.5"),
}


@pytest.mark.parametrize("case", list(ERROR_PATHS))
def test_error_paths_exit_one_with_their_message(capsys, tmp_path, monkeypatch, case):
    argv, files, message = ERROR_PATHS[case]
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        Path(name).write_text(content if isinstance(content, str) else json.dumps(content))
    assert run(capsys, *argv) == (1, "", f"packlat: {message}\n")


def test_two_anchors_argue_from_the_anchor_pattern(capsys):
    code, out, _ = run(capsys, "solve", "--width", "2", "--height", "2", "--k", "2",
                       "--anchor", "1,1,1", "--anchor", "2,2,1")
    assert code == 10
    assert report_of(out)["lower_bound"] == {
        "claim": "packing chromatic number of the infinite square lattice >= 3",
        "argument": "No packing 2-coloring of the 2x2 window realizes the anchor pattern, so "
                    "no packing 2-coloring of the lattice contains a window matching it.",
        "assumption": "every packing 2-coloring of the lattice realizes the anchor pattern in "
                      "some window placement; this premise is assumed here, not proved",
    }


# --- render -----------------------------------------------------------------


def test_render_single_cell(capsys, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("1\n")
    code, out, _ = run(
        capsys, "render", str(path), "--width", "1", "--height", "1", "--k", "1"
    )
    assert code == 0
    assert out == "1\n"


def test_render_svg_to_file(capsys, tmp_path):
    src = tmp_path / "witness.txt"
    src.write_text("1 2\n3 1\n")
    out_file = tmp_path / "witness.svg"
    code, _, _ = run(
        capsys, "render", str(src), "--width", "2", "--height", "2", "--k", "3",
        "--format", "svg", "--out", str(out_file),
    )
    assert code == 0
    svg = out_file.read_text()
    assert svg.count("<rect") == 4


def test_render_golden_bytes(capsys, tmp_path):
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "witness_3x3.svg"
    src = tmp_path / "witness.txt"
    src.write_text("2 1 3\n1 4 1\n3 1 2\n")
    code, out, _ = run(
        capsys, "render", str(src), "--width", "3", "--height", "3", "--k", "4",
        "--format", "svg",
    )
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


# --- solve witness files ------------------------------------------------------


def test_witness_json_file_verifies(capsys, tmp_path):
    witness = tmp_path / "witness.json"
    code, _, _ = run(
        capsys, "solve", "--width", "2", "--height", "2", "--k", "3",
        "--witness-file", str(witness),
    )
    assert code == 0
    data = json.loads(witness.read_text())
    grid = GridSpec.from_dict(data["grid"])
    assert verify(grid, data["colors"]) is None


# --- contracts over generated instances ---------------------------------------


def test_exit_code_contract_over_random_instances(capsys):
    # 0 exactly for SAT, 10 exactly for UNSAT, over a seeded instance sample
    import random

    from packlat.search import SAT, solve

    rng = random.Random(97)
    for _ in range(25):
        w, h = rng.randint(1, 3), rng.randint(1, 3)
        k = rng.randint(1, 4)
        expected = solve(GridSpec(w, h, k)).status
        code, out, _ = run(
            capsys, "solve", "--width", str(w), "--height", str(h), "--k", str(k)
        )
        assert code == (0 if expected == SAT else 10)
        assert report_of(out)["status"] == expected


def test_progress_lines_go_to_stderr(capsys):
    code, _, err = run(
        capsys, "solve", "--width", "3", "--height", "3", "--k", "4",
        "--progress-every", "50",
    )
    assert code == 0
    assert "nodes=50" in err
    assert "rate=" in err


def test_parallel_progress_lines_count_units_and_nodes(capsys):
    argv = ["solve", "--width", "9", "--height", "7", "--k", "6", "--anchor", "5,4,4",
            "--mode", "par", "--split-depth", "3", "--workers", "1"]
    code, out, err = run(capsys, *argv, "--progress-every", "1000")
    assert code == 10
    lines = err.splitlines()
    assert lines and all(
        re.fullmatch(r"\[packlat\] units=\d+/125 nodes=[\d,]+ elapsed=\d+\.\ds rate=[\d,]+/s", line)
        for line in lines), err
    assert lines[-1].startswith("[packlat] units=125/125 nodes=1,378,176 ")
    quiet = run(capsys, *argv, "--progress-every", "0")
    assert quiet[::2] == (10, "")
    assert stable(report_of(quiet[1])) == stable(report_of(out))


def test_ctrl_c_before_the_search_exits_one_without_traceback(capsys, monkeypatch):
    from packlat import cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_grid_from_args", interrupted)
    code, out, err = run(capsys, "solve", "--width", "3", "--height", "3", "--k", "3")
    assert code == 1
    assert out == ""
    assert err == "packlat: interrupted; no checkpoint was written\n"


def test_report_names_the_engine_only_in_volatile(capsys):
    import shutil

    argv = ["solve", "--width", "9", "--height", "7", "--k", "6", "--anchor", "5,4,4"]
    reports = [report_of(run(capsys, *argv)[1]) for _ in range(2)]
    fast = "c" if shutil.which("cc") else "naive"
    assert [r["volatile"]["engine"] for r in reports] == [fast, fast]
    assert stable(reports[0]) == stable(reports[1])
    naive = run(capsys, "solve", "--width", "3", "--height", "3", "--k", "4", "--naive-check")
    assert report_of(naive[1])["volatile"]["engine"] == "naive"


def test_only_search_commands_load_the_kernel(capsys, tmp_path):
    # short commands pay no ctypes import or kernel load at startup
    import shutil
    import subprocess
    import sys

    grid = ["--width", "2", "--height", "2", "--k", "3"]
    assert run(capsys, "split", *grid, "--split-depth", "1",
               "--out-dir", str(tmp_path / "units"))[0] == 0
    reports = []
    for unit in sorted((tmp_path / "units").glob("unit_*.json")):
        reports.append(tmp_path / f"report_{unit.stem}.json")
        reports[-1].write_text(run(capsys, "solve-unit", str(unit))[1])
    (tmp_path / "w.txt").write_text("1 2\n3 1\n")
    commands = [
        ["chi", "--width", "2", "--height", "2"],
        ["split", *grid, "--split-depth", "1", "--out-dir", "again"],
        ["verify", "w.txt", *grid],
        ["render", "w.txt", *grid, "--format", "svg"],
        ["merge", "units/split.json", *map(str, reports)],
        ["solve", *grid],
    ]
    script = (
        "import sys\n"
        "from packlat.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    main(argv)\n"
        "    print('ctypes' in sys.modules, file=sys.stderr)\n"
    )
    child = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, timeout=60, cwd=tmp_path, env=_child_env())
    assert child.returncode == 0, child.stderr
    kernel_loaded = str(shutil.which("cc") is not None)  # solve is the control
    assert child.stderr.split() == ["False"] * 5 + [kernel_loaded]


def test_a_fresh_process_imports_only_what_its_command_runs(tmp_path):
    # without bytecode caches a process compiles every module it imports,
    # so short commands load no search and no command loads dataclasses
    import subprocess
    import sys

    (tmp_path / "w.txt").write_text("1 2\n3 1\n")
    grid = ["--width", "2", "--height", "2", "--k", "3"]
    heavy = {"dataclasses", "inspect", "multiprocessing"}
    short = heavy | {"packlat.search", "ctypes"}
    cases = [
        (["verify", "w.txt", *grid], short),
        (["render", "w.txt", *grid, "--format", "svg"], short),
        (["chi", "--width", "2", "--height", "2"], short),
        (["solve", *grid], heavy | {"packlat.oracle", "packlat.render"}),
    ]
    for argv, unwanted in cases:
        script = (
            "import sys\n"
            "from packlat.cli import main\n"
            f"code = main({argv!r})\n"
            f"print(code, sorted(set(sys.modules) & {unwanted!r}), file=sys.stderr)\n"
        )
        child = subprocess.run([sys.executable, "-c", script], capture_output=True,
                               text=True, timeout=60, cwd=tmp_path, env=_child_env())
        assert child.stderr.splitlines()[-1] == "0 []", (argv, child.stderr)


def test_sigint_writes_checkpoint_and_resume_finishes(tmp_path):
    # end to end through a real process: interrupt, get exit 20 plus a
    # checkpoint, resume to the same final count as an uninterrupted run
    import select
    import shutil
    import signal
    import subprocess
    import sys

    env = _child_env()
    cp_file = tmp_path / "interrupted.json"
    # unbuffered binary pipes: readline() takes exactly the first line, and
    # communicate() gets everything after it
    with subprocess.Popen(
        [
            sys.executable, "-m", "packlat.cli", "solve",
            "--width", "9", "--height", "7", "--k", "6", "--anchor", "5,4,4",
            "--checkpoint-file", str(cp_file), "--progress-every", "65536",
            "--naive-check",  # about 2 s on this tree: room for the signal
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        cwd=tmp_path,
        env=env,
    ) as proc:
        try:
            # handshake: progress lines come from inside the search, so by
            # the first one the SIGINT handler is installed
            ready, _, _ = select.select([proc.stderr], [], [], 60)
            assert ready, "solve printed nothing on stderr within 60 s"
            first = proc.stderr.readline()
            if not first.startswith(b"[packlat] nodes="):
                out, err = proc.communicate(timeout=60)
                pytest.fail(
                    f"solve exited {proc.returncode} without a progress "
                    f"line:\n{(first + err).decode()}"
                )
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    out, err = out.decode(), (first + err).decode()
    assert proc.returncode == 20, (out, err)
    report = json.loads(out)
    assert report["status"] == "INTERRUPTED"
    assert report["volatile"]["engine"] == "naive"
    assert cp_file.exists()

    resumed = subprocess.run(
        [sys.executable, "-m", "packlat.cli", "resume", str(cp_file)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=env,
    )
    assert resumed.returncode == 10, resumed.stderr
    final = json.loads(resumed.stdout)
    # 9x7 k=6 anchored exhausts at a pinned count; resume must land on it
    assert final["status"] == "UNSAT"
    assert final["stats"]["nodes"] == 1378337
    # the checkpoint of the naive route resumes on the default one
    assert final["volatile"]["engine"] == ("c" if shutil.which("cc") else "naive")


@pytest.fixture(scope="module")
def ctrl_c_runs(tmp_path_factory):
    """Exit code, stdout, stderr and seconds of two headline runs that save
    nothing, each sent SIGINT (to its whole process group) after 1 s.

    Both would run for days, so only the interrupt can end them in time.
    They run side by side to keep the suite's wall time down.
    """
    import contextlib
    import os
    import signal
    import subprocess
    import sys
    import time

    tmp_path = tmp_path_factory.mktemp("ctrl_c")
    grid = GridSpec(15, 9, 11, ((Position(5, 5), 9),))
    (tmp_path / "unit.json").write_text(json.dumps({"grid": grid.to_dict(), "prefix": [1]}))
    commands = {
        "solve-unit": ["solve-unit", "unit.json"],
        "par": ["solve", "--width", "15", "--height", "9", "--k", "11", "--anchor", "5,5,9",
                "--mode", "par", "--split-depth", "2", "--workers", "2"],
    }
    procs = {}
    try:
        for name, argv in commands.items():
            procs[name] = subprocess.Popen(
                [sys.executable, "-m", "packlat.cli", *argv], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=_child_env(),
                start_new_session=True,
            )
        time.sleep(1)
        t0 = time.monotonic()
        for proc in procs.values():
            os.killpg(proc.pid, signal.SIGINT)
        results = {}
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=10)
            results[name] = (proc.returncode, out, err, time.monotonic() - t0)
    finally:
        for proc in procs.values():
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # the pool's workers too
            proc.wait()
    return results


@pytest.mark.parametrize("command", ["solve-unit", "par"])
def test_ctrl_c_in_solve_unit_and_par_exits_one(ctrl_c_runs, command):
    # a unit restarts from its prefix, so there is no checkpoint to write
    code, out, err, seconds = ctrl_c_runs[command]
    assert (code, out) == (1, ""), err
    assert err == "packlat: interrupted; no checkpoint was written\n"
    assert seconds < 10


def _children_of(pid: int) -> list[int]:
    """The pids whose parent is ``pid``, from /proc/*/stat."""
    from pathlib import Path

    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):  # the process ended meanwhile
            continue
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


@pytest.mark.skipif(sys.platform != "linux", reason="finds the workers in /proc")
def test_a_killed_pool_worker_ends_par_with_exit_one():
    # the pool replaces a dead worker but never re-runs its task, so without
    # a watch on the workers the headline run would wait for it forever
    import contextlib
    import os
    import signal
    import subprocess
    import time

    proc = subprocess.Popen(
        [sys.executable, "-m", "packlat.cli", "solve", "--width", "15", "--height", "9",
         "--k", "11", "--anchor", "5,5,9", "--mode", "par", "--split-depth", "2",
         "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env(),
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 30
        while len(workers := _children_of(proc.pid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert workers, "no pool worker started within 30 s"
        time.sleep(0.5)
        os.kill(workers[0], signal.SIGKILL)
        t0 = time.monotonic()
        out, err = proc.communicate(timeout=10)
        seconds = time.monotonic() - t0
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert (proc.returncode, out) == (1, ""), err
    assert err == f"packlat: error: worker {workers[0]} died (exit code -9); its units were lost\n"
    assert seconds < 10
