"""End-to-end command-line behavior: exit codes, reports, file formats."""

import json

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
    for i, name in enumerate(manifest["unit_files"]):
        code, out, _ = run(capsys, "solve-unit", str(out_dir / name))
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


def test_merge_rejects_missing_units(capsys, tmp_path):
    out_dir = tmp_path / "units"
    code, out, _ = run(
        capsys, "split", "--width", "1", "--height", "2", "--k", "2",
        "--split-depth", "1", "--out-dir", str(out_dir),
    )
    manifest = report_of(out)
    code, out, _ = run(capsys, "solve-unit", str(out_dir / manifest["unit_files"][0]))
    only_report = tmp_path / "only.json"
    only_report.write_text(out)
    code, _, err = run(capsys, "merge", str(out_dir / "split.json"), str(only_report))
    assert code == 1


MERGE_DAMAGE = {
    "report-without-unit": ("report", 'no "unit" field'),
    "report-not-an-object": ("report", "not a JSON object"),
    "manifest-without-grid": ("manifest", 'no "grid" field'),
    "prefix-not-a-list": ("report", "bad work unit prefix: 'int' object is not iterable"),
    "prefix-not-integers": (
        "report", "bad work unit prefix: invalid literal for int() with base 10: 'a'"),
    "prefix-outside-the-split": ("report", "unit [7] is not in the split"),
    "nodes-not-an-integer": ("report", "stats.nodes 'x' is not a non-negative integer"),
    "duplicate-report": ("report", "a second report for unit [1]"),
    "sat-witness-breaks-the-rule": ("report", "SAT witness breaks the rule for color 1"),
    "sat-without-witness": ("report", "coloring shape does not match 1x2 window"),
    "unit-file-of-another-depth": ("unit", "not a unit of a depth-1 split of this grid"),
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
    unit = json.loads(unit_file.read_text())
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
    else:
        unit["prefix"] = [1, 1]
    manifest_file.write_text(json.dumps(manifest))
    report_file.write_text(json.dumps(report))
    unit_file.write_text(json.dumps(unit))
    code, out, err = run(capsys, "merge", str(manifest_file), *map(str, reports))
    where, message = MERGE_DAMAGE[damage]
    bad_file = {"report": report_file, "manifest": manifest_file, "unit": unit_file}[where]
    assert (code, out, err) == (1, "", f"packlat: error: {bad_file}: {message}\n")


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


def test_packlat_threads_caps_workers(monkeypatch):
    from packlat.search import default_workers

    monkeypatch.setenv("PACKLAT_THREADS", "1")
    assert default_workers() == 1
    monkeypatch.setenv("PACKLAT_THREADS", "not-a-number")
    assert default_workers() >= 1


def test_progress_lines_go_to_stderr(capsys):
    code, _, err = run(
        capsys, "solve", "--width", "3", "--height", "3", "--k", "4",
        "--progress-every", "50",
    )
    assert code == 0
    assert "nodes=50" in err
    assert "rate=" in err


def test_ctrl_c_before_the_search_exits_one_without_traceback(capsys, monkeypatch):
    from packlat import cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_grid_from_args", interrupted)
    code, out, err = run(capsys, "solve", "--width", "3", "--height", "3", "--k", "3")
    assert code == 1
    assert out == ""
    assert err == "packlat: interrupted before the search started\n"


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
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import packlat

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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(packlat.__file__).resolve().parent.parent), env.get("PYTHONPATH"),
    ]))
    child = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, timeout=60, cwd=tmp_path, env=env)
    assert child.returncode == 0, child.stderr
    kernel_loaded = str(shutil.which("cc") is not None)  # solve is the control
    assert child.stderr.split() == ["False"] * 5 + [kernel_loaded]


def test_early_exit_parallel_cli(capsys):
    code, out, _ = run(
        capsys, "solve", "--width", "2", "--height", "2", "--k", "3",
        "--mode", "par", "--split-depth", "1", "--workers", "2", "--early-exit",
    )
    assert code == 0
    report = report_of(out)
    assert report["status"] == "SAT"
    assert report["parallel"]["count_reproducible"] is False


def test_sigint_writes_checkpoint_and_resume_finishes(tmp_path):
    # end to end through a real process: interrupt, get exit 20 plus a
    # checkpoint, resume to the same final count as an uninterrupted run
    import os
    import select
    import shutil
    import signal
    import subprocess
    import sys
    from pathlib import Path

    import packlat

    # the children run in tmp_path, where a relative PYTHONPATH (say
    # PYTHONPATH=src in a source checkout) does not resolve; put the
    # directory that holds the imported package first, as an absolute path
    package_root = str(Path(packlat.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )

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
