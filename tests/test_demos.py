"""Every demo script runs to completion from a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import packlat

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    # the demos import packlat from a child process in tmp_path, where a
    # relative PYTHONPATH does not resolve; 05 runs without --really
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(packlat.__file__).resolve().parent.parent), env.get("PYTHONPATH"),
    ]))
    child = subprocess.run([sys.executable, str(demo)], capture_output=True,
                           text=True, timeout=120, cwd=tmp_path, env=env)
    assert child.returncode == 0, child.stderr
