"""Every script under demos/ runs to completion in a fresh interpreter.

TMPDIR points at the test's own directory, so the scratch directories the
demos make (06_cli_walkthrough.py's bihazard-demo-*) are removed with it.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bihazard

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(bihazard.__file__).resolve().parents[1])
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout
