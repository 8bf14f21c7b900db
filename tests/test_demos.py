"""Every demo script runs to completion as a user runs it: a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lungrisk

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(lungrisk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, timeout=600,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
