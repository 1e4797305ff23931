import os
import subprocess
import sys
from pathlib import Path

import pytest

import telecert

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a temporary cwd: demos may write files (02 writes cheating_curves.csv)
    env = dict(os.environ, PYTHONPATH=str(Path(telecert.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
