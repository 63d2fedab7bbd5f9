import os
import subprocess
import sys
from pathlib import Path

import pytest

import confanom

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# the package as this test session imports it, for the demo subprocesses
PACKAGE_ROOT = str(Path(confanom.__file__).resolve().parents[1])


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path):
    # stream_monitoring.py writes its trajectory to the working directory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
