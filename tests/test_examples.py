"""The documented entry points: each example script runs to completion
in a fresh interpreter against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = [
    "quickstart.py",
    "debug_riscv_bug.py",
    "regression_and_waves.py",
    "multicore_pgas.py",
    "paper_artifacts.py",
]
# The paper's evaluation runs on the two smallest meshes only.
ARGS = {"paper_artifacts.py": ["1,2"]}


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *ARGS.get(script, [])],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
