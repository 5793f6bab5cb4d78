"""The scripts under ``examples/`` run to completion.

Each runs as its own process, the way a reader runs it, with the source
tree on ``PYTHONPATH``; a non-zero exit fails with the script's stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    [
        "la_habra_pipeline.py",
        "lts_buffer_walkthrough.py",
        "quickstart.py",
        pytest.param("loh3_accuracy.py", marks=pytest.mark.slow),
    ],
)
def test_example_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
