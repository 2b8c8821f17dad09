"""Every walkthrough in ``examples/`` runs to completion.

Each example runs in its own interpreter with ``PYTHONPATH=src``, as
the README tells a reader to run it, so an example that imports a
deleted module or calls a removed API fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: Examples that take longer than a few seconds run in the slow tier.
SLOW = {"knapsack_tuning.py"}


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize(
    "path",
    [
        pytest.param(p, id=p.name, marks=[pytest.mark.slow] if p.name in SLOW else [])
        for p in EXAMPLES
    ],
)
def test_example_runs(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
