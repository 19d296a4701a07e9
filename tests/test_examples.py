"""The runnable examples still run: each ``examples/*.py`` exits 0.

The examples script against the public ``repro`` API, so a removed or
renamed name breaks them without breaking any unit test.  Each one runs in
a fresh interpreter with ``PYTHONPATH=src``, as ``docs/`` tells a reader to.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_there_are_examples():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    run = subprocess.run([sys.executable, str(script)], cwd=REPO_ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
