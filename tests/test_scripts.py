"""Smoke test of the runnable drivers in scripts/: each runs as a
subprocess, exits 0 and prints something."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["emit_tables.py", "replay_constructions.py"])
def test_script_runs(script):
    res = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script)],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
