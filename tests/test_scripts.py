"""Smoke test of the runnable drivers in scripts/: each runs as a
subprocess, exits 0 and prints something.  The stdout of emit_tables.py is
also compared byte for byte with tests/pins/emit_tables.txt."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script):
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))


@pytest.mark.parametrize("script", ["emit_tables.py", "replay_constructions.py"])
def test_script_runs(script):
    res = _run(script)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()


def test_emit_tables_matches_pin():
    with open(os.path.join(ROOT, "tests", "pins", "emit_tables.txt"), newline="") as fh:
        assert _run("emit_tables.py").stdout == fh.read()
