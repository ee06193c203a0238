"""Smoke test of the runnable drivers in scripts/: each runs as a
subprocess, exits 0 and prints something.  The stdout of emit_tables.py is
also compared byte for byte with tests/pins/emit_tables.txt, and the files
make_goldens.py writes with the committed goldens."""

import os
import shutil
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


def test_make_goldens_reproduces_the_goldens(tmp_path):
    # the script writes next to the package it imports, so it runs on a copy
    # of src/ without the goldens
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("goldens", "__pycache__"))
    (tmp_path / "scripts").mkdir()
    shutil.copy(os.path.join(ROOT, "scripts", "make_goldens.py"), tmp_path / "scripts")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, str(tmp_path / "scripts" / "make_goldens.py")],
                         capture_output=True, text=True, timeout=120, env=env)
    assert res.returncode == 0, res.stderr
    golden = os.path.join(ROOT, "src", "katz_forge", "goldens")
    made = tmp_path / "src" / "katz_forge" / "goldens"
    assert sorted(os.listdir(made)) == sorted(os.listdir(golden))
    for name in os.listdir(golden):
        with open(os.path.join(golden, name), "rb") as fh:
            assert (made / name).read_bytes() == fh.read(), name
