"""Smoke test of the runnable drivers in scripts/: each runs as a
subprocess, exits 0 and prints something.  The stdout of emit_tables.py is
also compared byte for byte with tests/pins/emit_tables.txt, and the files
make_goldens.py writes with the committed goldens.  bench_pairs.py, which
runs the benchmark for half an hour, is tested on its summary alone."""

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


def test_bench_pairs_summary():
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        import bench_pairs
    finally:
        sys.path.pop(0)
    runs = [{"side": side, "workload": "check", "pair": i,
             "result": {"correct": True, "attempted": 10, "failed": int(side == "change"),
                        "metrics": {"job_ms_p90": {"value": v}, "jobs_per_s": {"value": 100 / v}}}}
            for i, (p, c) in enumerate([(4.0, 3.0), (5.0, 3.5), (4.5, 4.6), (6.0, 3.0)])
            for side, v in (("parent", p), ("change", c))]
    metrics = [{"name": "job_ms_p90", "better": "lower", "bound": 0.25},
               {"name": "jobs_per_s", "better": "higher", "bound": 0.1}]
    summary = bench_pairs.summarize(runs, metrics)["check"]
    assert (summary["pairs"], summary["all_correct"]) == (4, True)
    assert summary["failed"] == {"parent": 0, "change": 4}
    assert summary["attempted"] == {"parent": 40, "change": 40}
    p90 = summary["metrics"]["job_ms_p90"]
    # medians 4.75 and 3.25, parent quartiles 4.375 and 5.25
    assert p90["parent_q1_median_q3"] == [4.375, 4.75, 5.25]
    assert p90["change_wins"] == "3/4"
    assert p90["median_change_pct"] == -31.6
    assert p90["parent_iqr_pct_of_median"] == 18.4
    assert p90["parent_min_max"] == [4.0, 6.0] and p90["change_min_max"] == [3.0, 4.6]
    assert (p90["bound_pct"], p90["worse_beyond_bound"]) == (25.0, False)
    rate = summary["metrics"]["jobs_per_s"]
    assert rate["change_wins"] == "3/4" and rate["median_change_pct"] > 10
    assert rate["worse_beyond_bound"] is False
    slower = bench_pairs.summarize_metric([10.0] * 3, [8.0] * 3, "higher", 0.1)
    assert slower["median_change_pct"] == -20.0 and slower["worse_beyond_bound"] is True
