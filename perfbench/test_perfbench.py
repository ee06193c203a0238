"""Tests of the benchmark's own code: its input generators, its output
checks and its tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import copy
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import katz_forge  # noqa: E402
import katz_forge.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

GOLDENS = W.Goldens(ROOT)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = katz_forge.cli.main(argv)
    return rc, out.getvalue()


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _loader(tmp_path):
    def load(doc):
        return katz_forge.load_descriptor(_write(tmp_path, "cmp.json", doc))
    return load


# -- checks reject corrupted outputs -----------------------------------------

def test_replay_check_rejects_one_changed_tail_coefficient(tmp_path):
    load = _loader(tmp_path)
    for job in W.replay_round(GOLDENS, random.Random(3), W.Fresh()):
        rc, out = _cli(["replay", job["script"],
                        _write(tmp_path, "in.json", job["input"]), "--json"])
        assert rc == 0
        doc = json.loads(out)
        W.check_replay(doc, job["expected"], load)
        bad = copy.deepcopy(doc)
        el = bad["points"]["inf"]["irregular"][0]
        j = next(iter(el["phi"]))
        el["phi"][j] = f"3*({el['phi'][j]})"
        with pytest.raises(W.CheckFailed):
            W.check_replay(bad, job["expected"], load)


def test_check_report_check_rejects_rig_3(tmp_path):
    jobs = W.check_round(GOLDENS, random.Random(5), W.Fresh())
    rc, out = _cli(["check", _write(tmp_path, "in.json", jobs[0]["input"]), "--json"])
    assert rc == 0
    rep = json.loads(out)
    W.check_check_report(rep)
    rep["rig"] = 3
    with pytest.raises(W.CheckFailed):
        W.check_check_report(rep)


@pytest.mark.parametrize("r", [2, 3])
def test_tuple_check_rejects_a_missing_tuple(r):
    argv = ["classify", "--tuples", str(r), "--json"]
    rc, out = _cli(argv)
    assert rc == 0
    tuples = json.loads(out)
    W.check_tuples(tuples, r)
    W.check_classify_cli(argv, out)
    with pytest.raises(W.CheckFailed):
        W.check_tuples(tuples[1:], r)
    with pytest.raises(W.CheckFailed):
        W.check_classify_cli(argv, json.dumps(tuples[:-1]))


def test_tuple_check_recomputes_the_rigidity_equation():
    tuples = [list(t) for t in json.loads(_cli(["classify", "--tuples", "2", "--json"])[1])]
    tuples[0][-1] += 2
    with pytest.raises(W.CheckFailed, match="rigidity equation"):
        W.check_tuples(tuples, 2)


def test_verify_check_rejects_a_passing_excluded_candidate():
    rep = json.loads(_cli(["classify", "--verify", "--json"])[1])
    W.check_verify_report(rep)
    rep["excluded"]["pass"] = True
    with pytest.raises(W.CheckFailed):
        W.check_verify_report(rep)


# -- generators ---------------------------------------------------------------

def _replay_rounds(seed, n=6):
    rng, fresh = random.Random(seed), W.Fresh()
    return [W.replay_round(GOLDENS, rng, fresh) for _ in range(n)]


def _check_rounds(seed, n=6):
    rng, fresh = random.Random(seed), W.Fresh()
    return [W.check_round(GOLDENS, rng, fresh) for _ in range(n)]


def _classify_passes(seed, n=6):
    rng = random.Random(seed)
    return [W.classify_pass(rng) for _ in range(n)]


@pytest.mark.parametrize("make", [_replay_rounds, _check_rounds, _classify_passes])
def test_generators_are_deterministic_per_seed(make):
    assert json.dumps(make(7)) == json.dumps(make(7))
    assert json.dumps(make(7)) != json.dumps(make(8))


@pytest.mark.parametrize("workload", ["replay", "check"])
def test_no_input_repeats_within_a_run(tmp_path, workload):
    inputs = run.Inputs(workload, 11, str(tmp_path))
    seen, symbols = set(), set()
    for _ in range(24):
        for job in inputs.next_round():
            text = json.dumps(job["input"], sort_keys=True)
            assert text not in seen
            seen.add(text)
            names = set(re.findall(r"\bw\d{5}[a-z]\b", text))
            assert names and not names & symbols
            symbols |= names
            with open(job["argv"][-2]) as fh:
                assert json.load(fh) == job["input"]


def test_check_round_covers_every_family_and_order():
    kinds = [job["kind"].split("/") for job in _check_rounds(1, 1)[0]]
    assert {f for f, _ in kinds} == set(W.FAMILIES)
    assert {int(n) for _, n in kinds} == set(W.ORDERS)


def test_classify_pass_runs_the_same_jobs_in_a_seeded_order():
    a, b = _classify_passes(1, 1)[0], _classify_passes(2, 1)[0]
    key = lambda jobs: sorted(j["kind"] for j in jobs)
    assert key(a) == key(b) == sorted(j["kind"] for j in W.CLASSIFY_JOBS)


def test_eigenvalue_rewriting_agrees_with_the_package_parser():
    from katz_forge import parse_eigenvalue
    texts = set()
    for doc in GOLDENS.desc.values():
        for ft in doc["points"].values():
            texts.update(e for e, _ in ft["regular"])
            for el in ft["irregular"]:
                texts.update(e for e, _ in el["R"])
    for text in texts:
        assert parse_eigenvalue(W.render_eig(*W.parse_eig(text))) == parse_eigenvalue(text)
    subs = {"x": (Fraction(5, 12), "u"), "y": (Fraction(1, 7), "v")}
    assert (parse_eigenvalue(W.subs_eig("x^-1*y^-1", subs))
            == parse_eigenvalue("zeta(12)^7*zeta(7)^6*u^-1*v^-1"))


# -- tracer and entry point ----------------------------------------------------

def test_tracer_counts_layers_and_restores_the_package(tmp_path, monkeypatch):
    from katz_forge.elementary import ElementaryModule
    from katz_forge import formal_type
    normalize, render = ElementaryModule.normalize, formal_type.render_formal_type
    monkeypatch.setattr(spans, "PROBES", spans.PROBES + (
        ("engine", "engine", "no_such_function", False, None),))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ElementaryModule.normalize is not normalize
        assert katz_forge.cli.render_formal_type is formal_type.render_formal_type
        rc, _ = _cli(["check", os.path.join(GOLDENS.dir, "e3.json")])
        assert rc == 0
    finally:
        tracer.uninstall()
    assert ElementaryModule.normalize is normalize
    assert katz_forge.cli.render_formal_type is render
    assert tracer.absent == ["engine.no_such_function"]
    t = tracer.totals()
    assert t["calls"]["elementary.ElementaryModule.normalize"] > 0
    assert t["calls"]["formal_type.FormalType.end"] > 0
    assert t["group_ms"]["render"] > 0
    assert t["self_ms"]["scalars"] > 0
    tracer.write_spans(str(tmp_path / "spans.json"))
    spans_doc = json.loads((tmp_path / "spans.json").read_text())
    top = [s for s in spans_doc["spans"] if s[3] == -1]
    assert [spans_doc["probes"][s[0]] for s in top] == ["cli.main"]
    assert all(s[1] <= s[2] for s in spans_doc["spans"])


def test_end_to_end_scales_job_times_only():
    r = run.Run("check", None)
    r.records = [(0, "k", ms) for ms in (10.0, 20.0, 30.0, 40.0)]
    r.setups, r.rss_kb = [0.2, 0.4, 0.3], 2048
    raw, half = run.end_to_end(r, 1.0), run.end_to_end(r, 0.5)
    assert raw["job_ms_p50"]["value"] == 25.0 == 2 * half["job_ms_p50"]["value"]
    assert half["jobs_per_s"]["value"] == 2 * raw["jobs_per_s"]["value"] == 80.0
    assert raw["setup_s"] == half["setup_s"] == {"value": 0.3, "unit": "s"}
    assert half["peak_rss_mb"]["value"] == 2.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
