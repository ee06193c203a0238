"""CLI renderings compared byte for byte with committed snapshots.

``tests/snapshots/`` holds the stdout of ``check --json`` and ``fourier
--json`` on every golden descriptor, of ``replay eN.script lN.json --json``
for the four construction scripts, and of ``classify --profiles --tables
--tuples 3 --verify --json``.  A change to arithmetic or canonical forms
that moves any printed scalar, eigenvalue or orbit representative shows
here as a failed comparison."""

import os

import pytest

from katz_forge.cli import golden_dir, golden_path, main

SNAPSHOTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "snapshots")


def _cases():
    cases = {}
    for f in sorted(os.listdir(golden_dir())):
        if f.endswith(".json"):
            for cmd in ("check", "fourier"):
                cases[f"{cmd}_{f}"] = [cmd, golden_path(f), "--json"]
    for i in (1, 2, 3, 4):
        cases[f"replay_e{i}.json"] = ["replay", golden_path(f"e{i}.script"),
                                      golden_path(f"l{i}.json"), "--json"]
    cases["classify.json"] = ["classify", "--profiles", "--tables", "--tuples", "3",
                              "--verify", "--json"]
    return cases


CASES = _cases()


def test_every_snapshot_has_a_case():
    assert sorted(os.listdir(SNAPSHOTS)) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_rendering_matches_snapshot(name, capsys):
    assert main(CASES[name]) == 0
    with open(os.path.join(SNAPSHOTS, name), newline="") as fh:
        assert capsys.readouterr().out == fh.read()
