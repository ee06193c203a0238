#!/usr/bin/env python3
"""Replay the four construction schemes and print every intermediate line."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from katz_forge.cli import golden_path
from katz_forge.engine import (load_descriptor, read_text, run_script, parse_script,
                               render_location)
from katz_forge.formal_type import render_formal_type


def show(tag, start_name, script_text):
    start = load_descriptor(golden_path(start_name + ".json"))
    steps = parse_script(script_text)
    trace = run_script(start, steps)
    print(f"=== {tag} ===")
    labels = ["start"] + [s.op for s in steps]
    for label, d in zip(labels, trace):
        print(f"  {label:<8} rank {d.rank}")
        for loc, ft in d.points:
            print(f"    {render_location(loc)}: {render_formal_type(ft)}")
    print()


def main():
    for tag, start in (("E1", "l1"), ("E2", "l2"), ("E4", "l4"), ("E3", "l3")):
        show(tag, start, read_text(golden_path(tag.lower() + ".script")))


if __name__ == "__main__":
    main()
