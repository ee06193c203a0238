#!/usr/bin/env python3
"""Regenerate the golden descriptor files and construction scripts."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from katz_forge.classify import CLASSIFICATION_ROWS, EXCLUDED_ROW, classification_descriptor
from katz_forge.engine import descriptor_to_json, ConnectionDescriptor, parse_location
from katz_forge.formal_type import parse_formal_type as reg

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "katz_forge", "goldens")


STARTS = {
    # LL1 on P1 - {0, a1^2/4, a1^2, inf}
    "l1": ({"0": reg("(l^-1)"), "a1^2/4": reg("(-l)"), "a1^2": reg("(l^-1)"),
            "inf": reg("(-l)")}, 1),
    # LL2 on P1 - {0, a1^2/4, a2^2/4, (a1+a2)^2/4, inf}
    "l2": ({"0": reg("(-1)"), "a1^2/4": reg("(-1)"), "a2^2/4": reg("(-1)"),
            "(a1+a2)^2/4": reg("(-1)"), "inf": reg("(1)")}, 1),
    # LL3 on P1 - {0, a1^3/27, -a1^3/27, inf}
    "l3": ({"0": reg("(-i)"), "a1^3/27": reg("(-1)"), "-a1^3/27": reg("(-1)"),
            "inf": reg("(i)")}, 1),
    # LL4 on P1 - {0, a1^6/6^6, inf}
    "l4": ({"0": reg("(-1)"), "a1^6/46656": reg("(-1)"), "inf": reg("(1)")}, 1),
}

SCRIPTS = {
    "e1": "mc -l\ntwist 1,-l^-1,1,-l\nfourier\nmoebius inv\nfourier\n",
    "e2": "fourier\nmoebius inv\nfourier\n",
    "e3": ("mc i\ntwist i,1,1,-i\nfourier\nmoebius inv\ntwist i,-i\n"
           "fourier\ntwist -1,-1\nmoebius inv\nfourier\n"),
    "e4": "fourier\nmoebius inv\n" * 5 + "fourier\n",
}


def main():
    os.makedirs(OUT, exist_ok=True)
    for name, _, _ in CLASSIFICATION_ROWS + (EXCLUDED_ROW,):
        c = classification_descriptor(name)
        with open(os.path.join(OUT, f"{name}.json"), "w") as fh:
            json.dump(descriptor_to_json(c), fh, indent=1, sort_keys=True)
            fh.write("\n")
    for name, (pts, rank) in STARTS.items():
        c = ConnectionDescriptor.make({parse_location(k): v for k, v in pts.items()}, rank)
        with open(os.path.join(OUT, f"{name}.json"), "w") as fh:
            json.dump(descriptor_to_json(c), fh, indent=1, sort_keys=True)
            fh.write("\n")
    for name, text in SCRIPTS.items():
        with open(os.path.join(OUT, f"{name}.script"), "w") as fh:
            fh.write(text)
    print(f"wrote goldens to {OUT}")


if __name__ == "__main__":
    main()
