"""Command-line surface.

Exit codes: 0 success, 1 check failure (including contradiction outcomes
of `replay`, `fourier`, `mc` and `twist`), 2 usage or malformed input, 3
out-of-scope input.  Errors are mapped to these codes once, in `main`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .scalars import OutOfScopeError, ascii_int
from .formal_type import render_formal_type
from .engine import (ConnectionDescriptor, ContradictionError, descriptor_to_json,
                     load_descriptor, parse_script, parse_step, read_text,
                     render_location, run_script)
from . import classify


def golden_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "goldens")


def golden_path(name: str) -> str:
    return os.path.join(golden_dir(), name)


def _check_report(c: ConnectionDescriptor) -> dict:
    ends, checks = classify.descriptor_checks(c, {})
    points = {
        render_location(loc): {
            "type": render_formal_type(ft),
            "slopes": {str(s): d for s, d in sorted(ft.slopes().items())},
            "irr": ft.irregularity(),
            "end_irr": end.irregularity(),
            "end_soln": end.soln_dim(),
        } for (loc, ft), end in zip(c.points, ends)}
    mono = c.inf_type().formal_monodromy().eigenvalue_multiset()
    pattern = classify.g2_pattern_check(mono) if len(mono) == 7 else None
    return {"rank": c.rank, "points": points, **checks, "g2_pattern": pattern}


def cmd_check(args) -> int:
    c = load_descriptor(args.descriptor)
    rep = _check_report(c)
    if args.json:
        print(json.dumps(rep, indent=2, sort_keys=True))
    else:
        print(f"rank = {rep['rank']}")
        for loc, p in rep["points"].items():
            print(f"point {loc}: {p['type']}")
            print(f"  slopes {p['slopes']}  irr = {p['irr']}  "
                  f"irr(End) = {p['end_irr']}  soln(End) = {p['end_soln']}")
        print(f"rig = {rep['rig']}")
        print(f"self-dual = {rep['self_dual']}  det-trivial = {rep['det_trivial']}")
        print(f"exponential torus dim = {rep['torus_dim']}")
        print(f"monodromy pattern (G2 necessary condition) = {rep['g2_pattern']}")
    if args.expect_rigid and rep["rig"] != 2:
        return 1
    return 0


def _print_descriptor(c: ConnectionDescriptor, as_json: bool):
    if as_json:
        print(json.dumps(descriptor_to_json(c), indent=2, sort_keys=True))
    else:
        print(f"rank {c.rank}")
        for loc, ft in c.points:
            print(f"  {render_location(loc)}: {render_formal_type(ft)}")


def cmd_replay(args) -> int:
    c = load_descriptor(args.descriptor)
    steps = parse_script(read_text(args.script))
    trace = run_script(c, steps)
    labels = ["start"] + [s.op for s in steps]
    if args.trace and args.json:
        # JSON lines, one record per step; the last holds the final descriptor
        for i, (label, d) in enumerate(zip(labels, trace)):
            print(json.dumps({"step": i, "op": label, "rank": d.rank,
                              "descriptor": descriptor_to_json(d)}, sort_keys=True))
        return 0
    if args.trace:
        for label, d in zip(labels, trace):
            print(f"--- {label} (rank {d.rank})")
            for loc, ft in d.points:
                print(f"    {render_location(loc)}: {render_formal_type(ft)}")
    _print_descriptor(trace[-1], args.json)
    return 0


def cmd_step(args) -> int:
    """fourier, mc CHI and twist SPEC: the script step of that line, applied
    to one descriptor."""
    step = parse_step(f"{args.cmd} {args.step_args}")
    _print_descriptor(step.apply(load_descriptor(args.descriptor)), args.json)
    return 0


def cmd_classify(args) -> int:
    did = False
    if args.profiles:
        did = True
        rows = classify.enumerate_slope_profiles()
        if args.json:
            print(json.dumps([[ [str(s), d] for s, d in row] for row in rows]))
        else:
            print("slopes & dimensions")
            for row in rows:
                print("  " + ",".join(str(s) for s, _ in row).ljust(12)
                      + " | " + ",".join(str(d) for _, d in row))
    if args.tables:
        did = True
        rows = classify.enumerate_local_invariants()
        if args.json:
            print(json.dumps([{"slopes": [str(s) for s in r["slopes"]],
                               "dims": list(r["dims"]),
                               "soln": sorted(r["soln"]),
                               "irr": sorted(r["irr"])} for r in rows]))
        else:
            print("slopes | dims | dim Soln(END) | irr(END)")
            for r in rows:
                print("  " + ",".join(str(s) for s in r["slopes"]).ljust(10)
                      + " | " + ",".join(str(d) for d in r["dims"]).ljust(5)
                      + " | " + ",".join(str(x) for x in sorted(r["soln"])).ljust(16)
                      + " | " + ",".join(str(x) for x in sorted(r["irr"])))
    if args.tuples is not None:
        did = True
        tups = classify.solve_rigidity_tuples(args.tuples)
        if args.json:
            print(json.dumps(tups))
        else:
            print(f"r = {args.tuples}: {len(tups)} tuples")
            for t in tups:
                print("  " + str(t))
    if args.verify:
        did = True
        rep = classify.verify_classification()
        if args.json:
            print(json.dumps(rep, indent=2, sort_keys=True, default=str))
        else:
            for name, _, _ in classify.CLASSIFICATION_ROWS:
                r = rep[name]
                chi = r.get("lambda3_chi", "-")
                print(f"  {name}: rig={r['rig']} self_dual={r['self_dual']} "
                      f"det_trivial={r['det_trivial']} torus={r['torus_dim']} "
                      f"pattern={r['pattern_zero'] and r['pattern_inf']} "
                      f"lambda3_chi={chi} -> {'PASS' if r['pass'] else 'FAIL'}")
            ex = rep["excluded"]
            print(f"  excluded: rig={ex['rig']} adjoint_dim={ex['adjoint_dim']} != "
                  f"{classify.adjoint_dim_at_zero('e2')} -> "
                  f"{'PASS' if ex['pass'] else 'FAIL (excluded as required)'}")
        if not rep["ok"]:
            return 1
    if not did:
        print("classify: nothing to do (use --tables, --tuples R, --profiles or --verify)",
              file=sys.stderr)
        return 2
    return 0


def cmd_pullback(args) -> int:
    if args.verify:
        rep = classify.pullback_identities()
        if args.json:
            print(json.dumps(rep))
        else:
            for k, v in rep.items():
                print(f"  {k}: {v}")
        return 0 if rep["ok"] else 1
    c = load_descriptor(args.descriptor)
    _print_descriptor(classify.kummer_pullback_descriptor(c, args.k), args.json)
    return 0


def _ascii_int(text: str) -> int:
    """R and K, read as the integers of a descriptor are, in argparse's wording."""
    try:
        return ascii_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="katz-forge")
    sub = ap.add_subparsers(dest="cmd")

    p = sub.add_parser("check")
    p.add_argument("descriptor")
    p.add_argument("--json", action="store_true")
    p.add_argument("--expect-rigid", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("replay")
    p.add_argument("script")
    p.add_argument("descriptor")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_replay)

    for op, metavar, helptext in (
            ("fourier", None, None), ("mc", "chi", None),
            ("twist", "twists", "comma-separated loc:eigenvalue pairs, or eigenvalues "
                                "over the sorted finite points then inf")):
        p = sub.add_parser(op)
        if metavar:
            p.add_argument("step_args", metavar=metavar, help=helptext)
        p.add_argument("descriptor")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=cmd_step, step_args="")

    p = sub.add_parser("classify")
    p.add_argument("--tables", action="store_true")
    p.add_argument("--tuples", type=_ascii_int, default=None, metavar="R")
    p.add_argument("--profiles", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("pullback")
    p.add_argument("--verify", action="store_true")
    p.add_argument("k", type=_ascii_int, nargs="?")
    p.add_argument("descriptor", nargs="?")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_pullback)
    return ap


# built once: parsing leaves the tree unchanged
_PARSER = _build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] in (["mc"], ["twist"]):
        # CHI and SPEC may start with '-' (mc -l): every argument but the
        # flags is positional
        flags = [a for a in argv[1:] if a in ("--json", "-h", "--help")]
        argv = [argv[0], *flags, "--", *(a for a in argv[1:] if a not in flags and a != "--")]
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    if not getattr(args, "fn", None):
        _PARSER.print_usage(sys.stderr)
        return 2
    if args.cmd == "pullback" and not args.verify and (args.k is None or args.descriptor is None):
        print("pullback: need either --verify or K DESCRIPTOR", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except ContradictionError as exc:
        print(f"contradiction: {exc.report}")
        return 1
    except OutOfScopeError as exc:  # a ValueError: caught first
        print(f"out of scope: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
