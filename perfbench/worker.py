"""One fresh interpreter running benchmark jobs against katz_forge.

Started by run.py with the package's `src` directory on PYTHONPATH.  It
imports katz_forge, loads every golden descriptor, prints `ready`, then
reads one JSON job per line from stdin and answers with one JSON line per
job on stdout.  A job is either a command line, run through
`katz_forge.cli.main(argv)` with its stdout and stderr captured, or the
scripts/emit_tables.py sequence of `classify` driver calls.  Only the call
itself is timed.  The line `end` makes the worker report its peak RSS (and,
when traced, its per-layer totals) and exit; the line `ref` times
`reference()`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction


def _jsonable(obj):
    """Sets as sorted lists, anything else json cannot write (Fractions) as text."""
    if isinstance(obj, (set, frozenset)):
        return sorted((_jsonable(x) for x in obj), key=repr)
    return str(obj)


def emit_tables(classify) -> dict:
    """The driver calls of scripts/emit_tables.py, in its order."""
    return {
        "profiles": classify.enumerate_slope_profiles(),
        "tables": classify.enumerate_local_invariants(),
        "audit": classify.table_audit(),
        "tuples": {r: classify.solve_rigidity_tuples(r) for r in (2, 3, 4)},
        "verify": classify.verify_classification(),
        "pullback": classify.pullback_identities(),
    }


def reference() -> float:
    """Milliseconds of a fixed computation that uses no katz_forge code:
    exact fractions, tuples, dicts, strings and sorting, like the package's
    own hot paths.  run.py scales job times by it to take out the drift of
    the machine's speed.  It runs with the collector off, so that the heap
    a job left behind does not change its time."""
    vals = [Fraction(i % 11 - 5, i % 7 + 1) for i in range(300)]
    table = {}
    gc.disable()
    try:
        t0 = time.perf_counter()
        for k in range(12):
            for i, v in enumerate(vals):
                w = v * vals[(i * 7 + k) % 300] + vals[(i + k) % 300]
                table[(i, k % 5)] = (w, str(w))
            vals.sort(key=lambda f: (f.denominator, f.numerator))
        return (time.perf_counter() - t0) * 1000.0
    finally:
        gc.enable()


def main(argv) -> int:
    root, traced, trace_path = argv[0], argv[1] == "1", argv[2]
    src = os.path.realpath(os.path.join(root, "src"))
    import katz_forge
    import katz_forge.cli
    from katz_forge import classify
    if not os.path.realpath(katz_forge.__file__).startswith(src + os.sep):
        print(f"katz_forge imported from {katz_forge.__file__}, not {src}",
              file=sys.stderr)
        return 2
    golden_dir = os.path.join(src, "katz_forge", "goldens")
    for name in sorted(os.listdir(golden_dir)):
        if name.endswith(".json"):
            katz_forge.load_descriptor(os.path.join(golden_dir, name))

    tracer = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans
        tracer = spans.Tracer()
        tracer.install()

    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    for line in sys.stdin:
        line = line.strip()
        if line == "end":
            break
        if line == "ref":
            proto.write(json.dumps({"ref_ms": reference()}) + "\n")
            proto.flush()
            continue
        job = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        result = None
        if tracer:
            tracer.job = job["id"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if "argv" in job:
                    rc = katz_forge.cli.main(job["argv"])
                else:
                    result = emit_tables(classify)
                    rc = 0
            except Exception:
                rc = -1
                err.write(traceback.format_exc())
            t1 = time.perf_counter()
        if tracer:
            tracer.job = None
        reply = {"id": job["id"], "ms": (t1 - t0) * 1000.0, "rc": rc,
                 "out": out.getvalue(), "err": err.getvalue()}
        if result is not None:
            reply["result"] = json.loads(json.dumps(result, default=_jsonable))
        proto.write(json.dumps(reply) + "\n")
        proto.flush()

    final = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        tracer.uninstall()
        final["layers"] = tracer.totals()
        final["absent"] = tracer.absent
        tracer.write_spans(trace_path)
    proto.write(json.dumps(final) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
