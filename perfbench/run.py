#!/usr/bin/env python3
"""Benchmark of katz-forge: the classification tables, the construction
replays and `check` on fresh family members.

    python3 perfbench/run.py --workload classify|replay|check --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a source tree of the package (it finds `src/`
next to its own directory).  Jobs run in fresh worker interpreters
(perfbench/worker.py); this process makes the inputs, times nothing but
the setup, and checks every output.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones and the
tracing overhead.  Details of each run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

WORKLOADS = ("classify", "replay", "check")
# Interpreter starts timed for setup_s, spread evenly over the run: the
# speed of this machine drifts by several percent within seconds, and
# starts made back to back would all see the same phase of that drift.
SETUP_STARTS = 12
# A job that runs longer than this is taken for a hang.
JOB_TIMEOUT_S = 60.0
# The speed of this machine drifts by 10-40% between minutes, for any code
# (a fixed integer loop too), so raw job times of two runs of the same code
# differ that much.  An untraced run therefore times worker.reference(), a
# fixed computation without katz_forge code, after every REF_EVERY_MS of
# job time, and reports job times scaled to the speed at which the
# reference takes REF_MS (its typical time here): time * REF_MS / median
# reference time.  The raw figures are kept in the run's file in out/.
REF_EVERY_MS = 500.0
REF_MS = 20.0


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

class Worker:
    """A fresh interpreter; its set-up time runs from spawn to `ready`."""

    def __init__(self, traced: bool = False, trace_path: str = ""):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["PYTHONHASHSEED"] = "0"
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), ROOT,
             "1" if traced else "0", trace_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
            text=True)
        line = self._read(JOB_TIMEOUT_S)
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.kill()
            raise BenchError("worker did not start")

    def _read(self, timeout: float) -> str:
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            return self.proc.stdout.readline()
        finally:
            timer.cancel()

    def run(self, job) -> dict:
        """Send a job (or the line `ref`) and return the worker's answer."""
        self.proc.stdin.write((job if isinstance(job, str) else json.dumps(job)) + "\n")
        self.proc.stdin.flush()
        line = self._read(JOB_TIMEOUT_S)
        if not line:
            self.kill()
            raise BenchError(f"worker died or hung on job {job}")
        return json.loads(line)

    def close(self) -> dict:
        self.proc.stdin.write("end\n")
        self.proc.stdin.flush()
        line = self._read(JOB_TIMEOUT_S)
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        if not line:
            raise BenchError("worker ended without its final report")
        return json.loads(line)

    def kill(self):
        self.proc.kill()
        self.proc.wait()


# ---------------------------------------------------------------------------
# workloads: rounds of jobs
# ---------------------------------------------------------------------------

class Inputs:
    """Makes the rounds of one workload from the seed and writes the
    generated descriptors into the work directory."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.fresh = W.Fresh()
        self.work = work
        self.goldens = W.Goldens(ROOT)
        self.jobs = 0

    def _write(self, doc: dict) -> str:
        path = os.path.join(self.work, f"in{self.jobs:05d}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def next_round(self) -> list:
        if self.workload == "classify":
            jobs = W.classify_pass(self.rng)
        elif self.workload == "replay":
            jobs = W.replay_round(self.goldens, self.rng, self.fresh)
            for job in jobs:
                self.jobs += 1
                job["argv"] = ["replay", job["script"], self._write(job["input"]), "--json"]
        else:
            jobs = W.check_round(self.goldens, self.rng, self.fresh)
            for job in jobs:
                self.jobs += 1
                job["argv"] = ["check", self._write(job["input"]), "--json"]
        return jobs


class Checker:
    """Checks job outputs; the replay check parses descriptors with the
    package under test, imported from the same source tree."""

    def __init__(self, work: str):
        self.work = work
        self._load = None

    def load(self, doc: dict):
        if self._load is None:
            sys.path.insert(0, os.path.join(ROOT, "src"))
            import katz_forge
            self._load = katz_forge.load_descriptor
        path = os.path.join(self.work, "compare.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return self._load(path)

    def check(self, workload: str, job: dict, reply: dict):
        if workload == "classify":
            if "argv" in job:
                W.check_classify_cli(job["argv"], reply["out"])
            else:
                W.check_emit(reply["result"])
        elif workload == "replay":
            W.check_replay(json.loads(reply["out"]), job["expected"], self.load)
        else:
            W.check_check_report(json.loads(reply["out"]))


class Run:
    """Runs whole rounds, checks each output and keeps every record."""

    def __init__(self, workload: str, checker: Checker, traced: bool = False,
                 trace_stem: str = ""):
        self.workload = workload
        self.checker = checker
        self.traced = traced
        self.trace_stem = trace_stem
        self.worker = None
        self.refs = []        # reference times (ms), untraced runs only
        self._since_ref = 0.0
        self.records = []     # (round, kind, ms) of the jobs that did not fail
        self.failures = []
        self.wrong = []
        self.attempted = 0
        self.setups = []      # set-up times of the timed interpreter starts
        self.rss_kb = 0
        self.layers = []
        self.absent = set()

    def _job(self, worker: Worker, r: int, job: dict):
        self.attempted += 1
        spec = {"id": self.attempted}
        if "argv" in job:
            spec["argv"] = job["argv"]
        else:
            spec["driver"] = job["driver"]
        reply = worker.run(spec)
        if not self.traced:
            self._since_ref += reply["ms"]
            if self._since_ref >= REF_EVERY_MS:
                self.refs.append(worker.run("ref")["ref_ms"])
                self._since_ref = 0.0
        if reply["rc"] != 0:
            self.failures.append({"kind": job["kind"], "rc": reply["rc"],
                                  "err": reply["err"][-2000:]})
            return
        self.records.append((r, job["kind"], reply["ms"]))
        try:
            self.checker.check(self.workload, job, reply)
        except (W.CheckFailed, ValueError, KeyError, TypeError) as exc:
            self.wrong.append({"kind": job["kind"], "error": repr(exc),
                               "argv": job.get("argv")})

    def _close(self, worker: Worker):
        final = worker.close()
        self.rss_kb = max(self.rss_kb, final["rss_kb"])
        if "layers" in final:
            self.layers.append(final["layers"])
            self.absent.update(final["absent"])

    def round(self, r: int, jobs: list):
        """Run one round.  `classify` starts a fresh interpreter for every
        pass, the other workloads keep one for the whole run."""
        if self.worker is None:
            trace_path = f"{self.trace_stem}-{r}.json" if self.traced else ""
            self.worker = Worker(self.traced, trace_path)
        for job in jobs:
            self._job(self.worker, r, job)
        if self.workload == "classify":
            self.finish()

    def finish(self):
        if self.worker is not None:
            self._close(self.worker)
            self.worker = None

    def times(self) -> list:
        return [ms for _, _, ms in self.records]


def timed(inputs: Inputs, seconds: float, setups: list, starts: int = 0):
    """New rounds until the rounds have taken `seconds`.  `starts`
    interpreter starts are timed into `setups` at equal shares of
    `seconds`, in between rounds; their time is not counted."""
    busy = 0.0
    while busy < seconds:
        while len(setups) < starts and busy >= len(setups) * seconds / starts:
            setups.append(setup_start())
        t0 = time.perf_counter()
        yield inputs.next_round()
        busy += time.perf_counter() - t0
    while len(setups) < starts:
        setups.append(setup_start())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(run: Run, scale: float) -> dict:
    """The end-to-end metrics; job times are multiplied by `scale`."""
    times = [ms * scale for ms in run.times()]
    if len(times) < 2:
        raise BenchError("fewer than two jobs completed")
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
    return {
        "setup_s": {"value": statistics.median(run.setups), "unit": "s"},
        "jobs_per_s": {"value": len(times) / (sum(times) / 1000.0), "unit": "jobs/s"},
        "job_ms_p50": {"value": statistics.median(times), "unit": "ms"},
        "job_ms_p90": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": run.rss_kb / 1024.0, "unit": "MB"},
    }


# per-layer metric -> how to read it from the summed worker totals
def _calls(*probes):
    return lambda t: sum(t["calls"].get(p, 0) for p in probes)


def _group(name):
    return lambda t: t["group_ms"].get(name, 0.0)


def _self(layer):
    return lambda t: t["self_ms"].get(layer, 0.0)


def _share(num, *probes):
    def f(t):
        den = sum(t["calls"].get(p, 0) for p in probes)
        return t[num] / den if den else 0.0
    return f


CYC_OPS = ("scalars.Cyclotomic.__add__", "scalars.Cyclotomic.__sub__",
           "scalars.Cyclotomic.__mul__", "scalars.Cyclotomic.inverse")
FOURIER_PROBES = tuple(f"fourier.{n}" for n in (
    "vanishing_data", "nearby_from_vanishing", "sabbah_transform_raw",
    "lft_zero_to_inf", "lft_shifted", "epsilon_twist_inf", "lft_inf_to_s"))
NORMALIZE = "elementary.ElementaryModule.normalize"

# name -> (unit, reader, per job?)
PER_LAYER = {
    "scalars.self_ms": ("ms/job", _self("scalars"), True),
    "scalars.cyclotomic_ops": ("count/job", _calls(*CYC_OPS), True),
    "scalars.cyclotomic_mul_repeat_share": (
        "fraction", _share("cyclotomic_mul_repeat", "scalars.Cyclotomic.__mul__"), False),
    "scalars.scalar_make_calls": ("count/job", _calls("scalars.Scalar.make"), True),
    "scalars.poly_gcd_calls": ("count/job", _calls("scalars.poly_gcd"), True),
    "scalars.root_calls": ("count/job", _calls("scalars.Scalar.root"), True),
    "scalars.root_ms": ("ms/job", _group("root"), True),
    "scalars.parse_ms": ("ms/job", _group("parse"), True),
    "jordan.self_ms": ("ms/job", _self("jordan"), True),
    "jordan.make_calls": ("count/job", _calls("jordan.JordanData.make"), True),
    "elementary.self_ms": ("ms/job", _self("elementary"), True),
    "elementary.normalize_calls": ("count/job", _calls(NORMALIZE), True),
    "elementary.normalize_ms": ("ms/job", _group("normalize"), True),
    "elementary.normalize_noop_share": ("fraction", _share("normalize_noop", NORMALIZE), False),
    "elementary.normalize_repeat_share": ("fraction", _share("normalize_repeat", NORMALIZE), False),
    "elementary.el_hom_calls": ("count/job", _calls("elementary.el_hom"), True),
    "elementary.el_hom_ms": ("ms/job", _group("el_hom"), True),
    "formal_type.self_ms": ("ms/job", _self("formal_type"), True),
    "formal_type.make_calls": ("count/job", _calls("formal_type.FormalType.make"), True),
    "formal_type.end_calls": ("count/job", _calls("formal_type.FormalType.end"), True),
    "formal_type.end_ms": ("ms/job", _group("end"), True),
    "formal_type.exterior_cube_ms": ("ms/job", _group("exterior_cube"), True),
    "formal_type.torus_dim_ms": ("ms/job", _group("torus_dim"), True),
    "fourier.self_ms": ("ms/job", _self("fourier"), True),
    "fourier.calls": ("count/job", _calls(*FOURIER_PROBES), True),
    "engine.self_ms": ("ms/job", _self("engine"), True),
    "engine.op_fourier_ms": ("ms/job", _group("op_fourier"), True),
    "engine.op_mc_ms": ("ms/job", _group("op_mc"), True),
    "engine.op_twist_ms": ("ms/job", _group("op_twist"), True),
    "engine.op_moebius_ms": ("ms/job", _group("op_moebius"), True),
    "engine.rigidity_index_ms": ("ms/job", _group("rigidity_index"), True),
    "engine.json_ms": ("ms/job", _group("json"), True),
    "classify.self_ms": ("ms/job", _self("classify"), True),
    "classify.table_audit_ms": ("ms/job", _group("table_audit"), True),
    "classify.verify_ms": ("ms/job", _group("verify"), True),
    "classify.pullback_ms": ("ms/job", _group("pullback"), True),
    "cli.self_ms": ("ms/job", _self("cli"), True),
    "cli.render_ms": ("ms/job", _group("render"), True),
}


def sum_totals(parts: list) -> dict:
    out = {"self_ms": {}, "group_ms": {}, "calls": {}}
    for part in parts:
        for key in ("self_ms", "group_ms", "calls"):
            for k, v in part[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for key in ("normalize_noop", "normalize_repeat", "cyclotomic_mul_repeat",
                    "spans", "spans_dropped"):
            out[key] = out.get(key, 0) + part[key]
    return out


def per_layer(totals: dict, jobs: int, overhead_pct: float) -> dict:
    metrics = {}
    for name, (unit, read, per_job) in PER_LAYER.items():
        value = read(totals)
        metrics[name] = {"value": value / jobs if per_job else value, "unit": unit}
    metrics["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def program_present() -> bool:
    pkg = os.path.join(ROOT, "src", "katz_forge")
    return (os.path.isfile(os.path.join(pkg, "cli.py"))
            and os.path.isdir(os.path.join(pkg, "goldens")))


def setup_start() -> float:
    w = Worker()
    w.close()
    return w.setup_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not program_present():
        print(f"error: no katz_forge source tree under {ROOT}/src", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        inputs = Inputs(args.workload, args.seed, work)
        checker = Checker(work)
        if args.trace:
            # every round runs untraced and traced, in alternating order, so
            # that drifts of the machine's speed cancel in the overhead
            base = Run(args.workload, checker)
            traced = Run(args.workload, checker, True, stem + "-spans")
            for r, jobs in enumerate(timed(inputs, args.seconds, [])):
                for run in ((base, traced) if r % 2 == 0 else (traced, base)):
                    run.round(r, jobs)
            runs = (base, traced)
            for run in runs:
                run.finish()
            overhead = (sum(traced.times()) / sum(base.times()) - 1.0) * 100.0
            metrics = per_layer(sum_totals(traced.layers), len(traced.records), overhead)
            raw = None
        else:
            run = Run(args.workload, checker)
            for r, jobs in enumerate(timed(inputs, args.seconds, run.setups, SETUP_STARTS)):
                run.round(r, jobs)
            run.finish()
            runs = (run,)
            if not run.refs:
                raise BenchError("no reference timing: the run was too short")
            raw = end_to_end(run, 1.0)
            metrics = end_to_end(run, REF_MS / statistics.median(run.refs))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failures) for r in runs)
    wrong = [w for r in runs for w in r.wrong]
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result,
        "unscaled_metrics": raw,
        "runs": [{"rounds": max((rec[0] for rec in r.records), default=-1) + 1,
                  "setups_s": r.setups, "refs_ms": r.refs, "rss_kb": r.rss_kb,
                  "jobs": r.records, "failures": r.failures, "wrong": r.wrong,
                  "layers": sum_totals(r.layers) if r.layers else None,
                  "absent": sorted(r.absent)} for r in runs],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    for w in wrong:
        print(f"wrong output: {w}", file=sys.stderr)
    absent = sorted(set().union(*(r.absent for r in runs)))
    if absent:
        print(f"absent probes (metrics read 0): {', '.join(absent)}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    raise SystemExit(main())
