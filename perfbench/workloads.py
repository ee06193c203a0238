"""Seeded inputs of the three workloads and the checks on their outputs.

Nothing here imports katz_forge: inputs are made by rewriting the golden
descriptor files as text, so the program only ever sees generated
descriptors, golden scripts and command lines.  Checks compare outputs
with the paper's rows and tables, or with properties the method must have.
The replay check needs the program's own parser to bring an expected row
into canonical form; it receives that as the `load` argument.
"""

from __future__ import annotations

import json
import os
import random
import re
from fractions import Fraction
from math import gcd

GOLDEN_REL = os.path.join("src", "katz_forge", "goldens")

# The ten classification families (rows of the paper's main table).
FAMILIES = ("e1_1", "e1_2", "e1_3", "e2", "e3",
            "e4_1", "e4_2", "e4_3", "e4_4", "e4_5")
# Construction scheme -> (starting rank-one system, the row it must reach).
REPLAYS = {"e1": ("l1", "e1_1"), "e2": ("l2", "e2"),
           "e3": ("l3", "e3"), "e4": ("l4", "e4_1")}
# A `replay` round.  The four scripts cost about 20, 45, 55 and 70 ms here;
# with one job each the median would fall between the e2 and e3 clusters,
# with e4 twice it falls inside the e3 cluster and the 90th percentile
# inside the e4 cluster.
REPLAY_ROUND = ("e1", "e2", "e3", "e4", "e4")
SCALAR_PARAMS = ("a1", "a2")
EIGEN_PARAMS = ("l", "x", "y", "z")
# Orders of the roots of unity put into `check` parameters.
ORDERS = tuple(range(1, 13))


class CheckFailed(AssertionError):
    """An output of the program contradicts the paper or the method."""


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# parameter substitution on descriptor JSON
# ---------------------------------------------------------------------------

_EIG_FACTOR = re.compile(
    r"^(?:zeta\((\d+)\)|(i)|(1)|([A-Za-z_][A-Za-z0-9_]*))"
    r"(?:\^(-?\d+|\((-?\d+)/(\d+)\)))?$")


def parse_eig(text: str):
    """(torsion, {symbol: exponent}) of an eigenvalue string of the golden
    grammar: an optional sign, then `*`-separated factors `zeta(n)[^k]`,
    `i`, `1` or `name[^e]`."""
    text = text.strip()
    torsion = Fraction(0)
    if text.startswith("-"):
        torsion += Fraction(1, 2)
        text = text[1:]
    word: dict = {}
    for factor in text.split("*"):
        m = _EIG_FACTOR.match(factor.strip())
        if not m:
            raise ValueError(f"unsupported eigenvalue factor {factor!r}")
        zn, i, one, name, exp, enum, eden = m.groups()
        if exp is None:
            e = Fraction(1)
        elif enum is not None:
            e = Fraction(int(enum), int(eden))
        else:
            e = Fraction(int(exp))
        if zn:
            torsion += e / int(zn)
        elif i:
            torsion += e / 4
        elif name:
            word[name] = word.get(name, Fraction(0)) + e
    return torsion % 1, word


def render_eig(torsion: Fraction, word: dict) -> str:
    parts = []
    torsion %= 1
    if torsion:
        parts.append(f"zeta({torsion.denominator})^{torsion.numerator}")
    for name in sorted(word):
        e = word[name]
        if not e:
            continue
        if e == 1:
            parts.append(name)
        elif e.denominator == 1:
            parts.append(f"{name}^{e.numerator}")
        else:
            parts.append(f"{name}^({e.numerator}/{e.denominator})")
    return "*".join(parts) if parts else "1"


def subs_eig(text: str, eig_subs: dict) -> str:
    """Replace eigenvalue symbols: eig_subs[name] = (torsion, new name)."""
    torsion, word = parse_eig(text)
    out: dict = {}
    for name, e in word.items():
        if name in eig_subs:
            t, new = eig_subs[name]
            torsion += t * e
            name = new
        out[name] = out.get(name, Fraction(0)) + e
    return render_eig(torsion, out)


def subs_scalar(text: str, scalar_subs: dict) -> str:
    """Replace scalar parameters by parenthesized expressions."""
    if not scalar_subs:
        return text
    pat = re.compile(r"\b(" + "|".join(map(re.escape, scalar_subs)) + r")\b")
    return pat.sub(lambda m: "(" + scalar_subs[m.group(1)] + ")", text)


def subs_descriptor(desc: dict, scalar_subs: dict, eig_subs: dict) -> dict:
    """A descriptor JSON document with parameters substituted everywhere:
    location keys, ramification coefficients, tails and eigenvalues."""
    points = {}
    for loc, ft in desc["points"].items():
        new_loc = loc if loc == "inf" else subs_scalar(loc, scalar_subs)
        points[new_loc] = {
            "regular": [[subs_eig(e, eig_subs), s] for e, s in ft.get("regular", [])],
            "irregular": [
                {"p": el["p"],
                 "c": subs_scalar(el.get("c", "1"), scalar_subs),
                 "phi": {j: subs_scalar(a, scalar_subs) for j, a in el["phi"].items()},
                 "R": [[subs_eig(e, eig_subs), s] for e, s in el["R"]]}
                for el in ft.get("irregular", [])],
        }
    return {"rank": desc["rank"], "points": points}


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

class Goldens:
    """The golden descriptors and construction scripts, read as text."""

    def __init__(self, root: str):
        self.dir = os.path.join(root, GOLDEN_REL)
        self.desc = {}
        for name in FAMILIES + tuple(start for start, _ in REPLAYS.values()):
            with open(os.path.join(self.dir, name + ".json")) as fh:
                self.desc[name] = json.load(fh)

    def script(self, name: str) -> str:
        return os.path.join(self.dir, name + ".script")


# Seeded rationals: numerator and denominator at most 3.  Larger heights
# make a job up to a third slower, which would make the cost of a run
# depend on the seed.
RATIONALS = tuple(sorted({Fraction(s * a, b) for s in (1, -1) for a in (1, 2, 3)
                          for b in (1, 2, 3)} - {Fraction(1)}))


def _rational(rng: random.Random) -> str:
    return str(rng.choice(RATIONALS))


def _unit_exponent(n: int, i: int) -> int:
    """The i-th exponent prime to n, cyclically."""
    units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
    return units[i % len(units)]


class Fresh:
    """Symbol names never used before in this run: `w`, a running counter
    and a letter per parameter."""

    def __init__(self):
        self.n = 0

    def names(self, params):
        self.n += 1
        return {p: f"w{self.n:05d}{chr(ord('a') + i)}" for i, p in enumerate(params)}


def replay_round(goldens: Goldens, rng: random.Random, fresh: Fresh) -> list:
    """One job per entry of REPLAY_ROUND.  The parameters a1, a2 of the
    start system become fresh symbols times seeded rationals; the expected
    final descriptor is the paper's row under the same substitution."""
    jobs = []
    for script in REPLAY_ROUND:
        start, row = REPLAYS[script]
        names = fresh.names(SCALAR_PARAMS)
        subs = {p: f"{_rational(rng)}*{names[p]}" for p in SCALAR_PARAMS}
        jobs.append({
            "kind": script,
            "script": goldens.script(script),
            "input": subs_descriptor(goldens.desc[start], subs, {}),
            "expected": subs_descriptor(goldens.desc[row], subs, {}),
        })
    return jobs


# A `check` round: fifteen (family, order of the root of unity) pairs that
# use every family and every order 1..12.  By cost they form plateaus: five
# cheap slots (80-160 ms here), five of 280-370 ms at ranks 6-10, two of
# 370-480 ms and three of about 670 ms at ranks 13-15.  The
# median and the 90th percentile of a run then fall inside a plateau of
# similar jobs, not in a gap between two clusters, where they would jump
# with the noise of single jobs.
CHECK_SLOTS = (
    ("e1_1", 2), ("e1_2", 3), ("e1_3", 5), ("e4_4", 6), ("e2", 1),
    ("e4_5", 12), ("e4_3", 9), ("e2", 10), ("e4_1", 4), ("e3", 9),
    ("e2", 8), ("e2", 11), ("e4_4", 7), ("e4_2", 7), ("e4_5", 7),
)


def check_round(goldens: Goldens, rng: random.Random, fresh: Fresh) -> list:
    """One member of a family per slot.  Tail parameters become fresh
    symbols times a seeded rational and a primitive root of unity of the
    slot's order, eigenvalue parameters fresh symbols times a primitive
    root of that order.  The i-th parameter takes the i-th exponent prime
    to the order: the cost of a job depends mostly on the root (up to 2x
    between exponents of one order), so that choice is fixed and the seed
    draws the rationals."""
    params = SCALAR_PARAMS + EIGEN_PARAMS
    jobs = []
    for family, n in CHECK_SLOTS:
        names = fresh.names(params)
        k = {p: _unit_exponent(n, i) for i, p in enumerate(params)}
        scalar_subs = {}
        for p in SCALAR_PARAMS:
            root = f"zeta({n})^{k[p]}*" if n > 1 else ""
            scalar_subs[p] = f"{root}{_rational(rng)}*{names[p]}"
        eig_subs = {p: (Fraction(k[p], n), names[p]) for p in EIGEN_PARAMS}
        jobs.append({
            "kind": f"{family}/{n}",
            "input": subs_descriptor(goldens.desc[family], scalar_subs, eig_subs),
        })
    return jobs


# A classification pass: the three `classify` command lines a user runs for
# the tables, `pullback --verify`, and the scripts/emit_tables.py sequence
# of driver calls.  The seed only orders the jobs within a pass.
CLASSIFY_JOBS = (
    {"kind": "cli_r2", "argv": ["classify", "--profiles", "--tables",
                                "--tuples", "2", "--verify", "--json"]},
    {"kind": "cli_r3", "argv": ["classify", "--profiles", "--tables",
                                "--tuples", "3", "--verify", "--json"]},
    {"kind": "cli_r4", "argv": ["classify", "--profiles", "--tables",
                                "--tuples", "4", "--verify", "--json"]},
    {"kind": "cli_pullback", "argv": ["pullback", "--verify", "--json"]},
    {"kind": "emit_tables", "driver": "emit_tables"},
)


def classify_pass(rng: random.Random) -> list:
    jobs = [dict(j) for j in CLASSIFY_JOBS]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

PROFILE_COUNT = 10
TUPLE_COUNTS = {2: 29, 3: 3, 4: 0}
R3_TUPLES = {(0, 0, 16, 25, 29, 13), (0, 0, 16, 29, 29, 9), (0, 0, 18, 29, 29, 11)}
PULLBACK_KEYS = ("[2]*e4_5 == e3", "[3]*e4_4 == e2 member")
RANK = 7


def check_tuples(tuples, r: int):
    """Count against the paper, and the rigidity equation recomputed for
    each tuple: 2 = (2 - r) * 49 - sum(s) + sum(z), with the r slope
    entries first and the r solution-dimension entries after them."""
    tuples = [tuple(t) for t in tuples]
    _require(len(tuples) == TUPLE_COUNTS[r],
             f"r={r}: {len(tuples)} tuples, the paper lists {TUPLE_COUNTS[r]}")
    _require(len(set(tuples)) == len(tuples), f"r={r}: repeated tuple")
    for t in tuples:
        _require(len(t) == 2 * r, f"r={r}: tuple {t} has the wrong length")
        s, z = t[:r], t[r:]
        _require(2 == (2 - r) * RANK * RANK - sum(s) + sum(z),
                 f"r={r}: tuple {t} violates the rigidity equation")
    if r == 3:
        _require(set(tuples) == R3_TUPLES, "r=3: tuples differ from the paper")


def check_verify_report(rep: dict):
    """The ten rows are rigid, self-dual, of trivial determinant, have
    exponential torus dimension <= 2 and pass the G2 pattern; the excluded
    candidate fails."""
    for name in FAMILIES:
        row = rep[name]
        _require(row["rig"] == 2, f"{name}: rig = {row['rig']}")
        _require(row["self_dual"] is True, f"{name}: not self-dual")
        _require(row["det_trivial"] is True, f"{name}: determinant not trivial")
        _require(row["torus_dim"] <= 2, f"{name}: torus dim {row['torus_dim']}")
        _require(row["pattern_zero"] is True and row["pattern_inf"] is True,
                 f"{name}: G2 pattern fails")
        _require(row["pass"] is True, f"{name}: row does not pass")
    _require(rep["excluded"]["pass"] is False, "excluded candidate passes")
    _require(rep["ok"] is True, "verification not ok")


def check_pullback(rep: dict):
    for key in PULLBACK_KEYS:
        _require(rep.get(key) is True, f"pullback identity {key!r} fails")
    _require(rep.get("ok") is True, "pullback identities not ok")


def check_audit(audit: list):
    _require(len(audit) == PROFILE_COUNT, f"audit has {len(audit)} rows")
    for rec in audit:
        if not rec["agrees"]:
            _require(bool(rec["note"]),
                     f"audit row {rec['profile']} differs without a note")


def check_classify_cli(argv: list, out: str):
    """Output of one `classify ... --json` or `pullback --verify --json`
    command line: one JSON document per requested section, in the order
    cli.cmd_classify prints them."""
    dec = json.JSONDecoder()
    docs, pos = [], 0
    out = out.strip()
    while pos < len(out):
        doc, pos = dec.raw_decode(out, pos)
        docs.append(doc)
        while pos < len(out) and out[pos].isspace():
            pos += 1
    if argv[0] == "pullback":
        _require(len(docs) == 1, "pullback: expected one JSON document")
        check_pullback(docs[0])
        return
    sections = [a for a in argv if a in ("--profiles", "--tables", "--tuples", "--verify")]
    _require(len(docs) == len(sections), f"{len(docs)} documents for {sections}")
    for section, doc in zip(sections, docs):
        if section == "--profiles":
            _require(len(doc) == PROFILE_COUNT, f"{len(doc)} slope profiles")
        elif section == "--tables":
            _require(len(doc) == PROFILE_COUNT, f"{len(doc)} table rows")
        elif section == "--tuples":
            check_tuples(doc, int(argv[argv.index("--tuples") + 1]))
        else:
            check_verify_report(doc)


def check_emit(result: dict):
    """Result of the emit_tables sequence, as serialized by the worker."""
    _require(len(result["profiles"]) == PROFILE_COUNT,
             f"{len(result['profiles'])} slope profiles")
    _require(len(result["tables"]) == PROFILE_COUNT,
             f"{len(result['tables'])} table rows")
    check_audit(result["audit"])
    for r in (2, 3, 4):
        check_tuples(result["tuples"][str(r)], r)
    check_verify_report(result["verify"])
    check_pullback(result["pullback"])


def check_check_report(rep: dict):
    """`check --json` on a family member: rigid, self-dual, trivial
    determinant, torus dimension <= 2 and the G2 pattern at infinity."""
    _require(rep["rank"] == RANK, f"rank {rep['rank']}")
    _require(rep["rig"] == 2, f"rig = {rep['rig']}")
    _require(rep["self_dual"] is True, "not self-dual")
    _require(rep["det_trivial"] is True, "determinant not trivial")
    _require(rep["torus_dim"] <= 2, f"torus dim {rep['torus_dim']}")
    _require(rep["g2_pattern"] is True, "G2 pattern fails")


def check_replay(out_doc: dict, expected_doc: dict, load):
    """The final descriptor of a replay equals the paper's row under the
    same substitution.  `load` turns a descriptor document into the
    program's canonical descriptor, so equal rows compare equal whatever
    representative of a zeta_p-orbit either side prints."""
    _require(out_doc["rank"] == expected_doc["rank"],
             f"rank {out_doc['rank']} != {expected_doc['rank']}")
    _require(load(out_doc) == load(expected_doc),
             "final descriptor differs from the paper's row")
