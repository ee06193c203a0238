"""Malformed inputs map to a typed error, with or without ``python -O``.

Every descriptor row must make ``check`` exit 2 with an ``error:`` line,
in-process and in a ``python -O`` subprocess (where an ``assert`` would
vanish); every ``OUT_OF_SCOPE`` row, well formed but outside the scalar
domain, must make it exit 3 with an ``out of scope:`` line.  The El(...)
rows are not reachable from descriptor JSON, so they go straight to
``parse_elementary``, again in both modes, and so do the library calls of
``CALLS``."""

import copy
import json
import os
import re
import subprocess
import sys

import pytest

import katz_forge
from katz_forge.cli import golden_path, main
from katz_forge.engine import parse_script
from katz_forge.elementary import ElementaryModule, parse_elementary
from katz_forge.jordan import parse_jordan
from katz_forge.scalars import ONE, OutOfScopeError, Scalar, parse_eigenvalue, parse_scalar

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

with open(golden_path("l1.json")) as fh:
    L1 = json.load(fh)


with open(golden_path("e2.json")) as fh:
    E2 = json.load(fh)


def _l1_with(key, point):
    d = copy.deepcopy(L1)
    d["points"][key] = point
    return d


def _e2_with(path, value):
    """e2 with the entry at path, a sequence of keys and indices, set to value."""
    d = copy.deepcopy(E2)
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return d


E2_EL = ("points", "inf", "irregular", 0)


DESCRIPTORS = {
    # a regular block of size 0 next to a block that carries the rank
    "jordan_block_size_0": _l1_with("0", {"regular": [["l^-1", 1], ["x", 0]],
                                          "irregular": []}),
    "jordan_block_size_negative": _l1_with("0", {"regular": [["l^-1", 1], ["x", -1]],
                                                 "irregular": []}),
    # an elementary summand of rank 0 adds nothing to the point's rank
    "elementary_empty_R": _l1_with("inf", {"regular": [["-l", 1]], "irregular": [
        {"p": 2, "c": "1", "phi": {"-1": "a1"}, "R": []}]}),
    # "a1*a1" and "a1^2" parse to the same point
    "same_point_twice": _l1_with("a1*a1", {"regular": [["-l", 1]], "irregular": []}),
    # numbers that are not JSON integers, which int() would truncate to a
    # valid descriptor
    "rank_not_integer": _e2_with(("rank",), 7.5),
    "jordan_block_size_not_integer": _e2_with(("points", "0", "regular", 0, 1), 3.4),
    "p_not_integer": _e2_with(E2_EL + ("p",), 2.5),
    "jordan_block_size_true": _e2_with(E2_EL + ("R", 0, 1), True),
    # phi keys "1" and "0" are pole orders -1 and 0: not tail terms
    "phi_pole_order_negative": _e2_with(E2_EL + ("phi",), {"1": "a1"}),
    "phi_pole_order_zero": _e2_with(E2_EL + ("phi",), {"0": "a1"}),
    # integers are written in ASCII digits: int() would read these phi keys
    # as pole orders 10, 1 and 1 (an Arabic-Indic one)
    "phi_key_underscore": _e2_with(E2_EL + ("phi",), {"-1_0": "a1"}),
    "phi_key_blanks": _e2_with(E2_EL + ("phi",), {" -1 ": "a1"}),
    "phi_key_non_ascii_digit": _e2_with(E2_EL + ("phi",), {"-\u0661": "a1"}),
    # a zero divisor as a location, a tail coefficient and a cover coefficient
    "location_over_zero": _l1_with("a1/0", {"regular": [["-l", 1]], "irregular": []}),
    "tail_zero_to_a_negative_power": _e2_with(E2_EL + ("phi",), {"-1": "0^-1"}),
    "cover_zero_monomial_to_a_negative_power": _e2_with(E2_EL + ("c",), "(0*a1)^-2"),
}


def _rank4_inf_pair(c):
    """(1)^4 at 0; at inf El(c*u^2, a1/u, (1)) next to El(u^2, a1/u, (1))."""
    el = {"p": 2, "c": c, "phi": {"-1": "a1"}, "R": [["1", 1]]}
    return {"rank": 4, "points": {"0": {"regular": [["1", 4]], "irregular": []},
                                  "inf": {"regular": [], "irregular": [el, dict(el, c="1")]}}}


# well-formed descriptors whose invariants leave the scalar domain: check
# exits 3 with one `out of scope:` line
OUT_OF_SCOPE = {
    # End needs a1^(3/2) - a1: a sum of different radical parts
    "radical_sum": _rank4_inf_pair("a1"),
    # the cover (a1+1)*u^2 needs the square root of a1+1
    "irrational_root": _rank4_inf_pair("a1+1"),
    # End compares 2^(1/2)*a1 with (zeta(8)+zeta(8)^7)*a1: one number
    # written with two radical parts
    "radical_parts_naming_one_number": {"rank": 4, "points": {
        "0": {"regular": [["1", 4]], "irregular": []},
        "inf": {"regular": [], "irregular": [
            {"p": 2, "c": "1", "phi": {"-1": phi}, "R": [["1", 1]]}
            for phi in ("2^(1/2)*a1", "(zeta(8)+zeta(8)^7)*a1")]}}},
}

ELEMENTARY = ["E(2, a1, (1))", "El(2, a1, (1)", "El(2, a1)", "El(2, a1, (1), 3)",
              "El(2, a1, ())", "El(2, a1, (xJ(0)))",
              # ramification orders below 1
              "El(0, a1, (1))", "El(-2, a1, (1))", "El(u^0, a1, (1))",
              # u, the coordinate of the cover, anywhere but in c*u^p and c/u^j
              "El(2, a1/(u^2), (1))", "El(u2, a1, (1))", "El(2, a1*u, (1))",
              # parentheses nested deeper than the grammar reads
              "El(2, " + "(" * 400 + "a1" + ")" * 400 + ", (1))",
              # digits other than ASCII 0-9 in p, u^p, c/u^j, J(n) and E<n>
              "El(\u0662, a1, (1))", "El(u^\u0662, a1, (1))", "El(2, a1/u^\u0662, (1))",
              "El(2, a1, (J(\u0663)))", "El(2, a1, (E\u0663))"]

# (El(...), p, {pole order: coefficient}) that must read as that module with
# R = (1): a binary - separates terms, and u1, u2 are symbols like a1
ELEMENTARY_EQUAL = [("El(u^2, a1 - a2/u^2, (1))", 2, {1: "a1", 2: "-a2"}),
                    ("El(2, a1/u2, (1))", 2, {1: "a1/u2"}),
                    ("El(2, a1/u1, (1))", 2, {1: "a1/u1"})]

# an empty factor is no symbol; zeta(0) is no root of unity; 400 nested
# parentheses are too deep; an integer is written in ASCII digits
EIGENVALUES = ["", "-", "x*", "()", "1*", "x/", "zeta(0)"]
SCALARS = ["zeta(0)", "zeta(0)^2", "(" * 400 + "x" + ")" * 400,
           "\u0663", "zeta(\u0663)", "a1^\u0662"]

# (written form, form it must equal): a `*` before J(n) or E<n> is optional
# and a zeta power may be fractional
JORDAN_EQUAL = [("(x*J(2))", "(xJ(2))"), ("(zeta(3)*J(2))", "(zeta(3)J(2))"),
                ("(-J(2))", "(-1J(2))"), ("(x*E2)", "(x, x)"), ("(-E2)", "(-1, -1)")]

# library calls that must raise ValueError: each row is an expression over
# the names of CALLS_SETUP
CALLS_SETUP = ("from katz_forge import Cyclotomic, ConnectionDescriptor, ElementaryModule, "
               "FormalType, JordanData, euler_char_middle, parse_eigenvalue, parse_jordan, "
               "parse_scalar\n"
               "from katz_forge.classify import CandidateShape\n"
               "from katz_forge.elementary import parse_elementary\n"
               "from katz_forge.fourier import lft_inf_to_s\n"
               "def reg(t):\n"
               "    return FormalType.make(parse_jordan(t))\n"
               "KUMMER = ConnectionDescriptor.make("
               "{parse_scalar('0'): reg('(m)'), 'inf': reg('(m^-1)')}, 1)\n")
CALLS = {
    # an auxiliary family whose members have ranks 1 and 2
    "euler_char_middle_mixed_ranks":
        "euler_char_middle(KUMMER, {parse_scalar('0'): reg('(1)'), 'inf': reg('(1, 1)')})",
    "rational_value_of_zeta_3": "Cyclotomic.zeta(3).rational_value()",
    # an auxiliary family with no member has no rank
    "euler_char_middle_empty_family": "euler_char_middle(KUMMER, {})",
    # a family that misses a singular location or has one the descriptor
    # lacks: chi would be a plausible wrong number
    "euler_char_middle_missing_location":
        "euler_char_middle(KUMMER, {parse_scalar('0'): reg('(1)')})",
    "euler_char_middle_extra_location":
        "euler_char_middle(KUMMER, {parse_scalar('0'): reg('(1)'), parse_scalar('1'): reg('(1)'),"
        " 'inf': reg('(1)')})",
    # a shape with a rank-2 regular part given a rank-1 pattern
    "shape_formal_type_wrong_regular_rank":
        "CandidateShape((), 2, 'reg2', ()).formal_type(parse_jordan('(1)'))",
    # a slope-(<1) piece at infinity with two tail terms: inverting its top
    # term alone would drop b/u
    "lft_inf_to_s_two_term_tail": "lft_inf_to_s(parse_elementary('El(3, a/u^2 + b/u, (1))'))",
    # sizes that are not ints, which int() would truncate to a valid value
    "elementary_p_not_integer":
        "ElementaryModule.make(2.5, {1: parse_scalar('a')}, parse_jordan('(1)'))",
    "elementary_p_bool": "ElementaryModule.make(True, {1: parse_scalar('a')}, parse_jordan('(1)'))",
    "elementary_pole_order_not_integer":
        "ElementaryModule.make(2, {1.5: parse_scalar('a')}, parse_jordan('(1)'))",
    "elementary_pole_order_not_integer_on_a_cover":
        "ElementaryModule.make(2, {1.5: parse_scalar('a')}, parse_jordan('(1)'), parse_scalar('4'))",
    "jordan_block_size_not_integer": "JordanData.make([(parse_eigenvalue('1'), 2.7)])",
    "jordan_block_size_bool": "JordanData.make([(parse_eigenvalue('1'), True)])",
    "descriptor_rank_not_integer": "ConnectionDescriptor.make(dict(KUMMER.points), 7.9)",
    "descriptor_rank_bool": "ConnectionDescriptor.make(dict(KUMMER.points), True)",
    # a location is a Scalar or 'inf'; parse_location reads text
    "descriptor_location_int":
        "ConnectionDescriptor.make({0: reg('(m)'), 'inf': reg('(m^-1)')}, 1)",
}

# files that load_descriptor refuses with a ValueError naming the path: None
# is a missing file, a callable makes the path itself, the rest are written
# as JSON
LOADS = {"missing": None, "list": [], "no_points_key": {"rank": 1},
         "no_points": {"rank": 1, "points": {}},
         "not_utf8": lambda path: path.write_bytes(b"\xff{}"),
         "directory": lambda path: path.mkdir()}


def _make_load(name, tmp_path):
    path = tmp_path / f"{name}.json"
    if callable(LOADS[name]):
        LOADS[name](path)
    elif LOADS[name] is not None:
        path.write_text(json.dumps(LOADS[name]))
    return path


def _typed_error(err: str) -> bool:
    """One `error:` line whose reason, after the file name, is not empty."""
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ") and not lines[0].endswith(":")


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, d in DESCRIPTORS.items():
        out[name] = tmp_path / f"{name}.json"
        out[name].write_text(json.dumps(d))
    return out


def _out_of_scope(err: str) -> bool:
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("out of scope: ")


@pytest.mark.parametrize("name", sorted(OUT_OF_SCOPE))
def test_check_exits_3(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(OUT_OF_SCOPE[name]))
    code = main(["check", str(path)])
    out = capsys.readouterr()
    assert code == 3, out.err
    assert out.out == ""
    assert _out_of_scope(out.err)


def test_check_exits_3_under_O(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    for name, d in OUT_OF_SCOPE.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d))
        res = subprocess.run([sys.executable, "-O", "-m", "katz_forge.cli", "check", str(path)],
                             capture_output=True, text=True, env=env, timeout=60)
        assert res.returncode == 3, (name, res.stdout, res.stderr)
        assert res.stdout == "", name
        assert _out_of_scope(res.stderr), (name, res.stderr)


def test_script_argument_out_of_scope_keeps_its_type():
    with pytest.raises(OutOfScopeError, match="^line 2: "):
        parse_script("fourier\nmoebius affine (1+2^(1/2))^(1/2)\n")


@pytest.mark.parametrize("name", sorted(DESCRIPTORS))
def test_check_exits_2(name, files, capsys):
    code = main(["check", str(files[name])])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert _typed_error(out.err)


def test_check_exits_2_under_O(files):
    env = dict(os.environ, PYTHONPATH=SRC)
    for name, path in files.items():
        res = subprocess.run([sys.executable, "-O", "-m", "katz_forge.cli", "check", str(path)],
                             capture_output=True, text=True, env=env, timeout=60)
        assert res.returncode == 2, (name, res.stdout, res.stderr)
        assert res.stdout == "", name
        assert _typed_error(res.stderr), (name, res.stderr)


def test_same_point_names_both_keys(files, capsys):
    main(["check", str(files["same_point_twice"])])
    err = capsys.readouterr().err
    assert "'a1*a1'" in err and "'a1^2'" in err


@pytest.mark.parametrize("name", ["location_over_zero", "tail_zero_to_a_negative_power",
                                  "cover_zero_monomial_to_a_negative_power"])
def test_division_by_zero_names_the_file(name, files, capsys):
    assert main(["check", str(files[name])]) == 2
    assert capsys.readouterr().err == (
        f"error: malformed descriptor in {files[name]}: scalar division by zero\n")


@pytest.mark.parametrize("p", [0, -2])
def test_ramification_below_1_names_p(p, tmp_path, capsys):
    path = tmp_path / "e2_p.json"
    path.write_text(json.dumps(_e2_with(E2_EL + ("p",), p)))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert _typed_error(err)
    assert f"p must be at least 1, got {p}" in err


@pytest.mark.parametrize("text", ELEMENTARY)
def test_parse_elementary_raises(text):
    with pytest.raises(ValueError, match=".+"):
        parse_elementary(text)


@pytest.mark.parametrize("text,p,tail", ELEMENTARY_EQUAL)
def test_parse_elementary_reads(text, p, tail):
    tail = {j: parse_scalar(c) for j, c in tail.items()}
    assert parse_elementary(text) == ElementaryModule.make(p, tail, parse_jordan("(1)"))


def test_large_cyclotomic_order_is_out_of_scope(tmp_path):
    """Q(zeta_2310) has degree 480: check exits 3 at once instead of
    building its subfield tables."""
    path = tmp_path / "e2_zeta.json"
    path.write_text(json.dumps(_e2_with(E2_EL + ("phi",), {"-1": "zeta(2310)*a1"})))
    res = subprocess.run([sys.executable, "-m", "katz_forge.cli", "check", str(path)],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
                         timeout=30)
    assert res.returncode == 3, res.stderr
    assert res.stdout == "" and res.stderr.startswith("out of scope: Q(zeta(2310))")


def test_check_reads_denominators_that_differ_in_a_constant(tmp_path, capsys):
    # e2 with tails a1/(a2+1) and a1/(a2+2): the torus dimension counts them
    # as two independent tails
    d = _e2_with(E2_EL + ("phi",), {"-1": "a1/(a2+1)"})
    d["points"]["inf"]["irregular"][1]["phi"] = {"-1": "a1/(a2+2)"}
    path = tmp_path / "e2_dens.json"
    path.write_text(json.dumps(d))
    assert main(["check", str(path)]) == 0
    assert "exponential torus dim = 3\n" in capsys.readouterr().out


@pytest.mark.parametrize("text", EIGENVALUES)
def test_parse_eigenvalue_raises(text):
    with pytest.raises(ValueError, match=".+"):
        parse_eigenvalue(text)


@pytest.mark.parametrize("text", SCALARS)
def test_parse_scalar_raises(text):
    with pytest.raises(ValueError, match=".+"):
        parse_scalar(text)


@pytest.mark.parametrize("text,same", JORDAN_EQUAL)
def test_jordan_entry_head(text, same):
    assert parse_jordan(text) == parse_jordan(same)


def test_fractional_zeta_power():
    assert parse_scalar("zeta(3)^(1/2)") == Scalar.zeta(3).root(2) == Scalar.zeta(6)
    assert parse_scalar("zeta(3)^(-1/2)") == Scalar.zeta(3, -1).root(2)
    assert parse_scalar("zeta(3)^2") == Scalar.zeta(3, 2)


@pytest.mark.parametrize("name", sorted(LOADS))
def test_load_descriptor_raises(name, tmp_path):
    path = _make_load(name, tmp_path)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        katz_forge.load_descriptor(str(path))


def test_check_names_a_file_that_is_not_utf8(tmp_path, capsys):
    path = _make_load("not_utf8", tmp_path)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert _typed_error(err) and str(path) in err


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_raises(name):
    scope: dict = {}
    exec(CALLS_SETUP, scope)
    with pytest.raises(ValueError, match=".+"):
        eval(CALLS[name], scope)


def test_call_raises_under_O():
    code = (CALLS_SETUP +
            "import sys\n"
            "for name, expr in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    try:\n"
            "        value = eval(expr)\n"
            "    except ValueError as exc:\n"
            "        if not str(exc):\n"
            "            print('empty message', name)\n"
            "        continue\n"
            "    print('returned', name, value)\n")
    args = [x for name in sorted(CALLS) for x in (name, CALLS[name])]
    res = subprocess.run([sys.executable, "-O", "-c", code] + args,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""


def test_parse_elementary_raises_under_O():
    code = ("import sys\n"
            "from katz_forge.elementary import parse_elementary\n"
            "for text in sys.argv[1:]:\n"
            "    try:\n"
            "        parse_elementary(text)\n"
            "    except ValueError as exc:\n"
            "        if not str(exc):\n"
            "            print('empty message', text)\n"
            "        continue\n"
            "    print('accepted', text)\n")
    res = subprocess.run([sys.executable, "-O", "-c", code] + ELEMENTARY,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""
