"""The one expression grammar against the readers it replaced.

``reference_parse.py`` keeps the old scalar grammar, eigenvalue loop and
``parse_elementary``.  Expressions are drawn as trees over symbols, the
integers 0-3 and ``zeta(1..12)^e`` with ``+ - * / ^`` and parentheses to
depth 3, and written out with random spaces.  As scalars the two readers
must agree exactly: the same value, or the same exception type.  As
eigenvalues the new reader widens the old one: it takes ``/``,
parentheses around any product, powers of them and inner signs, where the
old loop rejected them.  So there a tree with no ``+``, no binary ``-``
and no integer but 1 must read as its value computed directly with
``Eigenvalue`` arithmetic (and as the old reader's value where that reads
it), and every other tree must be rejected by both."""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_parse as ref
from katz_forge.cli import golden_dir, golden_path
from katz_forge.elementary import parse_elementary, render_elementary
from katz_forge.engine import load_descriptor, run_script
from katz_forge.formal_type import parse_formal_type, render_formal_type
from katz_forge.scalars import Eigenvalue, parse_eigenvalue, parse_scalar

EXPONENTS = st.sampled_from([Fraction(e) for e in (0, 1, 2, 3, -1, -2)]
                            + [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3)])
LEAVES = st.one_of(
    st.tuples(st.just("sym"), st.sampled_from(["a1", "a2", "x", "i"])),
    st.tuples(st.just("int"), st.integers(0, 3)),
    st.tuples(st.just("zeta"), st.integers(1, 12), st.none() | EXPONENTS))


def _extend(inner):
    return st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), inner, inner),
        st.tuples(st.just("neg"), inner),
        st.tuples(st.just("pow"), inner, EXPONENTS),
        st.tuples(st.just("paren"), inner))


TREES = st.recursive(LEAVES, _extend, max_leaves=5)

# the binding of each node: 0 a sum, 1 a product, 2 a signed or powered
# factor, 3 an atom
LEVEL = {"add": 0, "sub": 0, "mul": 1, "div": 1, "neg": 2, "pow": 2,
         "sym": 3, "int": 3, "zeta": 3, "paren": 3}


def _exponent(e: Fraction, rnd) -> list:
    if e.denominator > 1:
        return ["^", "(", str(e.numerator), "/", str(e.denominator), ")"]
    if e < 0:
        return ["^", "-", str(-e)] if rnd.random() < 0.5 else ["^", "(", "-", str(-e), ")"]
    return ["^", str(e)] if rnd.random() < 0.5 else ["^", "(", str(e), ")"]


def _tokens(t, need: int, rnd) -> list:
    """The tokens of tree t where the grammar needs a node of level need."""
    kind = t[0]
    if kind == "sym":
        out = [t[1]]
    elif kind == "int":
        out = [str(t[1])]
    elif kind == "zeta":
        out = ["zeta", "(", str(t[1]), ")"] + (_exponent(t[2], rnd) if t[2] is not None else [])
    elif kind == "paren":
        out = ["("] + _tokens(t[1], 0, rnd) + [")"]
    elif kind == "neg":
        out = ["-"] + _tokens(t[1], 2, rnd)
    elif kind == "pow":
        out = _tokens(t[1], 3, rnd) + _exponent(t[2], rnd)
    else:
        op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
        level = LEVEL[kind]
        out = _tokens(t[1], level, rnd) + [op] + _tokens(t[2], level + 1, rnd)
    return out if LEVEL[kind] >= need else ["("] + out + [")"]


def _text(t, rnd) -> str:
    return "".join(tok + (" " if rnd.random() < 0.3 else "") for tok in _tokens(t, 0, rnd))


def _eigenvalue(t):
    """The value of t by Eigenvalue arithmetic, None when t is no eigenvalue."""
    kind = t[0]
    if kind in ("add", "sub") or (kind == "int" and t[1] != 1):
        return None
    if kind == "int":
        return Eigenvalue.one()
    if kind == "sym":
        return Eigenvalue.make(Fraction(1, 4)) if t[1] == "i" else Eigenvalue.sym(t[1])
    if kind == "zeta":
        return Eigenvalue.make(Fraction(1, t[1])).pow(Fraction(1 if t[2] is None else t[2]))
    args = [_eigenvalue(x) for x in t[1:] if isinstance(x, tuple)]
    if None in args:
        return None
    if kind == "paren":
        return args[0]
    if kind == "neg":
        return args[0] * Eigenvalue.minus_one()
    if kind == "pow":
        return args[0].pow(t[2])
    return args[0] * args[1] if kind == "mul" else args[0] / args[1]


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except (ValueError, ArithmeticError) as exc:
        return "error", type(exc)


@settings(max_examples=150, deadline=None)
@given(TREES, st.randoms(use_true_random=False))
def test_scalars_read_as_before(tree, rnd):
    text = _text(tree, rnd)
    assert _outcome(parse_scalar, text) == _outcome(ref.parse_scalar, text), text


@settings(max_examples=300, deadline=None)
@given(TREES, st.randoms(use_true_random=False))
def test_eigenvalues_widen_the_old_reader(tree, rnd):
    text = _text(tree, rnd)
    want = _eigenvalue(tree)
    old = _outcome(ref.parse_eigenvalue, text)
    if want is None:
        with pytest.raises(ValueError):
            parse_eigenvalue(text)
        assert old[0] == "error", text
        return
    assert parse_eigenvalue(text) == want, text
    if old[0] == "value":
        assert old[1] == want, text


# the widenings, one each: the old loop rejected all of these
WIDENED = [("x/y", "x*y^-1"), ("(x)^2", "x^2"), ("(x*y)", "x*y"), ("x*-y", "-x*y"),
           ("(-l)^3/l", "-l^2"), ("zeta(3)^2^2", "zeta(3)")]


@pytest.mark.parametrize("text,same", WIDENED)
def test_widened_eigenvalues(text, same):
    with pytest.raises(ValueError):
        ref.parse_eigenvalue(text)
    assert parse_eigenvalue(text) == ref.parse_eigenvalue(same)


@pytest.mark.parametrize("parse", [parse_scalar, parse_eigenvalue])
def test_nesting_depth_is_bounded(parse):
    assert parse("(" * 64 + "x" + ")" * 64) == parse("x")
    with pytest.raises(ValueError, match="parentheses nested deeper than 64"):
        parse("(" * 65 + "x" + ")" * 65)


def _formal_types() -> list:
    """Every point's formal type of every golden descriptor and of every
    step of the replays e1-e4 (113, 50 of them distinct)."""
    out = []
    for f in sorted(os.listdir(golden_dir())):
        if f.endswith(".json"):
            out += [ft for _, ft in load_descriptor(golden_path(f)).points]
    for i in (1, 2, 3, 4):
        with open(golden_path(f"e{i}.script")) as fh:
            trace = run_script(load_descriptor(golden_path(f"l{i}.json")), fh.read())
        out += [ft for d in trace for _, ft in d.points]
    return out


def test_formal_types_round_trip():
    fts = _formal_types()
    assert len(fts) == 113
    for ft in fts:
        assert parse_formal_type(render_formal_type(ft)) == ft, render_formal_type(ft)


def test_elementary_modules_read_as_before():
    """Every El(...) the renderer writes for these reads the same both ways."""
    for ft in _formal_types():
        for e in ft.irregular:
            text = render_elementary(e)
            assert parse_elementary(text) == ref.parse_elementary(text) == e, text
