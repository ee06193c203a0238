"""Differential tests of the integer-coded eigenvalues against the reference
copy in ``reference_eigenvalue.py``.  Eigenvalues are drawn with a random
torsion a/b (b <= 12) and a word over l, x, y with exponents a/b
(|a| <= 4, b <= 3), built in both implementations from the same data;
every operation, powers by ints, 1/p and a/b among them, must give the
same value, key and text, and every result must be in canonical form."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import reference_eigenvalue as ref
from katz_forge import scalars
from katz_forge.jordan import JordanData
from katz_forge.scalars import Eigenvalue, render_eigenvalue

TORSIONS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
EXPONENTS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
WORDS = st.lists(st.tuples(st.sampled_from("lxy"), EXPONENTS), max_size=4)
DATA = st.tuples(TORSIONS, WORDS)


def both(data):
    t, w = data
    return Eigenvalue.make(t, w), ref.Eigenvalue.make(t, w)


def canonical(e):
    assert type(e.k) is int and type(e.n) is int
    assert 0 <= e.k < e.n and gcd(e.k, e.n) == 1
    syms = [s for s, _ in e.word]
    assert syms == sorted(set(syms))
    for _, x in e.word:
        assert x != 0
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1)


def same(new, old):
    canonical(new)
    assert new.torsion == old.torsion and new.word == old.word
    assert new.sort_key() == old.sort_key()
    assert new.is_one() == old.is_one()
    assert render_eigenvalue(new) == ref.render_eigenvalue(old)
    if not new.word:
        assert new.to_cyclotomic() == old.to_cyclotomic()


@settings(max_examples=200, deadline=None)
@given(DATA, DATA, st.integers(-4, 4), st.integers(1, 6), EXPONENTS)
def test_operations_agree(da, db, r, p, q):
    (a, ra), (b, rb) = both(da), both(db)
    same(a, ra)
    for new, old in ((a * b, ra * rb), (a / b, ra / rb), (a.inverse(), ra.inverse()),
                     (a.pow(r), ra.pow(r)), (a.pow(Fraction(1, p)), ra.pow(Fraction(1, p))),
                     (a.pow(q), ra.pow(q))):
        same(new, old)
    assert (a == b) == (ra == rb)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert hash(a / b * b) == hash(a)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(DATA, st.integers(1, 4)), max_size=8))
def test_jordan_order_is_sort_key_order(blocks):
    blocks = [(Eigenvalue.make(*d), s) for d, s in blocks]
    expected = sorted(blocks, key=lambda t: (t[0].sort_key(), -t[1]))
    assert list(JordanData.make(blocks).blocks) == expected


def test_integral_words_build_no_fraction(monkeypatch):
    a = Eigenvalue.make(Fraction(1, 6), (("l", 2), ("x", -1)))
    b = Eigenvalue.make(Fraction(3, 4), (("l", -2), ("y", 3)))

    def no_fraction(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(scalars, "Fraction", no_fraction)
    assert (a * b).word == (("x", -1), ("y", 3))
    assert a.inverse().pow(3).word == (("l", -6), ("x", 3))
    with pytest.raises(AssertionError):
        a.torsion
