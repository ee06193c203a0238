"""Differential tests of the cyclotomic core against the reference copy in
``reference_cyclotomic.py``.  Elements are drawn at random in one field
Q(zeta_n), n <= 24, with small rational coordinates, and built in both
implementations from the same data; every operation must give the same
order and coordinates, and the order must be minimal."""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest

from hypothesis import given, settings, strategies as st

import reference_cyclotomic as ref
import reference_torus
from katz_forge.scalars import (Cyclotomic, _prime_divisors, _subfield_projection,
                                render_cyclotomic, row_reduce)

# The reference is pure; its as_unit_times_rational inverts up to 48 roots of
# unity by an elimination each, so memoize the roots and their inverses.
ref.Cyclotomic.zeta = staticmethod(lru_cache(maxsize=None)(ref.Cyclotomic.zeta))
ref.Cyclotomic.inverse = lru_cache(maxsize=None)(ref.Cyclotomic.inverse)

ORDERS = st.integers(1, 24)
SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def elements(n: int):
    """Dense coefficient lists d of length <= n, the element sum d[k] zeta_n^k.
    Half are a rational times one root of unity, so that the
    unit-times-rational split has something to find."""
    def unit(k, q):
        return [Fraction(0)] * k + [q]
    return st.one_of(st.builds(unit, st.integers(0, n - 1), SMALL),
                     st.lists(SMALL, min_size=1, max_size=n))


def field(count: int):
    """(n, [dense, ...]): count elements of one field Q(zeta_n)."""
    return ORDERS.flatmap(lambda n: st.tuples(
        st.just(n), st.lists(elements(n), min_size=count, max_size=count)))


def both(n: int, dense):
    den = lcm(*(c.denominator for c in dense))
    num = [int(c * den) for c in dense]
    return Cyclotomic._make(n, num, den), ref.Cyclotomic._make(n, dense)


def same(new, old):
    assert isinstance(new, Cyclotomic)
    assert (new.order, new.coords) == (old.order, old.coords)
    assert all(type(c) is Fraction for c in new.coords)
    # integer numerators over one positive denominator, in lowest terms
    assert all(type(c) is int for c in new.num)
    assert type(new.den) is int and new.den > 0
    assert gcd(new.den, *new.num) == 1


def minimal(x):
    """x lies in no maximal subfield of Q(zeta_order), by the reference
    solver, and the order is never 2 mod 4."""
    n = x.order
    assert n % 4 != 2
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, p)):
            rows = [list(r) for r in zip(*ref._subfield_basis(n, n // p))]
            assert ref._solve_linear(rows, list(x.coords)) is None


@settings(max_examples=150, deadline=None)
@given(field(2))
def test_arithmetic_agrees(drawn):
    n, (da, db) = drawn
    (a, ra), (b, rb) = both(n, da), both(n, db)
    same(a, ra)
    minimal(a)
    for new, old in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra)):
        same(new, old)
        minimal(new)
    if not b.is_zero():
        same(b.inverse(), rb.inverse())
        same(a / b, ra / rb)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40)),
                min_size=2, max_size=2))
def test_rational_product_and_inverse_agree(qs):
    # order 1 times order 1 is integer arithmetic with one gcd
    (a, ra), (b, rb) = (both(1, [q]) for q in qs)
    same(a * b, ra * rb)
    if qs[1]:
        same(b.inverse(), rb.inverse())
        same(a / b, ra / rb)


@settings(max_examples=50, deadline=None)
@given(field(1), st.integers(1, 48))
def test_galois_and_rendering_agree(drawn, j):
    n, (da,) = drawn
    a, ra = both(n, da)
    if gcd(j, a.order) == 1:
        same(a.galois(j), ra.galois(j))
    assert a.as_unit_times_rational() == ra.as_unit_times_rational()
    assert render_cyclotomic(a) == ref.render_cyclotomic(ra)
    assert a.sort_key() == ra.sort_key()
    assert a == Cyclotomic(ra.order, ra.coords)
    assert hash(a) == hash((ra.order, ra.coords))


@settings(max_examples=150, deadline=None)
@given(ORDERS, st.integers(-50, 50))
def test_zeta_agrees(n, k):
    z = Cyclotomic.zeta(n, k)
    same(z, ref.Cyclotomic.zeta(n, k))
    minimal(z)
    assert z is Cyclotomic.zeta(n, k % n)


@settings(max_examples=60, deadline=None)
@given(field(3))
def test_field_axioms(drawn):
    n, dense = drawn
    a, b, c = (both(n, d)[0] for d in dense)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=150, deadline=None)
@given(field(1))
def test_inverse_is_conjugates_over_norm(drawn):
    n, (da,) = drawn
    a, ra = both(n, da)
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    same(a.inverse(), ra.inverse())
    assert a * a.inverse() == 1


def test_subfield_projection_is_unit_vector_solves():
    """Read row j of the tables over d is the solution of cols x = e_j with
    free coordinates 0, solved on its own by the reference solver."""
    for n in range(2, 49):
        for m in range(1, n):
            if n % m:
                continue
            cols = [list(c) for c in ref._subfield_basis(n, m)]
            _, reads, d = _subfield_projection(n, m)
            assert len(reads) == len(cols)
            for j, row in enumerate(reads):
                x = ref._solve_linear(cols, [Fraction(int(i == j)) for i in range(len(cols))])
                assert {i: Fraction(c, d) for i, c in row} == {i: v for i, v in enumerate(x) if v}


def test_subfield_tables_match_the_fraction_elimination():
    """The tables read from the fraction-free elimination are those of the
    Fraction Gauss-Jordan, entry for entry, and all ints."""
    for n in range(2, 61):
        for q in _prime_divisors(n):
            got = _subfield_projection(n, n // q)
            assert got == reference_torus.subfield_projection(n, n // q), (n, q)
            checks, reads, d = got
            assert type(d) is int
            assert all(type(s) is int and all(type(c) is int for _, c in row)
                       for _, s, row in checks)
            assert all(type(c) is int for row in reads for _, c in row)


def _matrices(entry):
    return st.integers(1, 7).flatmap(
        lambda ncols: st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))


@settings(max_examples=200, deadline=None)
@given(_matrices(st.integers(-4, 4)) | _matrices(SMALL))
def test_row_reduce_is_gauss_jordan_up_to_a_factor_per_row(m):
    # same pivots and rank as the Fraction Gauss-Jordan; each pivot row over
    # its pivot is that row of the reduced echelon form, the rest are zero;
    # int rows stay ints
    ints = all(type(x) is int for row in m for x in row)
    want = [[Fraction(x) for x in row] for row in m]
    piv = reference_torus.fraction_row_reduce(want)
    got = [row[:] for row in m]
    assert row_reduce(got) == piv
    for i, row in enumerate(got):
        if i < len(piv):
            assert [Fraction(x) / row[piv[i]] for x in row] == want[i]
        else:
            assert not any(row)
        assert not ints or all(type(x) is int for x in row)


@settings(max_examples=150, deadline=None)
@given(ORDERS.flatmap(lambda n: st.tuples(st.just(n), st.lists(SMALL, max_size=2 * n + 2))))
def test_public_constructor_is_canonical(drawn):
    # coords of any length, also longer than phi(n), read as sum c_k zeta_n^k
    n, coords = drawn
    x = Cyclotomic(n, coords)
    expected = sum((c * Cyclotomic.zeta(n, k) for k, c in enumerate(coords)),
                   Cyclotomic.from_rational(0))
    same(x, expected)
    minimal(x)
    assert x == expected and hash(x) == hash(expected)


def test_public_constructor_literals():
    one = Cyclotomic(4, (1, 0))
    assert one == Cyclotomic.from_rational(1) and hash(one) == hash(Cyclotomic.from_rational(1))
    assert Cyclotomic(4, (0, 0)).is_zero() and Cyclotomic(6, ()).is_zero()
    for order in (0, -3):
        with pytest.raises(ValueError):
            Cyclotomic(order, (1,))
