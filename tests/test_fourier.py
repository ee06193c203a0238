"""The local Fourier transforms and the monomial root against their former
formulations (``reference_fourier``): one root in coefficient-one
coordinates gives the same normal forms as the roots of the cover
coefficients, and the perfect-power root of a rational monomial the same
scalar as the prime factors of ``_term_root``."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import reference_fourier as ref
from katz_forge import scalars
from katz_forge.elementary import ElementaryModule, parse_elementary
from katz_forge.fourier import epsilon_twist_inf, lft_inf_to_s, sabbah_transform_raw
from katz_forge.jordan import parse_jordan
from katz_forge.scalars import ONE, IrrationalRootError, OutOfScopeError, Scalar

A1, A2 = Scalar.sym("a1"), Scalar.sym("a2")


def R(q):
    return Scalar.rational(q)


def _same(x, y):
    assert (x.num, x.den, x.rad) == (y.num, y.den, y.rad)


# -- the perfect-power root of a rational monomial ----------------------------

@st.composite
def _rational_monomials(draw):
    """(x, p, perfect): x = +-n/d * a^i b^j / c^k with p >= 2, n, d, i, j, k
    drawn as p-th powers and multiples of p or as any, and perfect when all
    of them were drawn so."""
    p = draw(st.integers(2, 7))
    perfect = True

    def integer(anything, perfect_one):
        nonlocal perfect
        if draw(st.booleans()):
            return draw(perfect_one)
        perfect = False
        return draw(anything)

    n, d = (integer(st.integers(1, 60), st.integers(1, 9).map(lambda r: r ** p))
            for _ in "nd")
    exps = [integer(st.integers(0, 9), st.integers(0, 3).map(lambda k: k * p)) for _ in "abc"]
    m = tuple((s, e) for s, e in zip("ab", exps) if e)
    den = (("c", exps[2]),) if exps[2] else ()
    x = Scalar.make({m: scalars.Cyclotomic.from_rational(Fraction(n, d) * draw(
        st.sampled_from([1, -1])))}, {den: scalars.ONE_C})
    return x, p, perfect


@settings(max_examples=200, deadline=None)
@given(_rational_monomials())
def test_perfect_power_root_matches_the_term_root_route(draw):
    x, p, perfect = draw
    _same(x.root(p), ref.term_root(x, p))
    ((m, c),), ((d, _),) = x.num, x.den
    fast = scalars._perfect_power_root(m, d, c, p)
    assert fast is not None or not perfect
    if fast is not None:
        _same(fast, ref.term_root(x, p))


def test_perfect_power_root_declines_what_is_no_pth_power():
    # an exponent, a numerator or a denominator that is no square
    for x in (A1 ** 3, R(8) * A1 ** 2, A1 ** 2 / R(3)):
        ((m, c),), ((d, _),) = x.num, x.den
        assert scalars._perfect_power_root(m, d, c, 2) is None


# -- the transforms -------------------------------------------------------------

# coefficients with radicals, roots of unity and rational perfect powers
_MONOMIALS = [A1, -A2, R(Fraction(3, 2)) * A1, Scalar.zeta(3) * A1, Scalar.zeta(4, 3) * A2,
              R(2).root(2) * A1, A1.root(3), A1 ** 2 / A2, R(-4) * A1 ** 2,
              R(Fraction(1, 746496)) * A2 ** 6]
# two-term polynomials, raised in the draws to a power that has the roots
# the transform takes, or not
_POLYNOMIALS = [ONE, A1 + A2, A1 - Scalar.zeta(3) * A2]
_R = [parse_jordan(t) for t in ("(1)", "(-1)", "(m, zeta(3))", "(J(2))")]


@st.composite
def _single_term_modules(draw, slope_below_one):
    """Normal El(p, a/u^q, R), q < p when slope_below_one, with a a monomial
    times a two-term polynomial to the first power or to the power whose
    root the transform takes: p + q from 0, p - q at infinity."""
    p = draw(st.integers(2, 4) if slope_below_one else st.integers(1, 3))
    q = draw(st.integers(1, p - 1) if slope_below_one else st.integers(1, 3))
    power = p - q if slope_below_one else p + q
    f = draw(st.sampled_from(_POLYNOMIALS))
    a = draw(st.sampled_from(_MONOMIALS)) * f ** draw(st.sampled_from([1, power]))
    return ElementaryModule.make(p, {q: a}, draw(st.sampled_from(_R))).normalize()


def _same_or_both_raise(new, old):
    """new() and old() agree, or both raise the same OutOfScopeError."""
    try:
        want = old()
    except OutOfScopeError as exc:
        with pytest.raises(type(exc)):
            new()
        return
    assert new() == want


@settings(max_examples=80, deadline=None)
@given(_single_term_modules(False),
       st.sampled_from([None, R(1), -A1, Scalar.zeta(3) * A2]))
def test_sabbah_transform_matches_the_cover_root(e, s):
    def with_shift(transform):
        raw = transform(e)
        if s is not None:
            # the shift of lft_shifted at the top pole order
            raw = ElementaryModule.make(raw.p, {**raw.taild(), raw.p: s}, raw.r)
        return raw.normalize()

    _same_or_both_raise(lambda: with_shift(sabbah_transform_raw),
                        lambda: with_shift(ref.sabbah_transform_raw))


def test_transform_needs_no_root_of_the_cover():
    # a = 1 + i on u^2: the cover 2/a = 1 - i has no cube root here, while
    # the transformed coefficient b has b^3 = (3/2)^3 (2/1) a^2 = 27/2 i
    e = parse_elementary("El(2, (1+zeta(4))/u, (1))")
    with pytest.raises(IrrationalRootError):
        ref.sabbah_transform_raw(e)
    ((q, b),) = sabbah_transform_raw(e).tail
    assert q == 1 and b ** 3 == R(Fraction(27, 2)) * Scalar.zeta(4)


@settings(max_examples=80, deadline=None)
@given(_single_term_modules(True))
def test_inverse_transform_matches_the_product_of_roots(e):
    assert gcd(e.p, e.q()) == 1
    _same_or_both_raise(lambda: lft_inf_to_s(e), lambda: ref.lft_inf_to_s(e))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.dictionaries(st.integers(1, 5), st.sampled_from(_MONOMIALS),
                                          min_size=1, max_size=3),
       st.sampled_from(_R))
def test_epsilon_twist_matches_the_cover_minus_one(p, tail, r):
    e = ElementaryModule.make(p, tail, r)
    twisted = epsilon_twist_inf(e)
    # the same raw module, so the same normal form
    assert twisted == ref.epsilon_twist_inf(e)
    assert twisted.normalize() == ref.epsilon_twist_inf(e).normalize()
