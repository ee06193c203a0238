from fractions import Fraction
from math import floor, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

import katz_forge.scalars as scalars
from katz_forge.scalars import (Cyclotomic, Scalar, Eigenvalue, ONE, ZERO,
                                IrrationalRootError, IrrationalSumError, OutOfScopeError,
                                parse_scalar, render_scalar,
                                parse_eigenvalue, render_eigenvalue,
                                mono_key, poly_divexact, poly_gcd,
                                poly_leading, poly_mul, poly_scale)

A1, A2 = Scalar.sym("a1"), Scalar.sym("a2")
HALF = Scalar.rational(Fraction(1, 2))


def R(q):
    return Scalar.rational(q)


class TestCyclotomic:
    def test_canonical_subfield(self):
        # zeta_6^2 lies in Q(zeta_3) and must re-canonicalize there
        z6 = Cyclotomic.zeta(6)
        assert (z6 * z6).order == 3
        assert z6 * z6 == Cyclotomic.zeta(3)

    def test_minus_one(self):
        assert Cyclotomic.zeta(6, 3) == Cyclotomic.from_rational(-1)
        assert Cyclotomic.zeta(2) == Cyclotomic.from_rational(-1)

    def test_zeta3_sum(self):
        z = Cyclotomic.zeta(3)
        assert z + z.galois(2) == Cyclotomic.from_rational(-1)

    def test_inverse(self):
        z = Cyclotomic.zeta(8, 3) * Fraction(2, 5)
        assert z * z.inverse() == Cyclotomic.from_rational(1)

    def test_unit_rational_split(self):
        c = Cyclotomic.zeta(8) * Fraction(-3, 4)
        q, t = c.as_unit_times_rational()
        assert q == Fraction(3, 4)
        assert t == Fraction(1, 8) + Fraction(1, 2)


class TestScalarField:
    def test_round_trip_inverse(self):
        v = (A1 + A2) ** 2 / R(4)
        assert (v * R(4)).root(2) == A1 + A2

    def test_like_terms(self):
        assert A1 ** 2 / R(4) + A1 ** 2 / R(4) == A1 ** 2 / R(2)

    def test_gcd_cancellation(self):
        # checked against the expanded polynomial-division oracle below
        q = (A1 ** 2 - A2 ** 2) / (A1 - A2)
        assert q == A1 + A2
        assert q * (A1 - A2) == A1 ** 2 - A2 ** 2

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            A1 / (A1 - A1)

    def test_incompatible_radical_sum(self):
        with pytest.raises(IrrationalSumError):
            R(6).root(2) + A1

    def test_arith_commutes_and_cancels(self):
        assert A1 * A2 == A2 * A1
        assert (A1 - A1).is_zero()

    def test_zero_is_one_value(self):
        zeros = [Scalar.rational(0), parse_scalar("0*a"), ZERO, Scalar.from_cyclotomic(
            Cyclotomic.from_rational(0)), A1 * Scalar.rational(0)]
        assert all(z == ZERO and hash(z) == hash(ZERO) for z in zeros)


class TestScalarRoot:
    def test_paper_normalization_root(self):
        assert (A1 ** 2 / R(4)).root(2) == A1 * HALF

    def test_perfect_square_sum(self):
        r = ((A1 + A2) ** 2 / R(4)).root(2)
        assert r == (A1 + A2) * HALF

    def test_identity(self):
        assert R(1).root(6) == R(1)

    def test_radical_tower(self):
        v = R(36) / A1 ** 2
        r = v.root(4)
        assert r ** 4 == v

    def test_negative_rational(self):
        r = R(-4).root(2)
        assert r ** 2 == R(-4)

    def test_root_of_unity_minimal_argument(self):
        r = Scalar.zeta(3).root(3)
        assert r == Scalar.zeta(9)

    def test_irrational_poly(self):
        with pytest.raises(IrrationalRootError):
            (A1 + A2).root(2)

    def test_large_prime_radical_is_fast_and_exact(self):
        # 10^18 + 3 is prime: trial division alone would take minutes
        r = parse_scalar("1000000000000000003^(1/2)")
        assert r ** 2 == R(10 ** 18 + 3)
        assert render_scalar(r) == "1*1000000000000000003^(1/2)"

    def test_prime_power_beyond_trial_division(self):
        assert R(1000003 ** 2).root(2) == R(1000003)
        assert (R(1000003 ** 3).root(2)) ** 2 == R(1000003 ** 3)

    def test_unfactorable_radicand_raises(self):
        # a product of two primes above the trial-division bound
        with pytest.raises(IrrationalRootError):
            R(1000003 * 1000033).root(2)
        with pytest.raises(IrrationalRootError):
            parse_scalar("(10^40+1)^(1/2)")

    def test_root_above_float_range(self):
        big = Fraction(7 ** 800, 3 ** 400)  # about 1e485
        assert R(big).root(4) == R(Fraction(7 ** 200, 3 ** 100))

    def test_e4_tail_lineage(self):
        # a_{k+1} = ((k+1)/k) a_k (k/a_k)^(1/(k+1)) starting at a1^6/6^6
        # must close at a1 after five steps
        ak = A1 ** 6 / R(46656)
        for k in range(1, 6):
            ak = R(Fraction(k + 1, k)) * ak * (R(k) / ak).root(k + 1)
        assert ak == A1


class TestRendering:
    @pytest.mark.parametrize("text", [
        "a1^2/4", "(a1+a2)^2/4", "1/46656*a1^6", "-2/3*zeta(8)^3",
        "2*a1^(3/2)*6^(1/2)", "5*a1^(6/5)*6^(-6/5)*6", "0", "1",
    ])
    def test_scalar_round_trip(self, text):
        v = parse_scalar(text)
        assert parse_scalar(render_scalar(v)) == v

    @pytest.mark.parametrize("text", [
        "-1*l^-2", "zeta(3)^2*x", "l^(1/2)", "1", "-1", "i", "x^-1*y",
    ])
    def test_eigenvalue_round_trip(self, text):
        v = parse_eigenvalue(text)
        assert parse_eigenvalue(render_eigenvalue(v)) == v


_scalar_pool = [A1, A2, A1 + A2, R(Fraction(3, 2)), R(-2), Scalar.zeta(3),
                A1 * A2 - R(2), A1 ** 2, R(0)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_scalar_pool) - 1), st.integers(0, len(_scalar_pool) - 1),
       st.integers(0, len(_scalar_pool) - 1))
def test_field_axioms(i, j, k):
    x, y, z = _scalar_pool[i], _scalar_pool[j], _scalar_pool[k]
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    if not y.is_zero():
        assert (x / y) * y == x


_eig_pool = [Eigenvalue.sym("l"), Eigenvalue.sym("x"), Eigenvalue.minus_one(),
             Eigenvalue.make(Fraction(1, 3)),
             Eigenvalue.sym("l").pow(Fraction(1, 2)) * Eigenvalue.minus_one()]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_eig_pool) - 1), st.integers(0, len(_eig_pool) - 1),
       st.integers(0, len(_eig_pool) - 1), st.integers(1, 6))
def test_eigenvalue_group_laws(i, j, k, p):
    a, b, c = _eig_pool[i], _eig_pool[j], _eig_pool[k]
    assert (a * b) * c == a * (b * c)
    assert (a * a.inverse()).is_one()
    # the canonical p-th root inverts pow on the formal-symbol part always,
    # and on the torsion part whenever multiplication by p does not wrap
    # mod 1 (roots of unity have no single-valued global p-th root)
    rt = a.pow(p).pow(Fraction(1, p))
    assert rt.word == a.word
    if a.torsion * p < 1:
        assert rt == a


def test_eigenvalue_group_operations():
    l = Eigenvalue.sym("l")
    ml = Eigenvalue.minus_one() * l
    assert (ml * ml.inverse()).is_one()
    assert l.pow(Fraction(1, 2)) == Eigenvalue.make(0, (("l", Fraction(1, 2)),))
    # l / (-l)^3 = -l^-2
    assert l / ml.pow(3) == parse_eigenvalue("-1*l^-2")
    assert (l == l) is True


def test_scalar_root_power_property():
    import random
    rng = random.Random(0)
    pool = [A1, A1 * HALF, A1 ** 2, (A1 + A2) ** 2, R(Fraction(9, 4)), R(-8),
            A1 ** 3 / R(27)]
    for _ in range(50):
        v = rng.choice(pool)
        p = rng.choice([1, 2, 3])
        try:
            r = v.root(p)
        except IrrationalRootError:
            continue
        assert r ** p == v


# -- the one-term quotient of Scalar.make against the general route ----------

def _general_make(num, den, rad):
    """num / den times a radical of exponents in [0, 1) by the route of any
    quotient: divide num and den by their gcd, then by the leading
    coefficient of den."""
    g = poly_gcd(num, den)
    num, den = poly_divexact(num, g), poly_divexact(den, g)
    inv = poly_leading(den)[1].inverse()

    def pack(d):
        return tuple(sorted(poly_scale(d, inv).items(), key=lambda t: mono_key(t[0])))
    return Scalar(pack(num), pack(den), tuple(sorted((b, e % 1) for b, e in rad if e % 1)))


_cyclotomic = st.builds(
    lambda n, coords, d: Cyclotomic(n, [Fraction(c, d) for c in coords]),
    st.integers(1, 12), st.lists(st.integers(-3, 3), min_size=1, max_size=12),
    st.integers(1, 3)).filter(lambda c: not c.is_zero())
# the numerator and the denominator share a and b; c is only in one of them
_monomial = st.builds(
    lambda exps: tuple((s, e) for s, e in zip("abc", exps) if e),
    st.lists(st.integers(0, 4), min_size=3, max_size=3))
_radical_pair = st.tuples(
    st.sampled_from([("sym", "a"), ("sym", "c"), ("prime", 2), ("prime", 3)]),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)))
_radical = st.lists(_radical_pair, max_size=3, unique_by=lambda t: t[0])


@settings(max_examples=200, deadline=None)
@given(_monomial, _cyclotomic, _monomial, _cyclotomic, _radical)
def test_one_term_quotient_matches_the_gcd_route(mn, cn, md, cd, rad):
    num, den = {mn: cn}, {tuple((s, e) for s, e in md if s != "c"): cd}
    _same(Scalar.make(num, den, rad), _carried_make(num, den, rad))


# -- monomial powers and roots against the general routes ----------------------

_nonzero_rational = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 20))


def _unit_times_rational(max_order):
    return st.builds(lambda n, k, q: Cyclotomic.zeta(n, k) * q,
                     st.integers(1, max_order), st.integers(0, 2 * max_order - 1),
                     _nonzero_rational)


@settings(max_examples=200, deadline=None)
@given(_unit_times_rational(24))
def test_unit_times_rational_splits_off_a_positive_rational(c):
    q, t = c.as_unit_times_rational()
    assert q > 0 and 0 <= t < 1
    assert Cyclotomic.zeta(t.denominator, t.numerator) * q == c


def _monomial_scalar(coefficient):
    """Scalar.make of one term over one term, drawn as in the quotient test."""
    return st.builds(
        lambda mn, cn, md, cd, rad: Scalar.make(
            {mn: cn}, {tuple((s, e) for s, e in md if s != "c"): cd}, rad),
        _monomial, coefficient, _monomial, coefficient, _radical)


def _squaring(x, n):
    """x ** n by left-to-right repeated squaring of whole scalars; 1 / x ** -n
    for n < 0."""
    if n < 0:
        return ONE / _squaring(x, -n)
    out = ONE
    for bit in bin(n)[2:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out


def _same(x, y):
    assert (x.num, x.den, x.rad) == (y.num, y.den, y.rad)
    assert hash(x) == hash(y)


def _carried_make(num, den, rad):
    """num / den times prod(base^x) over (base, x) in rad by polynomials: the
    floor of each base's summed exponent multiplies num or den, as a
    symbol power or a rational, and then _general_make."""
    sums = {}
    for b, x in rad:
        sums[b] = sums.get(b, 0) + x
    for (kind, key), x in sums.items():
        if kind == "prime":
            num = poly_scale(num, Cyclotomic.from_rational(Fraction(key) ** floor(x)))
        elif x >= 1:
            num = poly_mul(num, {((key, floor(x)),): Cyclotomic.from_rational(1)})
        elif x < 0:
            den = poly_mul(den, {((key, -floor(x)),): Cyclotomic.from_rational(1)})
    return _general_make(num, den, [(b, x - floor(x)) for b, x in sums.items()])


def _poly_power(a, n):
    out = {(): Cyclotomic.from_rational(1)}
    for _ in range(n):
        out = poly_mul(out, a)
    return out


_D = Scalar.sym("d")
# times (1 + d) a monomial has two terms, so the operators take the route of
# any polynomial: poly_mul, then poly_gcd in make
_L = ONE + _D


@settings(max_examples=150, deadline=None)
@given(_monomial_scalar(_cyclotomic), st.integers(-6, 8))
def test_monomial_power_matches_repeated_squaring(x, n):
    _same(x ** n, _squaring(x, n))
    _same(x ** n, (x * _L) ** n / _L ** n)
    num, den = _poly_power(x.numd(), abs(n)), _poly_power(x.dend(), abs(n))
    _same(x ** n, _carried_make(*((num, den) if n >= 0 else (den, num)),
                                [(b, e * n) for b, e in x.rad]))


# coefficients in Q(zeta_24), so that products stay in a field of degree 8
_cyclotomic_24 = _cyclotomic.filter(lambda c: 24 % c.order == 0)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_monomial, _cyclotomic_24, min_size=2, max_size=3), _monomial,
       _cyclotomic_24, st.lists(_radical_pair, max_size=4))
def test_make_carries_the_summed_radical_on_the_gcd_route(num, md, cd, rad):
    # a base may come more than once, and its summed exponent may leave [0, 1)
    _same(Scalar.make(num, {md: cd}, rad), _carried_make(num, {md: cd}, rad))


@settings(max_examples=150, deadline=None)
@given(_monomial_scalar(_cyclotomic_24), _monomial_scalar(_cyclotomic_24))
def test_monomial_product_and_quotient_match_the_polynomial_route(x, y):
    _same(x * y, x * _L * y / _L)
    _same(x / y, x / (y * _L) * _L)
    _same(x * y, _carried_make(poly_mul(x.numd(), y.numd()), poly_mul(x.dend(), y.dend()),
                               x.rad + y.rad))
    _same(x / y, _carried_make(poly_mul(x.numd(), y.dend()), poly_mul(x.dend(), y.numd()),
                               x.rad + tuple((b, -e) for b, e in y.rad)))
    # the quotient as the product with the inverse that make builds
    _same(x / y, x * Scalar.make(y.dend(), y.numd(), tuple((b, -e) for b, e in y.rad)))


# f, g, h in three symbols over Q(zeta_n), n <= 4
_poly_3 = st.dictionaries(
    st.builds(lambda exps: tuple((s, e) for s, e in zip("abc", exps) if e),
              st.lists(st.integers(0, 2), min_size=3, max_size=3)),
    st.builds(Cyclotomic, st.integers(1, 4), st.lists(st.integers(-3, 3), min_size=1,
                                                      max_size=4)).filter(lambda c: not c.is_zero()),
    min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(_poly_3, _poly_3, _poly_3)
def test_gcd_of_products_is_monic_and_leaves_coprime_cofactors(f, g, h):
    fh, gh = poly_mul(f, h), poly_mul(g, h)
    G = poly_gcd(fh, gh)
    assert poly_leading(G)[1] == Cyclotomic.from_rational(1)
    cofactors = poly_divexact(fh, G), poly_divexact(gh, G)
    poly_divexact(G, poly_scale(h, poly_leading(h)[1].inverse()))
    assert poly_gcd(*cofactors) == {(): Cyclotomic.from_rational(1)}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from([("sym", "a"), ("sym", "c"), ("prime", 2), ("prime", 3)]),
    st.builds(Fraction, st.integers(-13, 13), st.integers(1, 6))), max_size=6))
def test_rad_merge_splits_each_sum_into_floor_and_fraction(pairs):
    sums = {}
    for b, x in pairs:
        sums[b] = sums.get(b, 0) + x
    rad, carries = scalars._rad_merge(pairs)
    assert rad == tuple((b, x - floor(x)) for b, x in sorted(sums.items()) if x != floor(x))
    assert carries == [(b, floor(x)) for b, x in sorted(sums.items()) if floor(x)]


@settings(max_examples=100, deadline=None)
@given(_monomial_scalar(st.one_of(_unit_times_rational(12), _cyclotomic)), st.integers(1, 7))
def test_monomial_root_matches_the_general_route(x, p):
    # times (1 + d)^p the numerator has p + 1 terms, so _poly_radical_root
    # divides out its monomial gcd and leading coefficient and calls poly_root
    lifted = x * (ONE + _D) ** p
    try:
        fast = x.root(p)
    except OutOfScopeError as exc:
        with pytest.raises(type(exc)):
            lifted.root(p)
        return
    _same(fast, lifted.root(p) / (ONE + _D))


def _checked_root(x, p):
    """The p-th root of x by the route of any root: the radical roots of num
    and den joined by Scalar.make, then checked by raising the result to
    the p-th power."""
    if p == 1:
        return x
    npart, nrad = scalars._poly_radical_root(x.numd(), p)
    dpart, drad = scalars._poly_radical_root(x.dend(), p)
    out = Scalar.make(npart, dpart, [(b, e / p) for b, e in x.rad] + nrad
                      + [(b, -e) for b, e in drad])
    if out ** p != x:
        raise IrrationalRootError(f"{render_scalar(x)} has no {p}-th root")
    return out


@settings(max_examples=200, deadline=None)
@given(_monomial_scalar(st.one_of(_unit_times_rational(12), _cyclotomic)), st.integers(1, 7))
def test_monomial_root_matches_the_checked_route(x, p):
    # symbols a and c, radicals of 2, 3, a and c, coefficients q zeta_n^k
    # with n <= 12 over others of the kind (or any, which has no root)
    try:
        fast = x.root(p)
    except OutOfScopeError as exc:
        with pytest.raises(type(exc)):
            _checked_root(x, p)
        return
    _same(fast, _checked_root(x, p))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_nonzero_rational.map(Cyclotomic.from_rational),
                 st.just(Cyclotomic.from_rational(0)), _cyclotomic), st.integers(1, 24))
def test_times_zeta_matches_the_lifted_product(c, n):
    # the product read in Q(zeta_m) from the coordinates of c lifted to it;
    # m is bounded so that the subfield tables stay small
    m = lcm(c.order, n)
    assume(m <= 72)
    for k in range(-n, n + 1):
        want = Cyclotomic._canonical(m, c._lift(m, k * (m // n)), c.den)
        got = c.times_zeta(n, k)
        assert (got.order, got.num, got.den) == (want.order, want.num, want.den)


def test_root_of_a_non_unit_coefficient_raises():
    # |1 + zeta_5| is the golden ratio: no rational times a root of unity
    x = Scalar.from_cyclotomic(Cyclotomic.zeta(5) + 1) * A1
    with pytest.raises(IrrationalRootError):
        x.root(2)
    with pytest.raises(IrrationalRootError):
        parse_scalar("((1+zeta(5))*a)^(1/2)")


def test_monomial_root_divides_no_polynomial(monkeypatch):
    calls = {"poly_divexact": 0, "poly_root": 0, "__pow__": 0}

    def counted(owner, name):
        f = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(owner, name, wrapper)
    xs = [R(4) * A1 ** 3 / A2 ** 2, R(Fraction(-27, 8)) * A1 / A2 ** 5,
          Scalar.zeta(12, 5) * R(Fraction(2, 9)) * A1 ** 6, parse_scalar("2^(1/3)*a1^(1/2)/a2")]
    counted(scalars, "poly_divexact")
    counted(scalars, "poly_root")
    counted(Scalar, "__pow__")
    roots = [x.root(p) for x in xs for p in (2, 3, 6)]
    assert calls["poly_divexact"] == 0 and calls["poly_root"] == 0
    # a monomial root is exact by exponent arithmetic: it takes no power
    assert calls["__pow__"] == 0
    assert all(len(r.num) == 1 and len(r.den) == 1 for r in roots)


def test_monomial_arithmetic_builds_no_polynomial(monkeypatch):
    xs = [R(4) * A1 ** 3 / A2 ** 2, R(Fraction(-27, 8)) * A1 / A2 ** 5, Scalar.zeta(12, 5),
          parse_scalar("2^(1/3)*a1^(1/2)/a2"), parse_scalar("3^(2/3)/a1^(1/2)")]
    for name in ("poly_mul", "poly_gcd", "poly_scale"):
        monkeypatch.setattr(scalars, name, None)
    for x in xs:
        for y in xs:
            x * y, x / y
        for n in (-3, -1, 0, 2, 5):
            x ** n
