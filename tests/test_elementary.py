import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from katz_forge.scalars import (Scalar, Eigenvalue, ONE,
                                IrrationalRootError, IrrationalSumError, parse_scalar,
                                parse_eigenvalue)
from katz_forge.jordan import JordanData, parse_jordan
from katz_forge.formal_type import FormalType
from katz_forge.elementary import (ElementaryModule, El, el_hom, hom_counts,
                                   render_elementary, parse_elementary)
import reference_hom as ref

A1, A2 = Scalar.sym("a1"), Scalar.sym("a2")
J = parse_jordan
LL = J("(l, l^-1)")


def R(q):
    return Scalar.rational(q)


class TestNormalize:
    def test_e1_scheme_row(self):
        # El((4/a1^2)u^2, a1^2/(2u), (l,l^-1)) is isomorphic to El(2, a1, (l,l^-1))
        e = ElementaryModule.make(2, {1: A1 ** 2 / R(2)}, LL, R(4) / A1 ** 2)
        assert e.normalize() == El(2, A1, LL).normalize()

    def test_orbit_choice(self):
        # phi and phi . mu_{-1} give the same class at p = 2
        assert El(2, -A1, LL).normalize() == El(2, A1, LL).normalize()

    def test_p1_trivial_orbit(self):
        e = El(1, A1, J("(m)"))
        assert e.normalize() == e


class TestDual:
    def test_self_dual_pair(self):
        assert El(2, A1, LL).dual().iso_eq(El(2, A1, LL))

    def test_p3(self):
        assert El(3, A1, "(1)").dual().iso_eq(El(3, -A1, "(1)"))

    def test_involution_randomized(self):
        # acceptance: duality is an involution on 1000 randomized modules
        rng = random.Random(20240809)
        eigs = [Eigenvalue.one(), Eigenvalue.minus_one(), Eigenvalue.sym("l"),
                Eigenvalue.sym("x").inverse(), Eigenvalue.make(Fraction(1, 3))]
        coeffs = [A1, A2, R(2) * A1, A1 + A2, R(Fraction(3, 4)) * A2, -A1]
        for _ in range(1000):
            p = rng.choice([1, 2, 3, 4, 6])
            nblocks = rng.randint(1, 2)
            r = JordanData.make([(rng.choice(eigs), rng.randint(1, 2))
                                 for _ in range(nblocks)])
            tail = {}
            for j in rng.sample([1, 2, 3], rng.randint(1, 2)):
                tail[j] = rng.choice(coeffs)
            e = ElementaryModule.make(p, tail, r)
            assert e.dual().dual().iso_eq(e)

    def test_det_of_dual(self):
        e = El(2, A1, J("(l)"))
        d1 = e.dual().det()
        d2 = e.det()
        assert d1.eig == d2.eig.inverse()
        assert dict(d1.tail) == {j: -a for j, a in d2.tail}


class TestDet:
    def test_rank2_minus_lambda(self):
        d = El(2, A1, J("(l)")).det()
        assert not d.tail
        assert d.eig == Eigenvalue.minus_one() * Eigenvalue.sym("l")

    def test_el6(self):
        d = El(6, A1, "(1)").det()
        assert not d.tail and d.eig == Eigenvalue.minus_one()

    def test_p1_exponential(self):
        d = El(1, A1, J("(m)")).det()
        assert dict(d.tail) == {1: A1}
        assert d.eig == Eigenvalue.sym("m")
        assert not d.is_trivial()


class TestIsoEq:
    def test_zeta6_reduction(self):
        # zeta_6^5 a = -zeta_3^2 a, and multiplying by zeta_3 gives -a
        z65 = Scalar.zeta(6, 5)
        assert El(6, A1, "(1)").iso_eq(El(6, z65 * A1, "(1)"))

    def test_independent_symbols_differ(self):
        assert not El(2, A1, "(1)").iso_eq(El(2, A2, "(1)"))

    def test_equivalence_relation(self):
        rng = random.Random(7)
        mods = [El(2, A1, LL), El(2, -A1, LL), ElementaryModule.make(
            2, {1: A1 ** 2 / R(2)}, LL, R(4) / A1 ** 2)]
        for e in mods:
            assert e.iso_eq(e)
        for a in mods:
            for b in mods:
                assert a.iso_eq(b) == b.iso_eq(a)
                for c in mods:
                    if a.iso_eq(b) and b.iso_eq(c):
                        assert a.iso_eq(c)


class TestReduce:
    def test_paper_isomorphisms(self):
        r = J("(m)")
        assert ElementaryModule.make(6, {3: A1}, r).normalize() == \
            ElementaryModule.make(2, {1: A1}, r.push(3)).normalize()
        assert ElementaryModule.make(4, {2: A1}, r).normalize() == \
            ElementaryModule.make(2, {1: A1}, r.push(2)).normalize()

    def test_already_minimal(self):
        e = El(2, A1, J("(m)")).normalize()
        assert e.normalize() == e

    def test_preserves_rank_and_irregularity(self):
        r = J("(m, -1)")
        e = ElementaryModule.make(6, {3: A1}, r)
        red = e.normalize()
        assert red.rank() == e.rank()
        assert red.irregularity() == e.irregularity()
        assert red.slope() == e.slope()


class TestHom:
    def test_end_el6(self):
        h = el_hom(El(6, A1, "(1)"), El(6, A1, "(1)"))
        regs = [x for x in h if x.is_regular()]
        irrs = [x for x in h if not x.is_regular()]
        assert len(regs) == 1 and regs[0].rank() == 6
        assert sorted(x.irregularity() for x in irrs) == [1, 1, 1, 1, 1]

    def test_end_rank1_regular(self):
        h = el_hom(El(1, A1, "(m)"), El(1, A1, "(m)"))
        assert len(h) == 1 and h[0].is_regular() and h[0].rank() == 1

    def test_two_slope_half_pieces(self):
        h = el_hom(El(2, A1, "(1)"), El(2, A2, "(1)"))
        assert len(h) == 2
        assert all(x.irregularity() == 1 for x in h)
        tails = sorted(render_elementary(x) for x in h)
        assert sum(x.rank() for x in h) == 4

    def test_rank_identity(self):
        rng = random.Random(3)
        pool = [El(2, A1, LL), El(3, A2, "(m)"), El(1, A1 + A2, "(1, -1)"),
                El(6, A1, "(1)"), El(2, R(2) * A1, "(x)")]
        for _ in range(30):
            a, b = rng.choice(pool), rng.choice(pool)
            h = el_hom(a, b)
            assert sum(x.rank() for x in h) == a.rank() * b.rank()

    def test_hom_irregularity_symmetry(self):
        for a, b in [(El(2, A1, LL), El(2, A2, "(1)")),
                     (El(3, A1, "(1)"), El(1, A2, "(m)"))]:
            ab = sum(x.irregularity() for x in el_hom(a, b))
            ba = sum(x.irregularity() for x in el_hom(b, a))
            assert ab == ba


class TestPullback:
    def test_kummer_split_2(self):
        pb = El(6, A1, "(1)").pullback(2)
        assert len(pb) == 2
        assert any(x.iso_eq(El(3, A1, "(1)")) for x in pb)
        assert any(x.iso_eq(El(3, -A1, "(1)")) for x in pb)

    def test_kummer_split_3(self):
        pb = El(6, A1, "(1)").pullback(3)
        assert len(pb) == 3
        for t in [A1, Scalar.zeta(3) * A1, Scalar.zeta(3, 2) * A1]:
            assert any(x.iso_eq(El(2, t, "(1)")) for x in pb)

    def test_identity(self):
        e = El(1, A1, "(m)").normalize()
        assert e.pullback(1) == [e]

    def test_rank_and_irregularity_bookkeeping(self):
        for e in [El(6, A1, "(1)"), El(2, A1, LL), El(3, A1, "(m, 1)")]:
            for k in (1, 2, 3, 4, 6):
                pb = e.pullback(k)
                assert sum(x.rank() for x in pb) == e.rank()
                assert sum(x.irregularity() for x in pb) == k * e.irregularity()


def test_render_parse_round_trip():
    mods = [El(2, A1, LL), El(6, A1, "(1)"),
            ElementaryModule.make(2, {2: A1, 1: A2}, J("(m)")),
            El(1, A1 + A2, "(m, m^-1)")]
    for e in mods:
        assert parse_elementary(render_elementary(e)) == e


def test_coefficient_must_be_nonzero():
    with pytest.raises(ValueError):
        ElementaryModule.make(2, {1: A1}, J("(1)"), R(0))


def test_normalize_propagates_root_errors():
    with pytest.raises(IrrationalRootError):
        ElementaryModule.make(2, {1: A1}, J("(1)"), A1 + A2).normalize()


def test_det_matches_formal_monodromy_determinant():
    # independent route: for vanishing trace the determinant eigenvalue must
    # equal the product of the pushed formal-monodromy eigenvalues
    for e in [El(2, A1, J("(l)")), El(6, A1, "(1)"), El(3, A1, "(m)"),
              El(2, A1, LL), El(4, A2, "(x, y)")]:
        d = e.det()
        prod = Eigenvalue.one()
        for eig, size in e.r.push(e.p).blocks:
            prod = prod * eig.pow(size)
        if not d.tail:
            assert d.eig == prod, render_elementary(e)


# -- the normal-form invariant --------------------------------------------------

_TAIL_POOL = [A1, A2, -A1, A1 + A2, R(Fraction(3, 2)) * A1, Scalar.zeta(3) * A1,
              Scalar.zeta(4, 3) * A2, Scalar.zeta(6, 5) * (A1 - A2), A1 ** 2 / A2,
              R(5) * Scalar.zeta(5, 2)]
_COEFF_POOL = [ONE, R(-1), R(4), Scalar.zeta(3), A1 ** 2]
_R_POOL = [J("(1)"), LL, J("(-1)"), J("(m, zeta(3))"),
           JordanData.make([(Eigenvalue.sym("l"), 2)])]


@st.composite
def _modules(draw):
    p = draw(st.integers(1, 6))
    js = draw(st.lists(st.integers(1, 4), max_size=2, unique=True))
    tail = {j: draw(st.sampled_from(_TAIL_POOL)) for j in js}
    return ElementaryModule.make(p, tail, draw(st.sampled_from(_R_POOL)),
                                 draw(st.sampled_from(_COEFF_POOL)))


_SCALE_POOL = [R(2), R(-3), R(Fraction(1, 4)), A1, -A2, Scalar.zeta(3), R(4) * A1 ** 2]


@settings(max_examples=60, deadline=None)
@given(_modules(), st.sampled_from(_SCALE_POOL))
def test_cover_substitution_matches_explicit_roots(e, a):
    # the z -> -z twist and the affine map z -> a z at infinity as the
    # covers -u^p and u^p / a, against dividing each term by a root power
    gamma = R(-1).root(e.p)
    eps = ElementaryModule.make(e.p, {j: c / gamma ** j for j, c in e.tail}, e.r)
    assert ElementaryModule.make(e.p, e.tail, e.r, -ONE).normalize() == eps.normalize()
    root = a.root(e.p)
    aff = ElementaryModule.make(e.p, {j: c / root ** j for j, c in e.tail}, e.r)
    assert ElementaryModule.make(e.p, e.tail, e.r, ONE / a).normalize() == aff.normalize()


def _raw_copy(e):
    return ElementaryModule.make(e.p, e.taild(), e.r)


@settings(max_examples=60, deadline=None)
@given(_modules())
def test_normalize_sets_flag_and_is_idempotent(e):
    n = e.normalize()
    assert n.normal
    assert n.normalize() is n
    raw = _raw_copy(n)
    assert not raw.normal
    assert raw == n and hash(raw) == hash(n)
    assert raw.normalize() == n
    assert _raw_copy(e).normalize() == n


@settings(max_examples=60, deadline=None)
@given(_modules(), st.sampled_from([parse_eigenvalue(t) for t in
                                    ("-1", "zeta(3)", "l", "zeta(4)*x^-1", "l^(1/2)")]))
def test_scaling_a_normal_module_keeps_it_normal(e, eig):
    n = e.normalize()
    s = n.scale_eigenvalues(eig)
    assert s.normal and s.normalize() is s
    assert s == ElementaryModule.make(n.p, n.tail, n.r.scale(eig.pow(n.p))).normalize()
    assert _raw_copy(s).normalize() == s
    assert not e.scale_eigenvalues(eig).normal or e.normal


@settings(max_examples=40, deadline=None)
@given(_modules(), st.integers(0, 5))
def test_iso_eq_is_equality_of_normal_forms(e, k):
    # a zeta_p rotation of the tail is an isomorphic module
    z = {j: a.times_unit(e.p, j * k % e.p) for j, a in e.tail}
    rot = ElementaryModule.make(e.p, z, e.r)
    e1 = ElementaryModule.make(e.p, e.taild(), e.r)
    assert e1.iso_eq(rot)
    assert e1.normalize() == rot.normalize()


@settings(max_examples=40, deadline=None)
@given(_modules(), _modules())
def test_iso_eq_matches_normal_forms_on_pairs(e1, e2):
    assert e1.iso_eq(e2) == (e1.normalize() == e2.normalize()) == e2.iso_eq(e1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_TAIL_POOL + _COEFF_POOL + [R(0), A1.root(2), parse_scalar("2*a1^(3/2)*6^(1/2)")]),
       st.integers(1, 12), st.integers(0, 11))
def test_times_unit_is_multiplication_by_zeta(a, n, k):
    assert a.times_unit(n, k) == a * Scalar.zeta(n, k)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
def test_identity_rotation_is_self(n):
    for a in _TAIL_POOL + _COEFF_POOL + [R(0), A1.root(2)]:
        assert a.times_unit(n, 0) is a
        assert a.times_unit(n, n) == a
        assert a.times_unit(n, -2 * n) is a
    e = ElementaryModule.make(n, {1: A1, 2: A2}, LL)
    assert all(e.rotated(0)[j] is a for j, a in e.tail)


@settings(max_examples=40, deadline=None)
@given(st.lists(_modules(), min_size=1, max_size=3), st.lists(_modules(), min_size=1, max_size=3))
def test_hom_is_additive(xs, ys):
    # Hom of direct sums is the sum of the pairwise pieces, and
    # End(A + B) = End A + Hom(A, B) + Hom(B, A) + End B
    def ft(members):
        return FormalType.make(JordanData.zero(), members)
    a, b = ft(xs), ft(ys)
    try:
        pieces = [ref.hom_module(ft([x]), ft([y])) for x in xs for y in ys]
        sides = [ref.hom_module(a, a), ref.hom_module(a, b), ref.hom_module(b, a),
                 ref.hom_module(b, b)]
    except IrrationalSumError:
        return  # the modules leave the scalar domain: no Hom to compare
    assert ref.hom_module(a, b) == sum(pieces[1:], pieces[0])
    assert ref.hom_module(a + b, a + b) == sum(sides[1:], sides[0])


def _coords_pos_key(s):
    """The orbit ordering on Fraction coordinates: positive parts first."""
    def poly_key(t):
        return tuple((m, c.order, tuple((x < 0, abs(x)) for x in c.coords)) for m, c in t)
    return (s.rad, poly_key(s.den), poly_key(s.num))


def _orbit_min_by_rotations(e):
    """The zeta_p-orbit minimum the one-pass choice must match: every tail
    term rotated by every zeta_p^k, the least key on coordinates kept,
    first k on ties."""
    best = None
    for k in range(e.p):
        tail = {j: a * Scalar.zeta(e.p, -j * k % e.p) for j, a in e.tail}
        key = tuple((-j, _coords_pos_key(a)) for j, a in sorted(tail.items(), reverse=True))
        if best is None or key < best[0]:
            best = (key, tail)
    return ElementaryModule.make(e.p, best[1], e.r)


_ORBIT_POOL = _TAIL_POOL + [R(2), R(-3), Scalar.zeta(12, 5), Scalar.zeta(5) + R(1),
                            Scalar.zeta(4) * A1 ** 2, Scalar.zeta(8, 3) * (A1 + R(1))]


@st.composite
def _rotation_inputs(draw):
    p = draw(st.integers(1, 6))
    js = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True))
    return ElementaryModule.make(p, {j: draw(st.sampled_from(_ORBIT_POOL)) for j in js},
                                 J("(1)"))


@settings(max_examples=80, deadline=None)
@given(_rotation_inputs())
def test_orbit_min_is_the_least_rotation(e):
    assert e._orbit_min().tail == _orbit_min_by_rotations(e).tail


@settings(max_examples=40, deadline=None)
@given(_modules(), st.sampled_from(_R_POOL))
def test_formal_type_members_are_normal(e, r2):
    # the second member shares the first one's tail, so make merges them
    other = ElementaryModule.make(e.p, e.taild(), r2)
    ft = FormalType.make(JordanData.zero(), [e, other])
    for m in ft.irregular:
        assert m.normal
        assert _raw_copy(m).normalize() == m


# -- the counts reading of Hom ---------------------------------------------------

def _hom_or_none(fn, a, b):
    """fn(a, b), or None where the modules leave the scalar domain."""
    try:
        return fn(a, b)
    except IrrationalSumError:
        return None


def _module_counts(hs):
    return (sum(h.irregularity() for h in hs),
            sum(h.r.invariants_dim() for h in hs if h.is_regular()))


def _module_slopes(hs):
    out = {}
    for h in hs:
        out[h.slope()] = out.get(h.slope(), 0) + h.rank()
    return out


@settings(max_examples=60, deadline=None)
@given(_modules(), _modules())
def test_hom_counts_are_the_numbers_of_el_hom(a, b):
    # irr and dim Soln read from the raw summands are those of the
    # normalized modules, the same both ways round (Hom(b, a) is the dual),
    # and where el_hom leaves the scalar domain the counts do too
    hs = _hom_or_none(el_hom, a, b)
    counts = _hom_or_none(hom_counts, a, b)
    if hs is None:
        assert counts is None
        return
    assert counts == _module_counts(hs) == hom_counts(b, a)


@settings(max_examples=60, deadline=None)
@given(_modules(), _modules())
def test_hom_agrees_with_the_cover_oracle(a, b):
    # raw modules, pulled back to w^(p1 p2) with no gcd, reduction or orbit
    # minimum: the same slopes as el_hom and the same irr as both readings
    hs = _hom_or_none(el_hom, a, b)
    slopes = _hom_or_none(ref.cover_slopes, a, b)
    if hs is None:
        assert slopes is None
        return
    assert slopes == _module_slopes(hs)
    assert ref.cover_irregularity(a, b) == hom_counts(a, b)[0] == _module_counts(hs)[0]


_BLOCK_EIGS = [Eigenvalue.one(), Eigenvalue.minus_one(), parse_eigenvalue("i"),
               parse_eigenvalue("zeta(3)"), parse_eigenvalue("l^(1/2)")]
_BLOCK_TAILS = [{}, {1: A1}, {1: A1, 2: A2}, {2: -A1}]


@st.composite
def _block_modules(draw):
    # few tails, covers q*m over q <= 3 and the rotations of each tail, so
    # that Hom often has an empty tail; blocks of size 2-3 whose
    # eigenvalues often agree
    q, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    base = ElementaryModule.make(q, draw(st.sampled_from(_BLOCK_TAILS)), J("(1)"))
    tail = {j * m: c for j, c in base.rotated(draw(st.integers(0, q - 1))).items()}
    blocks = draw(st.lists(st.tuples(st.sampled_from(_BLOCK_EIGS), st.integers(2, 3)),
                           min_size=1, max_size=2))
    return ElementaryModule.make(q * m, tail, JordanData.make(blocks))


def test_hom_counts_build_no_jordan_data(monkeypatch):
    # on normal modules the counts read the tails and the blocks only
    mods = [ElementaryModule.make(p, tail, r).normalize() for p in (1, 2, 3)
            for tail in _BLOCK_TAILS for r in (LL, J("(-1, J(2))"))]
    want = [hom_counts(a, b) for a in mods for b in mods]
    def forbidden(blocks):
        raise AssertionError("JordanData.make called")
    monkeypatch.setattr(JordanData, "make", staticmethod(forbidden))
    assert [hom_counts(a, b) for a in mods for b in mods] == want


@settings(max_examples=80, deadline=None)
@given(_block_modules(), _block_modules())
def test_hom_soln_from_block_pairs_matches_the_jordan_tensor(a, b):
    # dim Soln read from the block pairs equals the invariants of the
    # tensored Jordan data over the regular summands of the cover oracle
    counts = _hom_or_none(hom_counts, a, b)
    want = _hom_or_none(ref.jordan_soln, a, b)
    if want is None:
        assert counts is None
        return
    assert counts[1] == want


@st.composite
def _same_cover_pairs(draw):
    # p1 = p2 = p from 1, raw tails (not always normal, so that p may drop
    # on normalizing) with the second often a rotation of the first, and
    # blocks whose eigenvalues often agree
    p = draw(st.integers(1, 4))
    tail = draw(st.sampled_from(_BLOCK_TAILS + [{1: A1, 3: Scalar.zeta(3) * A2}]))
    first = ElementaryModule.make(p, tail, J("(1)"))
    second = draw(st.sampled_from([first.rotated(draw(st.integers(0, p - 1))), {1: A2}, {}]))
    blocks = st.lists(st.tuples(st.sampled_from(_BLOCK_EIGS), st.integers(1, 3)),
                      min_size=1, max_size=2)
    return (ElementaryModule.make(p, tail, JordanData.make(draw(blocks))),
            ElementaryModule.make(p, second, JordanData.make(draw(blocks))))


@settings(max_examples=100, deadline=None)
@given(_same_cover_pairs())
def test_hom_soln_by_comparison_matches_the_cover(pair):
    # hom_counts reads an empty tail where the aligned tails are equal at
    # every pole order; the cover subtracts them
    a, b = pair
    assert hom_counts(a, b)[1] == ref.cover_soln(a, b)


def test_hom_soln_on_the_trivial_cover():
    # p = 1: Soln is Hom(R1, R2) exactly where the tails are equal; the
    # blocks of eigenvalue 1 give min(1, 3) + min(2, 3)
    r1, r2 = J("(1, J(2), -1)"), J("(J(3), i)")
    for t1, t2, soln in [({1: A1}, {1: A1}, 3), ({1: A1}, {1: -A1}, 0),
                         ({1: A1, 2: A2}, {1: A1, 2: A2}, 3), ({2: A2}, {1: A1, 2: A2}, 0)]:
        a, b = El(1, t1, r1), El(1, t2, r2)
        assert hom_counts(a, b)[1] == ref.cover_soln(a, b) == soln


def test_radical_parts_naming_one_number_stay_out_of_scope():
    # 2^(1/2) and zeta(8) + zeta(8)^7 are one number written with different
    # radical parts: comparing them must not give a count
    a = El(2, parse_scalar("2^(1/2)*a"), "(1)")
    b = El(2, parse_scalar("(zeta(8)+zeta(8)^7)*a"), "(1)")
    for f in (hom_counts, el_hom):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(IrrationalSumError):
                f(x, y)
    with pytest.raises(IrrationalSumError):
        FormalType.make(JordanData.zero(), [a, b]).end()
