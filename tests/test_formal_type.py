import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from katz_forge.scalars import Scalar, Eigenvalue, ONE, OutOfScopeError, parse_scalar
from katz_forge.jordan import JordanData, parse_jordan
from katz_forge.elementary import El, ElementaryModule, render_elementary
from katz_forge.formal_type import (FormalType, parse_formal_type,
                                    render_formal_type, formal_type_to_json,
                                    formal_type_from_json, _piece_exterior)
from katz_forge.fourier import vanishing_data, nearby_from_vanishing
from katz_forge.engine import load_descriptor, parse_script, run_script
from katz_forge.cli import golden_dir, golden_path
from reference_hom import hom_module, exterior_cube_module, cover_exterior_slopes
import reference_torus

J = parse_jordan
FT = parse_formal_type
A1, A2 = Scalar.sym("a1"), Scalar.sym("a2")
SHIFT_EIGS = [Eigenvalue.one(), Eigenvalue.minus_one(),
              Eigenvalue.make(Fraction(1, 3)),
              Eigenvalue.make(Fraction(1, 4)),
              Eigenvalue.make(Fraction(2, 5)), Eigenvalue.sym("x")]

E1 = FT("El(2, a1, (l, l^-1)) + El(2, 2*a1, (1)) + (-1)")
E2 = FT("El(2, a1, (1)) + El(2, a2, (1)) + El(2, a1+a2, (1)) + (-1)")
E3 = FT("El(3, a1, (1)) + El(3, -a1, (1)) + (1)")
E4 = FT("El(6, a1, (1)) + (-1)")


def _golden_and_replay_types() -> set:
    """The distinct formal types at the points of the golden descriptors and
    of every step of the e1-e4 replays."""
    fts = set()
    for name in os.listdir(golden_dir()):
        if name.endswith(".json"):
            fts.update(ft for _, ft in load_descriptor(golden_path(name)).points)
    for i in range(1, 5):
        with open(golden_path(f"e{i}.script")) as fh:
            steps = parse_script(fh.read())
        for c in run_script(load_descriptor(golden_path(f"l{i}.json")), steps):
            fts.update(ft for _, ft in c.points)
    return fts


class TestInvariants:
    @pytest.mark.parametrize("ft,rank,irr,halfdim", [
        (E4, 7, 1, (Fraction(1, 6), 6)),
        (E1, 7, 3, (Fraction(1, 2), 6)),
        (E2, 7, 3, (Fraction(1, 2), 6)),
        (E3, 7, 2, (Fraction(1, 3), 6)),
    ])
    def test_classification_types(self, ft, rank, irr, halfdim):
        assert ft.rank() == rank
        assert ft.irregularity() == irr
        slope, dim = halfdim
        assert ft.slopes()[slope] == dim

    def test_purely_regular(self):
        f = FormalType.make(J("(J(3), J(3), 1)"))
        assert f.irregularity() == 0


class TestEnd:
    # the (irr(End), dim Soln(End)) pairs are the infinity entries of the
    # tuples (0,19,17,4), (0,21,19,4), (0,14,13,3), (0,7,7,2)
    @pytest.mark.parametrize("ft,end_irr,soln", [
        (E1, 19, 4), (E2, 21, 4), (E3, 14, 3), (E4, 7, 2),
    ])
    def test_classification_values(self, ft, end_irr, soln):
        end = ft.end()
        assert end.rank() == 49
        assert end.irregularity() == end_irr
        assert end.soln_dim() == soln

    def test_regular_centralizer(self):
        f = FormalType.make(J("(J(3), J(3), 1)"))
        assert f.end().soln_dim() == 17

    def test_rank_one(self):
        f = FormalType.make(J("(m)"))
        end = f.end()
        assert end.rank() == 1 and end.irregularity() == 0
        assert end.soln_dim() == 1

    def test_end_irr_dual_invariance(self):
        for ft in (E1, E3):
            assert ft.end().irregularity() == ft.dual().end().irregularity()

    def test_soln_lower_bound(self):
        # at least one invariant per irreducible summand
        for ft, nsummands in [(E1, 3), (E2, 4), (E3, 3), (E4, 2)]:
            assert ft.end().soln_dim() >= nsummands - 2  # regular part may merge
            assert ft.end().soln_dim() >= 2


class TestChecks:
    def test_classification_rows(self):
        for ft in (E1, E2, E3, E4):
            ck = ft.checks()
            assert ck["self_dual"] and ck["det_trivial"]

    def test_non_self_dual(self):
        f = FT("El(1, a1, (m))")
        ck = f.checks()
        assert not ck["self_dual"] and not ck["det_trivial"]

    def test_regular_self_dual(self):
        f = FormalType.make(J("(xE2, x^-1E2, E3)"))
        ck = f.checks()
        assert ck["self_dual"] and ck["det_trivial"]


class TestFormalMonodromy:
    def test_el2_pattern(self):
        # El(2, a, (E2)) + (J(2), 1) has formal monodromy (E2, -E2, J(2), 1)
        f = FormalType.make(J("(J(2), 1)"), [El(2, A1, "(E2)")])
        fm = f.formal_monodromy()
        assert fm == J("(E2, -E2, J(2), 1)")

    def test_el2_minus_pattern(self):
        f = FormalType.make(J("(J(2), 1)"), [El(2, A1, "(-E2)")])
        fm = f.formal_monodromy()
        assert fm == J("(iE2, -1*iE2, J(2), 1)")

    def test_regular_identity(self):
        f = FormalType.make(J("(J(3), x)"))
        assert f.formal_monodromy() == J("(J(3), x)")


class TestTorus:
    def test_classification_rows(self):
        assert E1.exponential_torus_dim() == 1
        assert E2.exponential_torus_dim() == 2
        assert E3.exponential_torus_dim() == 2
        assert E4.exponential_torus_dim() == 2

    def test_p6_q3(self):
        f = FormalType.make(JordanData.zero(), [
            ElementaryModule.make(6, {3: Scalar.sym("b3"), 1: Scalar.sym("b1")}, J("(1)"))])
        assert f.exponential_torus_dim() == 3

    def test_p3_q3(self):
        full = FormalType.make(JordanData.zero(), [
            ElementaryModule.make(3, {3: Scalar.sym("b3"), 2: Scalar.sym("b2"), 1: Scalar.sym("b1")}, J("(1)"))])
        assert full.exponential_torus_dim() == 3
        no_mid = FormalType.make(JordanData.zero(), [
            ElementaryModule.make(3, {3: Scalar.sym("b3"), 1: Scalar.sym("b1")}, J("(1)"))])
        assert no_mid.exponential_torus_dim() == 3

    def test_single_exponential(self):
        f = FT("El(1, a1, (m))")
        assert f.exponential_torus_dim() == 1

    def test_denominators_that_differ_in_a_coefficient(self):
        # coordinates over the denominators b + 1 and b + 2 differ in a
        # Cyclotomic, which has no order: columns are numbered, not sorted
        f = FT("El(1, a/(b+1), (1)) + El(1, a/(b+2), (1))")
        assert f.exponential_torus_dim() == 2

    @pytest.mark.parametrize("p,dim", [(60, 16), (84, 24), (97, 96)])
    def test_rotations_of_one_tail_span_phi_p(self, p, dim):
        # the p rotations of a/u span the p-th roots of unity times a, a
        # space of dimension phi(p); the earlier route agrees
        f = FormalType.make(JordanData.zero(), [El(p, Scalar.sym("a"), "(1)")])
        assert f.exponential_torus_dim() == dim == reference_torus.torus_dim(f)


_TORUS_SYMBOLS = [Scalar.sym("a"), Scalar.sym("b"), Scalar.sym("a") * Scalar.sym("b"),
                  Scalar.sym("a") ** 2, ONE, Scalar.sym("a") / Scalar.sym("b")]
_TORUS_RADICALS = [parse_scalar(t) for t in ("2^(1/2)", "3^(1/3)", "a^(1/2)", "b^(2/3)")]


@st.composite
def _torus_types(draw):
    # pieces p = 1..6 whose tails share the symbols a and b; each
    # coefficient a sum of q zeta_m^k times a monomial, m from one or two
    # orders in 1..12 per type, and at most one coefficient with a radical;
    # a piece may repeat the one before times a rational, so that the rank
    # depends on the scale of each coefficient
    orders = draw(st.lists(st.integers(1, 12), min_size=1, max_size=2))
    fractions = st.fractions(-3, 3, max_denominator=4)
    term = st.tuples(st.sampled_from(orders), st.integers(0, 11), fractions,
                     st.sampled_from(_TORUS_SYMBOLS))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        if pieces and draw(st.booleans()):
            q = Scalar.rational(draw(fractions.filter(bool)))
            pieces.append([pieces[-1][0], {j: c * q for j, c in pieces[-1][1].items()}])
            continue
        tail = {}
        for j in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)):
            c = Scalar.rational(0)
            for m, k, q, mono in draw(st.lists(term, min_size=1, max_size=2)):
                c = c + Scalar.rational(q) * Scalar.zeta(m, k % m) * mono
            if not c.is_zero():
                tail[j] = c
        pieces.append([draw(st.integers(1, 6)), tail])
    radical = draw(st.none() | st.sampled_from(_TORUS_RADICALS))
    if radical is not None:
        tail = pieces[0][1]
        if tail:
            j = max(tail)
            tail[j] = tail[j] * radical
    return FormalType.make(JordanData.zero(), [ElementaryModule.make(p, tail, J("(1)"))
                                               for p, tail in pieces])


@settings(max_examples=120, deadline=None)
@given(_torus_types())
def test_torus_dim_matches_the_rotated_scalars_route(ft):
    # integer rows of shifted lifts, fraction-free elimination: the rank of
    # the earlier route's Fraction rows of canonical rotated scalars, and
    # the same refusal where Q(zeta_n) is too large
    try:
        want = reference_torus.torus_dim(ft)
    except OutOfScopeError:
        with pytest.raises(OutOfScopeError):
            ft.exponential_torus_dim()
        return
    assert ft.exponential_torus_dim() == want


class TestExteriorCube:
    def test_e2(self):
        l3 = exterior_cube_module(E2)
        assert l3.rank() == 35
        assert l3.irregularity() == 15
        assert l3.regular.invariants_dim() == 4

    def test_e1(self):
        l3 = exterior_cube_module(E1)
        assert l3.rank() == 35
        # independent check: of the 35 triples of exponential letters
        # {a, a, -a, -a, 2a, -2a, 0} exactly 7 have zero phase, so the
        # slope-1/2 mass is 28 and the irregularity is 14 (the source
        # prose says 13 but its own displayed decomposition sums to 14)
        assert l3.regular.rank() == 7
        assert l3.irregularity() == 14
        assert l3.regular.invariants_dim() >= 1

    def test_e3(self):
        l3 = exterior_cube_module(E3)
        assert l3.rank() == 35
        assert l3.irregularity() == 10
        assert l3.regular.invariants_dim() >= 2

    def test_rank3_regular_det(self):
        f = FormalType.make(J("(x, x^-1, 1)"))
        l3 = exterior_cube_module(f)
        assert l3.rank() == 1
        assert l3.regular == J("(1)")

    def test_unsupported_block(self):
        f = FormalType.make(JordanData.zero(), [El(2, A1, "(J(2))")])
        with pytest.raises(OutOfScopeError):
            f.exterior_cube()

    @pytest.mark.parametrize("lam", ["l", "-1", "1", "zeta(3)"])
    @pytest.mark.parametrize("tail", [{1: "a1"}, {1: "a1", 2: "a2"}, {2: "a1", 3: "b^(1/2)"}])
    def test_piece_exterior_against_the_cover(self, tail, lam):
        # Lambda^k of El(u^p, tail, (lam)) for p = 2..7 and every k <= p.
        # In the last tail the two terms carry different radicals, and the
        # pole order 3 cancels across S = {0, 2} (p = 4, k = 2; d = 2)
        for p in range(2, 8):
            e = ElementaryModule.make(p, {j: parse_scalar(a) for j, a in tail.items()},
                                      J(f"({lam})"))
            det = e.det()
            for k in range(1, p + 1):
                got = _piece_exterior(e, k)
                cover = cover_exterior_slopes(e, k)
                case = f"Lambda^{k} {render_elementary(e)}"
                assert got.slopes() == cover, case
                assert got.irregularity() == sum(s * d for s, d in cover.items()), case
                assert got.formal_monodromy() == e.r.push(p).exterior(k), case
                # the closed forms: det, and det (x) dual where det has no tail
                if k == p:
                    assert got == FormalType.make(JordanData.zero(), [ElementaryModule.make(
                        1, det.tail, JordanData.single(det.eig))]), case
                if k == p - 1 and not det.tail:
                    assert got == FormalType.make(
                        JordanData.zero(), [e.dual().scale_eigenvalues(det.eig)]), case

    def test_finite_point_invariants(self):
        assert J("(J(3), J(3), 1)").exterior(3).invariants_dim() == 13
        assert J("(J(3), J(2), J(2))").exterior(3).invariants_dim() == 13
        assert J("(iE2, -1*iE2, -E2, 1)").exterior(3).invariants_dim() == 9


class TestLocalData:
    """Local data at a finite point under the minimal extension: the
    vanishing data (vanishing_data) and the nearby data rebuilt from it
    (nearby_from_vanishing)."""

    def test_minus_e4_e3_masses(self):
        # the two mu-masses entering h(F) = 4 + 2 in the r=3 exclusion:
        # eigenvalue -1 with mass 4 at the (-E4, E3) point and no
        # eigenvalue-1 part; eigenvalue 1 with mass 2 at the
        # (J(2), J(2), E3) point
        assert vanishing_data(J("(-E4, E3)")) == J("(-E4)")
        assert vanishing_data(J("(J(2), J(2), E3)")) == J("(E2)")

    def test_finite_shift(self):
        # the level-1 eigenvalue-1 blocks J(2), J(2) shift to level 0 and back
        assert nearby_from_vanishing(J("(E2)"), 7) == J("(J(2), J(2), E3)")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(SHIFT_EIGS), st.integers(1, 3)),
                    max_size=6))
    def test_round_trips(self, blocks):
        j = JordanData.make(blocks)
        v = vanishing_data(j)
        assert v.rank() == j.rank() - j.invariants_dim()
        assert nearby_from_vanishing(v, j.rank()) == j


class TestTensorAndJson:
    def test_end_via_tensor_dual(self):
        t = E4.tensor(E4.dual())
        assert t.rank() == 49
        assert t.irregularity() == E4.end().irregularity()

    def test_end_is_dual_tensor_on_every_golden_type(self):
        fts = _golden_and_replay_types()
        assert len(fts) == 50
        for ft in fts:
            assert ft.dual().tensor(ft) == ft.tensor(ft.dual()), render_formal_type(ft)

    def test_hom_is_additive_on_every_golden_type(self):
        # End(A + B) = End A + Hom(A, B) + Hom(B, A) + End B, and Hom(A, B)
        # is the sum of the Homs between members, split at every member
        fts = _golden_and_replay_types()
        assert len(fts) == 50
        for ft in fts:
            parts = [FormalType.make(JordanData.zero(), [e]) for e in ft.summands()]
            end = hom_module(ft, ft)
            for i in range(1, len(parts)):
                a, b = sum(parts[1:i], parts[0]), sum(parts[i + 1:], parts[i])
                assert a + b == ft
                sides = [hom_module(a, a), hom_module(a, b), hom_module(b, a), hom_module(b, b)]
                assert sum(sides[1:], sides[0]) == end, render_formal_type(ft)
                pieces = [hom_module(x, y) for x in parts[:i] for y in parts[i:]]
                assert sum(pieces[1:], pieces[0]) == hom_module(a, b), render_formal_type(ft)

    def test_counts_match_the_modules_on_every_golden_type(self):
        # the counts read from the raw Hom summands are the numbers of the
        # normalized modules: End, 500 Homs, and Lambda^3 on every type
        def numbers(x):
            return x.rank(), x.irregularity(), x.soln_dim()
        fts = sorted(_golden_and_replay_types(), key=render_formal_type)
        assert len(fts) == 50
        cubes = 0
        for i, ft in enumerate(fts):
            assert numbers(ft.end()) == numbers(hom_module(ft, ft)), render_formal_type(ft)
            for s in range(1, 11):
                g = fts[(i + 5 * s) % len(fts)]
                assert numbers(ft.hom(g)) == numbers(hom_module(ft, g)), render_formal_type(ft)
            try:
                cube = exterior_cube_module(ft)
            except (ValueError, ArithmeticError) as exc:
                with pytest.raises(type(exc)) as raised:
                    ft.exterior_cube()
                assert raised.type is type(exc)
                continue
            assert numbers(ft.exterior_cube()) == numbers(cube), render_formal_type(ft)
            cubes += 1
        assert cubes == 50

    def test_json_round_trip(self):
        for ft in (E1, E2, E3, E4):
            assert formal_type_from_json(formal_type_to_json(ft)) == ft

    def test_pretty_round_trip(self):
        for ft in (E1, E2, E3, E4):
            assert parse_formal_type(render_formal_type(ft)) == ft

    def test_minimality_merging(self):
        # two copies of the same class merge into one member
        f = FormalType.make(JordanData.zero(),
                            [El(2, A1, "(l)"), El(2, -A1, "(l^-1)")])
        assert len(f.irregular) == 1
        assert f.irregular[0].r.rank() == 2
