"""Operation transport and the construction-scheme replays.

Every intermediate line of the published schemes is asserted verbatim (up
to canonical form); the two exclusion runs must end in their documented
contradiction reports.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from katz_forge.scalars import Scalar, parse_scalar, parse_eigenvalue
from katz_forge.jordan import JordanData, parse_jordan
from katz_forge.formal_type import FormalType, parse_formal_type
from katz_forge.fourier import (OutOfScopeError, lft_zero_to_inf, lft_shifted,
                                lft_inf_to_s)
from katz_forge.elementary import El, ElementaryModule
from katz_forge.engine import (ConnectionDescriptor, ContradictionError, INF,
                               op_twist, op_moebius, op_fourier,
                               op_middle_convolution, rigidity_index,
                               euler_char_middle, fourier_rank, run_script,
                               parse_script, descriptor_to_json,
                               descriptor_from_json, _vanishing)

J = parse_jordan
FT = parse_formal_type
E = parse_eigenvalue
S = parse_scalar


def reg(t):
    return FormalType.make(J(t))


def gm(zero, inf, rank=7):
    return ConnectionDescriptor.make({S("0"): reg(zero), "inf": FT(inf)}, rank)


E1_INF = "El(2, a1, (l, l^-1)) + El(2, 2*a1, (1)) + (-1)"
E2_INF = "El(2, a1, (1)) + El(2, a2, (1)) + El(2, a1+a2, (1)) + (-1)"
E3_INF = "El(3, a1, (1)) + El(3, -a1, (1)) + (1)"
E4_INF = "El(6, a1, (1)) + (-1)"

GOLDEN = [gm("(J(3),J(3),1)", E1_INF), gm("(-J(2),-J(2),E3)", E1_INF),
          gm("(xE2, x^-1E2, E3)", E1_INF), gm("(J(3),J(2),J(2))", E2_INF),
          gm("(iE2,-1*iE2,-E2,1)", E3_INF), gm("(J(7))", E4_INF),
          gm("(zeta(3)J(3), zeta(3)^2J(3), 1)", E4_INF),
          gm("(zJ(2), z^-1J(2), z^2, z^-2, 1)", E4_INF),
          gm("(xJ(2), x^-1J(2), J(3))", E4_INF),
          gm("(x, y, x*y, x^-1*y^-1, y^-1, x^-1, 1)", E4_INF)]


class TestLocalFourier:
    def test_degree_bookkeeping(self):
        out = lft_zero_to_inf(El(1, Scalar.sym("a"), "(m)"))
        assert out.p == 2 and out.q() == 1

    def test_e1_slot_piece(self):
        # El(u, (a1^2/4)/u, (-l,-l^-1)) transforms to El(2, a1, (l, l^-1))
        e = El(1, S("a1^2/4"), "(-l, -l^-1)")
        out = lft_zero_to_inf(e)
        assert out.iso_eq(El(2, Scalar.sym("a1"), "(l, l^-1)"))

    def test_regular_entry_point_error(self):
        with pytest.raises(OutOfScopeError):
            lft_zero_to_inf(ElementaryModule.make(1, {}, J("(m)")))

    def test_shift_round_trip(self):
        # regular content travels as the piece El(1, 0, V)
        s = S("a1^2/4")
        v = ElementaryModule.make(1, {}, J("(-l, -l^-1)"))
        s2, payload = lft_inf_to_s(lft_shifted(v, s))
        assert s2 == s
        assert payload == v

    def test_slope_half_recovery(self):
        e = El(2, Scalar.sym("a"), "(m)").normalize()
        s, payload = lft_inf_to_s(lft_zero_to_inf(El(1, Scalar.sym("b"), "(m)")))
        assert s.is_zero()

    def test_slope_one_ramified_out_of_scope(self):
        e = ElementaryModule.make(2, {2: Scalar.sym("a"), 1: Scalar.sym("b")}, J("(1)"))
        with pytest.raises(OutOfScopeError):
            lft_inf_to_s(e)

    def test_slope_transport(self):
        # (p, q) -> (p + q, q) under the transform, slope numerator stays 1
        for p, q in [(1, 1), (2, 1), (5, 1), (3, 1)]:
            e = ElementaryModule.make(p, {q: Scalar.sym("a")}, J("(1)"))
            out = lft_zero_to_inf(e)
            assert (out.p, out.q()) == (p + q, q)


class TestE1Scheme:
    def test_full_replay(self):
        s1, s2 = S("a1^2/4"), S("a1^2")
        ll1 = ConnectionDescriptor.make(
            {S("0"): reg("(l^-1)"), s1: reg("(-l)"), s2: reg("(l^-1)"),
             INF: reg("(-l)")}, 1)
        m1 = op_middle_convolution(ll1, E("-l"))
        assert m1.rank == 2
        assert m1.point(S("0")) == reg("(-1, 1)")
        assert m1.point(s1) == reg("(l^2, 1)")
        assert m1.point(s2) == reg("(-1, 1)")
        assert m1.inf_type() == reg("(-l^-1, -l^-1)")
        m2 = op_twist(m1, {S("0"): E("1"), s1: E("-l^-1"), s2: E("1"), INF: E("-l")})
        assert m2.point(s1) == reg("(-l, -l^-1)")
        assert INF not in m2.locations()  # E2 at infinity: nonsingular
        m3 = op_fourier(m2)
        assert m3.rank == 4
        assert m3.point(S("0")) == reg("(J(2), J(2))")
        assert m3.inf_type() == FT(
            "El(1, a1^2/4, (-l, -l^-1)) + El(1, a1^2, (-1)) + (-1)")
        m4 = op_moebius(m3, "inv")
        assert m4.inf_type() == reg("(J(2), J(2))")
        m5 = op_fourier(m4)
        assert m5.rank == 7
        assert m5.point(S("0")) == reg("(J(3), J(3), 1)")
        assert m5.inf_type() == FT(E1_INF)

    def test_script_form(self):
        from katz_forge.cli import golden_path
        import json
        with open(golden_path("l1.json")) as fh:
            ll1 = descriptor_from_json(json.load(fh))
        with open(golden_path("e1.script")) as fh:
            trace = run_script(ll1, fh.read())
        assert trace[-1] == gm("(J(3),J(3),1)", E1_INF)


class TestOtherSchemes:
    def test_e2(self):
        pts = {S("0"): reg("(-1)"), S("a1^2/4"): reg("(-1)"), S("a2^2/4"): reg("(-1)"),
               S("(a1+a2)^2/4"): reg("(-1)"), INF: reg("(1)")}
        ll2 = ConnectionDescriptor.make(pts, 1)
        trace = run_script(ll2, "fourier\nmoebius inv\nfourier")
        assert trace[-1] == gm("(J(3),J(2),J(2))", E2_INF)
        mid = trace[1]
        assert mid.rank == 4
        assert mid.point(S("0")) == reg("(J(2), 1, 1)")

    def test_e3(self):
        pts = {S("0"): reg("(-i)"), S("a1^3/27"): reg("(-1)"),
               S("-a1^3/27"): reg("(-1)"), INF: reg("(i)")}
        ll3 = ConnectionDescriptor.make(pts, 1)
        script = ("mc i\ntwist i,1,1,-i\nfourier\nmoebius inv\ntwist i,-i\n"
                  "fourier\ntwist -1,-1\nmoebius inv\nfourier")
        trace = run_script(ll3, script)
        assert trace[-1] == gm("(iE2,-1*iE2,-E2,1)", E3_INF)

    def test_e4(self):
        pts = {S("0"): reg("(-1)"), S("a1^6/46656"): reg("(-1)"), INF: reg("(1)")}
        ll4 = ConnectionDescriptor.make(pts, 1)
        script = "fourier\nmoebius inv\n" * 5 + "fourier"
        trace = run_script(ll4, script)
        assert trace[-1] == gm("(J(7))", E4_INF)
        # ranks grow 1,2,...,7 and the unipotent block builds up at 0
        ranks = [t.rank for t in trace]
        assert ranks == [1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7]

    def test_slope_numerators_in_replays(self):
        pts = {S("0"): reg("(-1)"), S("a1^6/46656"): reg("(-1)"), INF: reg("(1)")}
        ll4 = ConnectionDescriptor.make(pts, 1)
        trace = run_script(ll4, "fourier\nmoebius inv\n" * 5 + "fourier")
        for c in trace:
            for _, ft in c.points:
                for sl in ft.slopes():
                    assert sl == 0 or sl.numerator == 1


class TestExclusions:
    def test_r3_rank_six_vs_eight(self):
        c = ConnectionDescriptor.make({
            S("0"): reg("(-E4, E3)"), S("1"): reg("(J(2), J(2), E3)"),
            INF: FT("El(2, a, (E2)) + (E3)")}, 7)
        assert fourier_rank(c) == 6
        with pytest.raises(ContradictionError) as exc:
            op_fourier(c)
        assert "6" in exc.value.report and "8" in exc.value.report

    def test_rank_one_with_j2(self):
        a = S("a")
        c = ConnectionDescriptor.make({
            S("0"): reg("(J(2), J(2), E3)"),
            INF: FT("El(1, a, (l E2)) + El(1, -a, (l^-1 E2)) + "
                    "El(1, 2*a, (m)) + El(1, -2*a, (m^-1)) + (1)")}, 7)
        f = op_fourier(c)
        assert f.rank == 2
        assert f.point(a) == FormalType.make(J("(lE2)"))
        assert f.point(S("2*a")) == reg("(m, 1)")
        tw = op_twist(f, {S("0"): E("1"), a: E("l^-1"), S("-a"): E("l"),
                          S("2*a"): E("1"), S("-2*a"): E("m"), INF: E("m^-1")})
        assert tw.inf_type() == FormalType.make(J("(m^-1 E2)"))
        with pytest.raises(ContradictionError) as exc:
            op_middle_convolution(tw, E("m^-1"))
        assert "rank 1" in exc.value.report


class TestOperationProperties:
    def test_rig_on_goldens(self):
        for c in GOLDEN:
            assert rigidity_index(c) == 2

    def test_rig_invariance(self):
        for c in GOLDEN:
            assert rigidity_index(op_fourier(c)) == 2
            assert rigidity_index(op_moebius(c, "inv")) == 2
            assert rigidity_index(
                op_twist(c, {S("0"): E("m"), INF: E("m^-1")})) == 2

    def test_double_fourier_is_epsilon(self):
        for c in GOLDEN:
            ff = op_fourier(op_fourier(c))
            assert ff == op_moebius(c, "affine", S("-1"), S("0"))

    def test_twist_inverse(self):
        c = GOLDEN[0]
        tw = op_twist(c, {S("0"): E("m"), INF: E("m^-1")})
        back = op_twist(tw, {S("0"): E("m^-1"), INF: E("m")})
        assert back == c

    def test_twist_identity_and_product_check(self):
        c = GOLDEN[0]
        assert op_twist(c, {S("0"): E("1"), INF: E("1")}) == c
        with pytest.raises(ValueError):
            op_twist(c, {S("0"): E("m")})

    def test_moebius_involution(self):
        for c in GOLDEN[:2]:
            assert op_moebius(op_moebius(c, "inv"), "inv") == c
        assert op_moebius(GOLDEN[0], "affine", S("1"), S("0")) == GOLDEN[0]

    def test_affine_shift_at_infinity_keeps_slopes_at_most_one(self):
        c = ConnectionDescriptor.make({INF: FT("El(1, a1/u^2, (1))")}, 1)
        with pytest.raises(OutOfScopeError, match="slopes > 1 at infinity"):
            op_moebius(c, "affine", S("2"), S("1"))
        # with b = 0 the coordinate 1/(2z) is the cover u/2
        assert op_moebius(c, "affine", S("2"), S("0")).point(INF) == FT(
            "El(1/2*u, a1/u^2, (1))")

    def test_mc_preconditions(self):
        c = GOLDEN[0]
        with pytest.raises(ValueError):
            op_middle_convolution(c, E("m"))  # infinity not scalar
        ll1 = ConnectionDescriptor.make(
            {S("0"): reg("(l^-1)"), S("a1^2/4"): reg("(-l)"),
             S("a1^2"): reg("(l^-1)"), INF: reg("(-l)")}, 1)
        with pytest.raises(ValueError):
            op_middle_convolution(ll1, E("1"))

    def test_mc_rank_formula_and_rig(self):
        ll1 = ConnectionDescriptor.make(
            {S("0"): reg("(l^-1)"), S("a1^2/4"): reg("(-l)"),
             S("a1^2"): reg("(l^-1)"), INF: reg("(-l)")}, 1)
        m1 = op_middle_convolution(ll1, E("-l"))
        assert m1.rank == fourier_rank(ll1) - ll1.rank
        assert rigidity_index(ll1) == 2
        assert rigidity_index(m1) == 2

    def test_mc_inverse_round_trip(self):
        ll1 = ConnectionDescriptor.make(
            {S("0"): reg("(l^-1)"), S("a1^2/4"): reg("(-l)"),
             S("a1^2"): reg("(l^-1)"), INF: reg("(-l)")}, 1)
        m1 = op_middle_convolution(ll1, E("-l"))
        back = op_middle_convolution(m1, E("-l^-1"))
        assert back.rank == ll1.rank

    def test_euler_char_trivial_family(self):
        c = ConnectionDescriptor.make(
            {S("0"): reg("(m)"), INF: reg("(m^-1)")}, 1)
        fam = {S("0"): reg("(1)"), INF: reg("(1)")}
        assert euler_char_middle(c, fam) == 2


class TestHypergeometricExample:
    def test_rig_9_minus_7k(self):
        for k in (1, 5, 7):
            tail = {i: Scalar.sym(f"h{i}") for i in range(1, k + 7)}
            v = ElementaryModule.make(6, tail, J("(m)"))
            inf = FormalType.make(J("(n)"), [v])
            c = ConnectionDescriptor.make({INF: inf}, 7)
            end = c.inf_type().end()
            assert end.irregularity() == 7 * (k + 6)
            assert end.soln_dim() == 2
            assert rigidity_index(c) == 9 - 7 * k


class TestSerialization:
    def test_descriptor_json_round_trip(self):
        for c in GOLDEN:
            assert descriptor_from_json(descriptor_to_json(c)) == c

    def test_script_parse(self):
        steps = parse_script("# comment\nmc -l\ntwist 1,-l^-1,1,-l\n"
                             "fourier\nmoebius inv\nmoebius affine -1 0\n")
        assert [s.op for s in steps] == ["mc", "twist", "fourier", "moebius", "moebius"]

    def test_script_named_twist(self):
        steps = parse_script("twist 0:m, inf:m^-1")
        c = GOLDEN[0]
        out = steps[0].apply(c)
        assert rigidity_index(out) == 2


class TestMoreTransportIdentities:
    def test_kummer_object_transform(self):
        # the transform of a rank-one Kummer object is the inverse Kummer
        # object: [0: chi, inf: chi^-1] maps to [0: chi^-1, inf: chi]
        k = ConnectionDescriptor.make(
            {S("0"): reg("(m)"), INF: reg("(m^-1)")}, 1)
        f = op_fourier(k)
        assert f.rank == 1
        assert f.point(S("0")) == reg("(m^-1)")
        assert f.inf_type() == reg("(m)")

    def test_0_16_9_9_exclusion_computation(self):
        # rank of the twisted transform is 5, but the transported formal
        # type at 0 would need rank 7
        for zero in ["(-J(3), J(3), -1)",
                     "(iJ(2), -1*iJ(2), -E2, 1)",
                     "(x, -1, -x, 1, -x^-1, -1, x^-1)"]:
            c = ConnectionDescriptor.make({
                S("0"): reg(zero),
                INF: FT("El(2, a, (-E2)) + (-E2, 1)")}, 7)
            tw = op_twist(c, {S("0"): E("-1"), INF: E("-1")})
            assert fourier_rank(tw) == 5, zero
            with pytest.raises(ContradictionError) as exc:
                op_fourier(tw)
            assert "5" in exc.value.report and "7" in exc.value.report


class TestContradictionReports:
    """The reports `replay` and `check` print, pinned byte for byte."""

    def test_r3_exclusion_report(self):
        c = ConnectionDescriptor.make({
            S("0"): reg("(-E4, E3)"), S("1"): reg("(J(2), J(2), E3)"),
            INF: FT("El(2, a, (E2)) + (E3)")}, 7)
        with pytest.raises(ContradictionError) as exc:
            op_fourier(c)
        assert exc.value.report == (
            "rank mismatch: transform has generic rank 6 but the formal type "
            "at 0 would need rank 8: vanishing data "
            "El(1, -1/4*a^2, (-1, -1)) + (1, 1, 1)")

    @pytest.mark.parametrize("zero", ["(-J(3), J(3), -1)",
                                      "(iJ(2), -1*iJ(2), -E2, 1)",
                                      "(x, -1, -x, 1, -x^-1, -1, x^-1)"])
    def test_0_16_9_9_exclusion_report(self, zero):
        c = ConnectionDescriptor.make({
            S("0"): reg(zero), INF: FT("El(2, a, (-E2)) + (-E2, 1)")}, 7)
        tw = op_twist(c, {S("0"): E("-1"), INF: E("-1")})
        with pytest.raises(ContradictionError) as exc:
            op_fourier(tw)
        assert exc.value.report == (
            "rank mismatch: transform has generic rank 5 but the formal type "
            "at 0 would need rank 7: vanishing data "
            "El(1, -1/4*a^2, (1, 1)) + (1, 1, -1)")

    def test_rank_one_middle_convolution_report(self):
        a = S("a")
        c = ConnectionDescriptor.make({
            S("0"): reg("(J(2), J(2), E3)"),
            INF: FT("El(1, a, (l E2)) + El(1, -a, (l^-1 E2)) + "
                    "El(1, 2*a, (m)) + El(1, -2*a, (m^-1)) + (1)")}, 7)
        tw = op_twist(op_fourier(c), {
            S("0"): E("1"), a: E("l^-1"), S("-a"): E("l"), S("2*a"): E("1"),
            S("-2*a"): E("m"), INF: E("m^-1")})
        with pytest.raises(ContradictionError) as exc:
            op_middle_convolution(tw, E("m^-1"))
        assert exc.value.report == (
            "rank 1 system forced to carry vanishing data (1) at -2*a "
            "(needs rank >= 2)")


def _fields(exc):
    return exc.step, exc.op, exc.location, exc.needed, exc.available


class TestContradictionFields:
    """The facts of each report as data; run_script adds the step."""

    R3 = ConnectionDescriptor.make({
        S("0"): reg("(-E4, E3)"), S("1"): reg("(J(2), J(2), E3)"),
        INF: FT("El(2, a, (E2)) + (E3)")}, 7)

    @pytest.mark.parametrize("zero", ["(-J(3), J(3), -1)", "(iJ(2), -1*iJ(2), -E2, 1)"])
    def test_exclusion_fields(self, zero):
        c0_16_9_9 = op_twist(ConnectionDescriptor.make({
            S("0"): reg(zero), INF: FT("El(2, a, (-E2)) + (-E2, 1)")}, 7),
            {S("0"): E("-1"), INF: E("-1")})
        for c, needed, available in ((self.R3, 8, 6), (c0_16_9_9, 7, 5)):
            with pytest.raises(ContradictionError) as exc:
                op_fourier(c)
            assert _fields(exc.value) == (None, "fourier", S("0"), needed, available)
            with pytest.raises(ContradictionError) as exc:
                run_script(c, "twist inf:1\nfourier")
            assert _fields(exc.value) == (2, "fourier", S("0"), needed, available)
            assert exc.value.report.startswith("step 2 (fourier): rank mismatch")

    def test_middle_convolution_fields(self):
        kummer = ConnectionDescriptor.make({S("0"): reg("(m)"), INF: reg("(m^-1)")}, 1)
        with pytest.raises(ContradictionError) as exc:
            op_middle_convolution(kummer, E("m^-1"))
        assert exc.value.report == "middle convolution rank dropped to 0"
        assert _fields(exc.value) == (None, "mc", None, 1, 0)
        a = S("a")
        c = ConnectionDescriptor.make({
            S("0"): reg("(J(2), J(2), E3)"),
            INF: FT("El(1, a, (l E2)) + El(1, -a, (l^-1 E2)) + "
                    "El(1, 2*a, (m)) + El(1, -2*a, (m^-1)) + (1)")}, 7)
        tw = op_twist(op_fourier(c), {
            S("0"): E("1"), a: E("l^-1"), S("-a"): E("l"), S("2*a"): E("1"),
            S("-2*a"): E("m"), INF: E("m^-1")})
        with pytest.raises(ContradictionError) as exc:
            op_middle_convolution(tw, E("m^-1"))
        assert _fields(exc.value) == (None, "mc", S("-2*a"), 2, 1)


# -- laws on random descriptors -------------------------------------------------

_EIGS = ["1", "-1", "i", "-i", "zeta(3)", "m", "m^-1", "l"]
_COEFFS = ["a", "-a", "2*a", "b", "a+b", "1/2"]
# (p, q) of the pieces El(u^p, c/u^q, R) at infinity: regular, slope 1 and
# slopes q/(q + 1) < 1, whose inverse transform needs no irrational root
_REGULAR, _SLOPE_ONE, _BELOW_ONE = [(1, 0)], [(1, 1)], [(2, 1), (3, 2), (4, 3)]


@st.composite
def _jordan(draw, n):
    blocks = []
    while n:
        size = draw(st.integers(1, n))
        blocks.append((E(draw(st.sampled_from(_EIGS))), size))
        n -= size
    return JordanData.make(blocks)


@st.composite
def _formal_type(draw, n, shapes):
    """A formal type of rank n whose pieces El(u^p, c/u^q, R) have (p, q)
    in shapes."""
    pieces = []
    while n:
        p, q = draw(st.sampled_from([(p, q) for p, q in shapes if p <= n]))
        tail = {q: S(draw(st.sampled_from(_COEFFS)))} if q else {}
        r = draw(_jordan(draw(st.integers(1, n // p))))
        pieces.append(ElementaryModule.make(p, tail, r))
        n -= p * r.rank()
    return FormalType.make(JordanData.zero(), pieces)


@st.composite
def _descriptors(draw, locations, shapes):
    """Rank <= 4, regular at the finite points, slopes <= 1 at infinity."""
    n = draw(st.integers(1, 4))
    pts = {S(loc): FormalType.make(draw(_jordan(n))) for loc in draw(locations)}
    pts[INF] = draw(_formal_type(n, shapes))
    return ConnectionDescriptor.make(pts, n)


_LOCATIONS = ["0", "1", "-1", "2", "a", "b^2/4"]
_ANY_POINTS = st.lists(st.sampled_from(_LOCATIONS), min_size=1, max_size=3, unique=True)


def _in_scope(op, *args):
    try:
        return op(*args)
    except (ContradictionError, OutOfScopeError):
        assume(False)


@settings(max_examples=150, deadline=None)
@given(_descriptors(_ANY_POINTS, _REGULAR + _SLOPE_ONE + _BELOW_ONE))
def test_fourier_keeps_the_rigidity_index(c):
    assert rigidity_index(_in_scope(op_fourier, c)) == rigidity_index(c)


@settings(max_examples=150, deadline=None)
@given(_descriptors(st.just(["0"]), _REGULAR + _BELOW_ONE))
def test_double_fourier_is_epsilon_on_gm(c):
    # singular only at 0 and infinity, slopes < 1 there
    ff = _in_scope(lambda c: op_fourier(op_fourier(c)), c)
    assert ff == op_moebius(c, "affine", S("-1"), S("0"))


@settings(max_examples=100, deadline=None)
@given(_descriptors(_ANY_POINTS, _REGULAR + _SLOPE_ONE + _BELOW_ONE))
def test_fourier_four_times_is_the_identity(c):
    # whatever sign F o F carries, F^4 returns the descriptor itself
    ff = _in_scope(lambda c: op_fourier(op_fourier(c)), c)
    assert op_fourier(op_fourier(ff)) == c


@settings(max_examples=150, deadline=None)
@given(_descriptors(_ANY_POINTS, _REGULAR + _SLOPE_ONE + _BELOW_ONE), st.data())
def test_moebius_and_twist_keep_the_rigidity_index(c, data):
    rig = rigidity_index(c)
    assert rigidity_index(op_moebius(c, "inv")) == rig
    a, b = (S(data.draw(st.sampled_from(xs))) for xs in (["2", "-1", "1/3", "a", "-b"],
                                                          ["0", "1", "a"]))
    assert rigidity_index(op_moebius(c, "affine", a, b)) == rig
    # a twist at a point where c is trivial adds a singular point
    loc = S(data.draw(st.sampled_from(_LOCATIONS)))
    eig = E(data.draw(st.sampled_from(_EIGS[1:])))
    assert rigidity_index(op_twist(c, {loc: eig, INF: eig.inverse()})) == rig


@settings(max_examples=150, deadline=None)
@given(_descriptors(_ANY_POINTS, _REGULAR + _SLOPE_ONE + _BELOW_ONE))
def test_fourier_rank_is_the_rank_at_infinity(c):
    # the rank lemma: the local transform of a piece e of the vanishing data
    # has rank rk e + irr e, so op_fourier reads its generic rank from the
    # type at infinity, and fourier_rank (which mc uses) agrees with it.
    # The second round has the slope-(<1) pieces as irregular content at 0.
    for d in (c, _in_scope(op_fourier, c)):
        for s, ft in d.finite_points():
            for e in _vanishing(ft).summands():
                assert lft_shifted(e, s).rank() == e.rank() + e.irregularity()
        assert _in_scope(op_fourier, d).rank == fourier_rank(d)


@st.composite
def _scalar_at_infinity(draw):
    """(c, chi): c is regular at its finite points and twisted to the scalar
    monodromy chi != 1 at infinity, from scalar monodromy there, by a twist
    at a drawn location."""
    n = draw(st.integers(1, 4))
    pts = {S(loc): FormalType.make(draw(_jordan(n))) for loc in draw(_ANY_POINTS)}
    scalar = E(draw(st.sampled_from(_EIGS)))
    pts[INF] = FormalType.make(JordanData.make([(scalar, 1)] * n))
    chi = E(draw(st.sampled_from(_EIGS[1:])))
    eps = scalar * chi.inverse()
    loc = S(draw(st.sampled_from(_LOCATIONS)))
    return op_twist(ConnectionDescriptor.make(pts, n), {loc: eps, INF: eps.inverse()}), chi


@settings(max_examples=150, deadline=None)
@given(_scalar_at_infinity())
def test_middle_convolution_keeps_the_rigidity_index(c_chi):
    c, chi = c_chi
    assert c.inf_type() == FormalType.make(JordanData.make([(chi, 1)] * c.rank))
    assert rigidity_index(_in_scope(op_middle_convolution, c, chi)) == rigidity_index(c)


@pytest.mark.parametrize("tail", ["a", "a^2"])
def test_double_fourier_moves_finite_irregular_content(tail):
    # in the coordinate -z the tail term c/u becomes -c/u, as F o F gives
    c = ConnectionDescriptor.make({S("0"): FT(f"El(1, {tail}, (m)) + (x)"),
                                   INF: FT("(y, y^-1)")}, 2)
    assert op_fourier(op_fourier(c)) == op_moebius(c, "affine", S("-1"), S("0"))
