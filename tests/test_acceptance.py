"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line so the whole gate can be read off a verbose
run.  Criteria referencing published table values assert them exactly; the
spots where the published tables disagree with the honest recomputation are
covered by `table_audit` and documented there.
"""

import json
import time

import pytest

from katz_forge.scalars import Scalar, parse_scalar, parse_eigenvalue, ONE
from katz_forge.jordan import JordanData, parse_jordan
from katz_forge.elementary import ElementaryModule
from katz_forge.formal_type import FormalType, parse_formal_type
from katz_forge.engine import (ConnectionDescriptor, ContradictionError, INF,
                               op_fourier, op_middle_convolution, op_moebius,
                               op_twist, rigidity_index,
                               run_script, descriptor_from_json)
from katz_forge import classify
from katz_forge.classify import (classification_descriptor, CLASSIFICATION_ROWS,
                                 enumerate_slope_profiles,
                                 enumerate_local_invariants,
                                 solve_rigidity_tuples, _prof)
from katz_forge.cli import golden_path
from reference_hom import exterior_cube_module

J = parse_jordan
FT = parse_formal_type
E = parse_eigenvalue
S = parse_scalar


def _golden(name):
    with open(golden_path(name + ".json")) as fh:
        return descriptor_from_json(json.load(fh))


def test_criterion_1_rigidity_of_all_rows():
    """Each classification row has rigidity index exactly 2, within 1s."""
    for name, _, _ in CLASSIFICATION_ROWS:
        c = classification_descriptor(name)
        t0 = time.time()
        rig = rigidity_index(c)
        dt = time.time() - t0
        assert rig == 2, name
        assert dt < 1.0, (name, dt)
    print("criterion 1: PASS - rig = 2 for all 10 classification rows, < 1 s each")


def test_criterion_2_tuple_reproduction():
    r2 = solve_rigidity_tuples(2)
    r3 = solve_rigidity_tuples(3)
    r4 = solve_rigidity_tuples(4)
    assert len(r2) == 29
    assert set(r3) == {(0, 0, 16, 25, 29, 13), (0, 0, 16, 29, 29, 9),
                       (0, 0, 18, 29, 29, 11)}
    assert r4 == []
    assert (0, 7, 7, 2) in r2 and (0, 21, 19, 4) in r2 and (0, 30, 17, 15) in r2
    print("criterion 2: PASS - 29 r=2 tuples, 3 r=3 tuples, empty r=4")


def test_criterion_3_slope_profiles():
    profs = enumerate_slope_profiles()
    assert len(profs) == 10
    assert _prof((6, 6)) in profs
    assert _prof((2, 2), (1, 4)) in profs
    print("criterion 3: PASS - exactly the 10 slope-profile rows")


def test_criterion_4_local_invariant_table():
    rows = {r["profile"]: r for r in enumerate_local_invariants()}
    assert rows[_prof((6, 6))]["soln"] == {2}
    assert rows[_prof((6, 6))]["irr"] == {7}
    assert rows[_prof((3, 6))]["soln"] == {3}
    assert rows[_prof((3, 6))]["irr"] == {12, 14}
    assert rows[_prof((2, 6))]["soln"] == {4, 6, 10}
    assert rows[_prof((2, 6))]["irr"] == {15, 19, 21}
    assert rows[_prof((1, 4))]["soln"] == {5, 7, 9, 11, 13, 17}
    assert rows[_prof((1, 4))]["irr"] == {32, 36}
    assert rows[_prof((1, 6))]["soln"] == {7, 9, 11, 13, 15, 19}
    assert rows[_prof((1, 6))]["irr"] == {30, 38, 42}
    assert rows[_prof((2, 2), (1, 2))]["irr"] == {29}
    assert rows[_prof((2, 2), (1, 4))]["irr"] == {37, 39}
    assert rows[_prof((2, 4), (1, 2))]["soln"] == {5, 7}
    assert rows[_prof((4, 4), (1, 2))]["soln"] == {4}
    assert rows[_prof((4, 4), (1, 2))]["irr"] == {27}
    # every published deviation from the honest sweep is documented
    for rec in classify.table_audit():
        if not rec["agrees"]:
            assert rec["note"]
    print("criterion 4: PASS - local-invariant table matches the published rows")


def test_criterion_5_script_replay():
    # the four construction scripts reach the classification rows ...
    for script, start, target in [
        ("e1", "l1", classification_descriptor("e1_1")),
        ("e2", "l2", classification_descriptor("e2")),
        ("e4", "l4", classification_descriptor("e4_1")),
    ]:
        with open(golden_path(script + ".script")) as fh:
            trace = run_script(_golden(start), fh.read())
        assert trace[-1] == target, script
    # e3 runs the longer twisted script
    script = ("mc i\ntwist i,1,1,-i\nfourier\nmoebius inv\ntwist i,-i\n"
              "fourier\ntwist -1,-1\nmoebius inv\nfourier")
    trace = run_script(_golden("l3"), script)
    assert trace[-1] == classification_descriptor("e3")

    # ... every intermediate line of the E1 scheme is reproduced ...
    def reg(t):
        return FormalType.make(J(t))
    s1, s2 = S("a1^2/4"), S("a1^2")
    with open(golden_path("e1.script")) as fh:
        tr = run_script(_golden("l1"), fh.read())
    assert tr[1].point(S("0")) == reg("(-1, 1)")
    assert tr[1].point(s1) == reg("(l^2, 1)")
    assert tr[1].inf_type() == reg("(-l^-1 E2)")
    assert tr[2].point(s1) == reg("(-l, -l^-1)")
    assert tr[3].point(S("0")) == reg("(J(2), J(2))")
    assert tr[3].inf_type() == FT(
        "El(1, a1^2/4, (-l, -l^-1)) + El(1, a1^2, (-1)) + (-1)")
    assert tr[4].inf_type() == reg("(J(2), J(2))")
    assert tr[5].point(S("0")) == reg("(J(3), J(3), 1)")

    # ... and the two exclusion schemes end in the documented contradictions
    c1 = ConnectionDescriptor.make({
        S("0"): reg("(-E4, E3)"), S("1"): reg("(J(2), J(2), E3)"),
        INF: FT("El(2, a, (E2)) + (E3)")}, 7)
    with pytest.raises(ContradictionError) as exc1:
        op_fourier(c1)
    assert "6" in exc1.value.report and "8" in exc1.value.report
    a = S("a")
    c2 = ConnectionDescriptor.make({
        S("0"): reg("(J(2), J(2), E3)"),
        INF: FT("El(1, a, (l E2)) + El(1, -a, (l^-1 E2)) + El(1, 2*a, (m)) + "
                "El(1, -2*a, (m^-1)) + (1)")}, 7)
    f = op_fourier(c2)
    tw = op_twist(f, {S("0"): E("1"), a: E("l^-1"), S("-a"): E("l"),
                      S("2*a"): E("1"), S("-2*a"): E("m"), INF: E("m^-1")})
    with pytest.raises(ContradictionError) as exc2:
        op_middle_convolution(tw, E("m^-1"))
    assert "rank 1" in exc2.value.report
    print("criterion 5: PASS - scheme replays verbatim, exclusions contradict as documented")


def test_criterion_6_lambda3_euler_characteristics():
    rep = classify.verify_classification()
    assert rep["e2"]["lambda3_chi"] == 2
    e2 = classification_descriptor("e2")
    l3_inf = exterior_cube_module(e2.inf_type())
    assert l3_inf.irregularity() == 15
    assert l3_inf.soln_dim() == 4
    assert e2.point(S("0")).regular.exterior(3).invariants_dim() == 13

    e1 = classification_descriptor("e1_1")
    l31 = exterior_cube_module(e1.inf_type())
    assert rep["e1_1"]["lambda3_chi"] >= 1
    # the 35 letter-triples of E1 contain exactly 7 zero-phase ones, so the
    # honest irregularity component is 14 (the source prose says 13, but its
    # own displayed decomposition also sums to 14); chi is unaffected
    assert l31.irregularity() == 14
    assert l31.regular.rank() == 7

    e3 = classification_descriptor("e3")
    l33 = exterior_cube_module(e3.inf_type())
    assert rep["e3"]["lambda3_chi"] >= 1
    assert l33.soln_dim() >= 2
    assert l33.irregularity() <= 10
    print("criterion 6: PASS - chi(L^3): E2 = 13+4-15 = 2; E1, E3 >= 1 "
          "(E1 irregularity component 14, a documented source slip from 13)")


def test_criterion_7_exponential_torus():
    t1 = FormalType.make(JordanData.zero(), [
        ElementaryModule.make(6, {3: Scalar.sym("c3"), 1: Scalar.sym("c1")}, J("(1)"))])
    assert t1.exponential_torus_dim() == 3
    for tail in ({3: Scalar.sym("c3"), 1: Scalar.sym("c1")}, {3: Scalar.sym("c3"), 2: Scalar.sym("c2")},
                 {3: Scalar.sym("c3"), 2: Scalar.sym("c2"), 1: Scalar.sym("c1")}):
        t2 = FormalType.make(JordanData.zero(), [
            ElementaryModule.make(3, dict(tail), J("(1)"))])
        assert t2.exponential_torus_dim() == 3
    for name, _, _ in CLASSIFICATION_ROWS:
        c = classification_descriptor(name)
        assert c.inf_type().exponential_torus_dim() <= 2, name
    print("criterion 7: PASS - torus dim 3 for the (6,3) and (3,3) tails, <= 2 on all rows")


def test_criterion_8_hypergeometric_example():
    for k in (1, 5, 7):
        tail = {i: Scalar.sym(f"h{i}") for i in range(1, k + 7)}
        v = ElementaryModule.make(6, tail, J("(m)"))
        c = ConnectionDescriptor.make({INF: FormalType.make(J("(n)"), [v])}, 7)
        assert c.inf_type().end().irregularity() == 7 * (k + 6)
        assert rigidity_index(c) == 9 - 7 * k
    print("criterion 8: PASS - irr(End) = 7(k+6), rig = 9-7k, rigid iff k = 1")


def test_criterion_9_pullback_identities():
    rep = classify.pullback_identities()
    assert rep["[2]*e4_5 == e3"]
    assert rep["[3]*e4_4 == e2 member"]
    assert rep["ok"]
    print("criterion 9: PASS - [2]* and [3]* pullback identities hold at both points")


def test_criterion_10_property_suites():
    t0 = time.time()
    # the exhaustive oracle sweeps and randomized suites live in the unit
    # test modules; here we re-run the cheap global properties and time-box
    goldens = [classification_descriptor(n) for n, _, _ in CLASSIFICATION_ROWS]
    for c in goldens:
        assert rigidity_index(op_fourier(c)) == 2
        assert rigidity_index(op_moebius(c, "inv")) == 2
        assert rigidity_index(op_twist(c, {S("0"): E("m"), INF: E("m^-1")})) == 2
        assert op_fourier(op_fourier(c)) == op_moebius(c, "affine", S("-1"), S("0"))
    lls = [_golden("l1"), _golden("l2"), _golden("l3"), _golden("l4")]
    for ll in lls:
        chi = ll.inf_type().regular.is_scalar()
        if chi is not None and not chi.is_one():
            assert rigidity_index(op_middle_convolution(ll, chi)) == rigidity_index(ll)
    with open(golden_path("e4.script")) as fh:
        trace = run_script(_golden("l4"), fh.read())
    for c in trace:
        for _, ft in c.points:
            for sl in ft.slopes():
                assert sl == 0 or sl.numerator == 1
    dt = time.time() - t0
    assert dt < 30
    print(f"criterion 10: PASS - rig invariance, double-Fourier, slope numerators ({dt:.1f}s); "
          "oracle and randomized suites in test_jordan/test_elementary")
