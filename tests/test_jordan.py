from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from katz_forge.scalars import Eigenvalue
from katz_forge.jordan import JordanData, parse_jordan, render_jordan

from oracle import (jordan_matrix, kronecker, jordan_structure,
                    jordan_data_value_multiset, exterior_matrix, eig_value,
                    mat_rank, ONE as C_ONE)

J = parse_jordan
one = Eigenvalue.one()
minus = Eigenvalue.minus_one()
ii = Eigenvalue.make(Fraction(1, 4))
lam = Eigenvalue.sym("l")

EIGS = [one, minus, ii, lam]


class TestCentralizer:
    def test_paper_rows(self):
        assert J("(J(3), J(3), 1)").centralizer_dim() == 17
        assert J("(iE2, -1*iE2, -E2, 1)").centralizer_dim() == 13
        assert J("(J(2), J(2), E3)").centralizer_dim() == 29
        assert J("(J(3), J(2), J(2))").centralizer_dim() == 19
        assert J("(-E4, E3)").centralizer_dim() == 25

    def test_identity_full_algebra(self):
        for n in range(1, 6):
            assert JordanData.identity(n).centralizer_dim() == n * n

    def test_lower_bound_regular(self):
        # equality iff one block per eigenvalue
        reg = J("(x, J(3), -1J(2))")
        assert reg.centralizer_dim() == reg.rank()
        nonreg = J("(J(2), J(1))")
        assert nonreg.centralizer_dim() > nonreg.rank()


class TestAux:
    def test_dual_involution_and_selfdual(self):
        d = J("(xE2, x^-1E2, E3)")
        assert d.dual() == d
        r = J("(xJ(2), -1, J(3))")
        assert r.dual().dual() == r
        assert r.centralizer_dim() == r.dual().centralizer_dim()

    def test_invariants(self):
        assert J("(J(3), J(3), 1)").invariants_dim() == 3

    def test_det_so7_row(self):
        d = J("(zJ(2), z^-1J(2), z^2, z^-2, 1)")
        assert d.det().is_one()

    def test_invariants_matrix_oracle(self):
        jd = J("(J(3), J(3), 1)")
        m = jordan_matrix(jd)
        n = len(m)
        b = [[m[i][j] - (C_ONE if i == j else C_ONE - C_ONE) for j in range(n)]
             for i in range(n)]
        assert n - mat_rank(b) == jd.invariants_dim()


def _oracle_tensor_check(j1: JordanData, j2: JordanData):
    got = j1.tensor(j2)
    a = kronecker(jordan_matrix(j1), jordan_matrix(j2))
    values = sorted({eig_value(e1 * e2) for e1, _ in j1.blocks for e2, _ in j2.blocks},
                    key=lambda c: c.sort_key())
    assert jordan_structure(a, values) == jordan_data_value_multiset(got)


class TestTensorOracle:
    def test_spec_example(self):
        _oracle_tensor_check(JordanData.single(lam, 2), JordanData.single(lam.inverse(), 2))
        t = JordanData.single(lam, 2).tensor(JordanData.single(lam.inverse(), 2))
        assert t == JordanData.make([(one, 3), (one, 1)])

    def test_unit(self):
        r = J("(xJ(2), -1)")
        assert JordanData.identity(1).tensor(r) == r

    def test_rank_one_twist(self):
        t = JordanData.single(Eigenvalue.sym("x"), 3).tensor(
            JordanData.single(Eigenvalue.sym("y"), 1))
        assert t == JordanData.single(Eigenvalue.sym("x") * Eigenvalue.sym("y"), 3)

    def test_exhaustive_single_blocks(self):
        # all single-block pairs with sizes a + b <= 6 (blocks up to J(4))
        # over eigenvalues {1, -1, i, l}; the oracle recovers the Jordan
        # form of the literal Kronecker product by exact rank sequences
        for a in range(1, 5):
            for b in range(a, 5):
                if a + b > 6:
                    continue
                for e1 in EIGS:
                    for e2 in EIGS:
                        _oracle_tensor_check(JordanData.single(e1, a),
                                             JordanData.single(e2, b))

    def test_exhaustive_rank_two_multisets(self):
        datas = []
        for blocks in combinations_with_replacement(
                [(e, s) for e in EIGS for s in (1, 2)], 2):
            jd = JordanData.make(list(blocks))
            if jd.rank() <= 3:
                datas.append(jd)
        for i, j1 in enumerate(datas):
            for j2 in datas[i:]:
                if j1.rank() * j2.rank() <= 6:
                    _oracle_tensor_check(j1, j2)


class TestExteriorOracle:
    def test_spec_rank2(self):
        le2 = JordanData.make([(lam, 1), (lam, 1)])
        assert le2.exterior(2) == JordanData.single(lam.pow(2), 1)

    def test_top_power_is_det(self):
        r3 = J("(x, x^-1, 1)")
        assert r3.exterior(3) == JordanData.single(one, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            J("(1, 1)").exterior(3)

    def test_lambda3_j7_oracle(self):
        jd = JordanData.single(one, 7)
        got = jd.exterior(3)
        assert got.rank() == 35
        a = exterior_matrix(jordan_matrix(jd), 3)
        assert jordan_structure(a, [C_ONE]) == jordan_data_value_multiset(got)
        assert got.invariants_dim() == sum(1 for e, _ in got.blocks if e.is_one())

    def test_exhaustive_small(self):
        datas = []
        singles = [(e, s) for e in EIGS for s in (1, 2, 3)]
        for nb in (1, 2):
            for blocks in combinations_with_replacement(singles, nb):
                jd = JordanData.make(list(blocks))
                if jd.rank() <= 4:
                    datas.append(jd)
        for jd in datas:
            a = jordan_matrix(jd)
            vals = sorted({eig_value(x) for x in _products(jd)}, key=lambda c: c.sort_key())
            for k in range(1, jd.rank() + 1):
                got = jd.exterior(k)
                ax = exterior_matrix(a, k)
                assert jordan_structure(ax, vals) == jordan_data_value_multiset(got), (jd, k)

    def test_binomial_rank(self):
        from math import comb
        jd = J("(xJ(2), -1J(2), J(3))")
        for k in range(jd.rank() + 1):
            assert jd.exterior(k).rank() == comb(jd.rank(), k)


def _products(jd):
    from itertools import combinations
    eigs = jd.eigenvalue_multiset()
    out = set()
    for k in range(1, len(eigs) + 1):
        for combo in combinations(range(len(eigs)), k):
            p = Eigenvalue.one()
            for i in combo:
                p = p * eigs[i]
            out.add(p)
    return out


class TestPushPull:
    def test_pull_keeps_shape(self):
        assert JordanData.single(lam, 2).pull(3) == \
            JordanData.single(lam.pow(3), 2)

    def test_push_p2_permutation_oracle(self):
        # push of the trivial rank-1 along degree 2 is the regular rep of
        # Z/2: eigenvalues {1, -1} (the P_2 permutation matrix)
        got = JordanData.single(one, 1).push(2)
        assert got == JordanData.make([(one, 1), (minus, 1)])

    def test_push_symbolic(self):
        got = JordanData.single(lam, 1).push(2)
        r = lam.pow(Fraction(1, 2))
        assert got == JordanData.make([(r, 1), (r * minus, 1)])

    def test_push_then_pull(self):
        # pull(push(J,p),p) multiplies rank by p and keeps eigenvalues
        jd = JordanData.single(lam, 2)
        pp = jd.push(3).pull(3)
        assert pp.rank() == 3 * jd.rank()
        assert pp == JordanData.make([(lam, 2)] * 3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), min_size=1, max_size=3),
       st.integers(1, 4))
def test_push_pull_rank_properties(blocks, p):
    jd = JordanData.make([(EIGS[i], s) for i, s in blocks])
    assert jd.push(p).rank() == p * jd.rank()
    assert jd.pull(p).rank() == jd.rank()
    assert jd.dual().dual() == jd
    assert jd.centralizer_dim() >= jd.rank()


def test_render_parse_round_trip():
    for text in ["(xJ(2), x^-1J(2), J(3))", "(J(7))", "(zJ(2), z^-1J(2), z^2, z^-2, 1)",
                 "(-1, -1, 1)", "(iE2, -1*iE2, -E2, 1)"]:
        jd = parse_jordan(text)
        assert parse_jordan(render_jordan(jd)) == jd
