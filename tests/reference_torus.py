"""The exponential torus dimension and the subfield tables by the earlier
route, an oracle for ``FormalType.exponential_torus_dim``, ``row_reduce``
and ``_subfield_projection``.

``torus_dim`` builds every deck rotation of every member as a canonical
``Scalar`` (``ElementaryModule.rotated``), lifts each coefficient back to
Q(zeta_n) with ``Cyclotomic._lift``, keeps the coordinates as Fractions and
takes the rank with ``fraction_row_reduce``, Gauss-Jordan over Q with each
pivot scaled to 1.  ``subfield_projection`` makes the tables of
``_subfield_projection`` with that elimination on Fraction rows.
"""

from fractions import Fraction
from math import lcm

from katz_forge.scalars import _euler_phi, _zeta_power


def fraction_row_reduce(m) -> list:
    """Bring the rows of m (lists of Fractions, changed in place) to reduced
    row echelon form over Q.  Returns the pivot columns in order: row i has
    its pivot 1 in column piv_cols[i], and the rows after the last pivot row
    are zero, so len(piv_cols) is the rank."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    piv_cols = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    return piv_cols


def subfield_projection(n: int, m: int) -> tuple:
    """(checks, reads, d) of ``_subfield_projection(n, m)``, the left
    inverse read from the Fraction Gauss-Jordan of [cols | I]."""
    step = n // m
    cols = [[Fraction(v) for v in _zeta_power(n, step * k)] for k in range(_euler_phi(m))]
    phi_m, phi_n = len(cols), _euler_phi(n)
    aug = [row + [Fraction(int(i == j)) for j in range(phi_m)] for i, row in enumerate(cols)]
    left = [[Fraction(0)] * phi_n for _ in range(phi_m)]
    for i, c in enumerate(fraction_row_reduce(aug)):
        for j in range(phi_m):
            left[j][c] = aug[i][phi_n + j]
    support = sorted({i for row in left for i, c in enumerate(row) if c})
    checks = []
    for r in sorted(set(range(phi_n)) - set(support)):
        row = [(i, sum(cols[j][r] * left[j][i] for j in range(phi_m))) for i in support]
        row = [(i, c) for i, c in row if c]
        s = lcm(*(c.denominator for _, c in row))
        checks.append((r, s, tuple((i, int(c * s)) for i, c in row)))
    checks.sort(key=lambda t: len(t[2]))
    d = lcm(*(c.denominator for row in left for c in row))
    reads = tuple(tuple((i, int(row[i] * d)) for i in support if row[i]) for row in left)
    return tuple(checks), reads, d


def _scalar_coords(s, order: int) -> dict:
    """Rational coordinate vector of a scalar: keys index (radical part,
    denominator, numerator monomial, basis slot in Q(zeta_order))."""
    out: dict = {}
    for mono, cyc in s.numd().items():
        for k, co in enumerate(cyc._lift(order)):
            if co:
                out[(s.rad, s.den, mono, k)] = Fraction(co, cyc.den)
    return out


def torus_dim(ft) -> int:
    """Dimension of the Q-span of the conjugate exponential tails of all
    members of ft, with symbols/radicals/cyclotomic basis elements treated
    as independent coordinates."""
    n = 1
    for e in ft.irregular:
        n = lcm(n, e.p)
        for _, a in e.tail:
            for cyc in a.numd().values():
                n = lcm(n, cyc.order)
    vectors = []
    for e in ft.irregular:
        for i in range(e.p):
            vec: dict = {}
            for j, tw in e.rotated(i).items():
                for key, val in _scalar_coords(tw, n).items():
                    vec[(j,) + key] = vec.get((j,) + key, Fraction(0)) + val
            vectors.append(vec)
    keys = sorted({k for v in vectors for k in v})
    return len(fraction_row_reduce([[v.get(k, Fraction(0)) for k in keys] for v in vectors]))
