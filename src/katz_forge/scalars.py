"""Exact scalar arithmetic.

Two scalar sorts are used throughout the engine:

* ``Scalar`` -- elements of the coefficient field: multivariate rational
  functions in formal parameters (a1, a2, ...) over the cyclotomic
  rationals, extended by radical monomials (rational powers of single
  symbols and of positive integers).  These house pole coefficients and
  singularity locations such as ``a1^2/4`` or ``6*(a1/6)^(6/5)``.

* ``Eigenvalue`` -- elements of the multiplicative group
  (roots of unity) x (free abelian group on formal symbols with rational
  exponents).  These house monodromy eigenvalues such as ``-l^-2``, with
  the root of unity and the integral exponents kept in ints.

Everything is immutable and canonically normalized, so equality is
structural and decidable.  No floating point anywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, NamedTuple


class OutOfScopeError(ValueError):
    """Raised for inputs outside the supported calculus (slopes > 1 at the
    transform source, cyclotomic fields of degree above _MAX_DEGREE, ...)."""


class IrrationalRootError(OutOfScopeError):
    """Raised when a requested p-th root does not exist in the supported
    radical extension of the coefficient field."""


class IrrationalSumError(OutOfScopeError):
    """Raised when adding scalars with incompatible radical parts."""


# ---------------------------------------------------------------------------
# cyclotomic fields Q(zeta_N), power basis mod Phi_N, minimal-order canonical
# ---------------------------------------------------------------------------
# Phi_N is monic with integer coefficients, so reduction mod Phi_N never
# divides: an element is kept as integer numerators over one denominator.

# The largest degree phi(n) of a field Q(zeta_n) the engine builds: its subfield
# tables eliminate phi(m) x phi(n) matrices, seconds at phi(n) = 96 (n = 336).
_MAX_DEGREE = 96


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Dense integer coefficient tuple (low degree first) of Phi_n.  Every
    field Q(zeta_n) is built through it, so it refuses the large ones."""
    _euler_phi(n)
    if n == 1:
        return (-1, 1)
    # x^n - 1 divided by prod of Phi_d for proper divisors d
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _dense_divexact(num, cyclotomic_poly(d))
    return tuple(num)


def _dense_divexact(a: list, b: tuple) -> list:
    """a / b for monic b.  No remainder check: ``cyclotomic_poly`` divides
    x^n - 1, the product of the Phi_d over all d | n, by the Phi_d of its
    proper divisors one at a time, so every division is exact."""
    a = a[:]
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = out[i] = a[i + len(b) - 1]
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return out


@lru_cache(maxsize=None)
def _euler_phi(n: int) -> int:
    """phi(n), the degree of Q(zeta_n), or OutOfScopeError above _MAX_DEGREE;
    phi(n) >= sqrt(n/2), so n > 2 * _MAX_DEGREE^2 needs no factoring."""
    phi = n
    if n <= 2 * _MAX_DEGREE ** 2:
        for p in _prime_divisors(n):
            phi = phi // p * (p - 1)
    if phi > _MAX_DEGREE:
        raise OutOfScopeError(f"Q(zeta({n})) has degree above {_MAX_DEGREE}: "
                              "roots of unity of this order are out of scope")
    return phi


@lru_cache(maxsize=None)
def _zeta_power(n: int, k: int) -> tuple:
    """Coordinates of zeta_n^k in the power basis of Q(zeta_n)."""
    k %= n
    return tuple(_reduce_mod_phi([0] * k + [1], n))


def _reduce_mod_phi(dense: list, n: int) -> list:
    """The phi(n) coordinates of dense (reduced in place) mod Phi_n."""
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    for i in range(len(dense) - 1, d - 1, -1):
        c = dense[i]
        if c:
            for j in range(d):
                dense[i - d + j] -= c * phi[j]
    del dense[d:]
    dense += [0] * (d - len(dense))
    return dense


def _dense_mul(a, b) -> list:
    """Schoolbook product of two dense coefficient lists."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return prod


def row_reduce(m) -> list:
    """Bring the rows of m (lists of ints or Fractions, changed in place) to
    reduced row echelon form over Q up to one nonzero factor per row, with
    no division: a row is cleared by cross-multiplying it with the pivot
    row, and a row of ints is then divided by the gcd of its entries.
    Returns the pivot columns in order: row i has its pivot, nonzero, in
    column piv_cols[i] and zeros in the other pivot columns, and the rows
    after the last pivot row are zero, so len(piv_cols) is the rank."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    ints = all(type(x) is int for row in m for x in row)
    piv_cols = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top, pivot = m[r], m[r][c]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                row = [pivot * x - f * y for x, y in zip(m[i], top)]
                g = gcd(*row) if ints else 1
                m[i] = [x // g for x in row] if g > 1 else row
        piv_cols.append(c)
        r += 1
    return piv_cols


@lru_cache(maxsize=None)
def _subfield_projection(n: int, m: int) -> tuple:
    """(checks, reads, d): how to read numerators x in Q(zeta_n) as ones in
    Q(zeta_m), m | n, in integers, each row a tuple of (index i, int c).

    d times a left inverse of the embedding of Q(zeta_m) (its columns are
    zeta_n^(k n/m), k < phi(m)) that uses only the first linearly
    independent coordinates of Q(zeta_n) has the rows ``reads``:
    d * y[j] = sum(c * x[i]).  x lies in Q(zeta_m) iff embedding y gives x
    back.  On those coordinates it does by construction; ``checks`` holds
    (r, s, row) for each other coordinate r, and x lies in the subfield iff
    s * x[r] == sum(c * x[i]) for all of them.  Rows with fewest terms come
    first, as most elements fail at once."""
    step = n // m
    cols = [list(_zeta_power(n, step * k)) for k in range(_euler_phi(m))]
    phi_m, phi_n = len(cols), _euler_phi(n)
    # reducing [cols | I] once gives E cols in echelon form and E; the solution
    # of cols x = e_j with free coordinates 0 is column j of E on the pivots
    aug = [row + [int(i == j) for j in range(phi_m)] for i, row in enumerate(cols)]
    left = [[Fraction(0)] * phi_n for _ in range(phi_m)]
    for i, c in enumerate(row_reduce(aug)):
        for j in range(phi_m):
            left[j][c] = Fraction(aug[i][phi_n + j], aug[i][c])
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


def _read_subfield(n: int, m: int, x):
    """(numerators, d): the coordinates in Q(zeta_m) of the numerators x
    given in Q(zeta_n), over the factor d; None when x does not lie in
    Q(zeta_m)."""
    checks, reads, d = _subfield_projection(n, m)
    for r, s, row in checks:
        if s * x[r] != sum(c * x[i] for i, c in row):
            return None
    return [sum(c * x[i] for i, c in row) for row in reads], d


@lru_cache(maxsize=None)
def _prime_divisors(n: int) -> tuple:
    return tuple(_factor(n))


def _power_sum(n: int, terms) -> list:
    """Dense coordinates in Q(zeta_n) of sum(c * zeta_n^e) over (e, c) in
    terms, 0 <= e < n: an exponent below phi(n) is a basis index, only the
    others need a row of ``_zeta_power``."""
    phi = _euler_phi(n)
    dense = [0] * phi
    for e, c in terms:
        if not c:
            continue
        if e < phi:
            dense[e] += c
        else:
            for i, v in enumerate(_zeta_power(n, e)):
                if v:
                    dense[i] += c * v
    return dense


class Cyclotomic:
    """Element of a cyclotomic field in canonical form.

    Stored as its order n, the integer numerators ``num`` of its coordinates
    in the power basis of Q(zeta_n) and their common denominator ``den``,
    with den > 0 and gcd(den, *num) == 1, so equality is structural.  n is
    minimal: an element lying in Q(zeta_m) for m | n is re-expressed at
    order m.  Zero has order 1.  ``coords``, the coordinates as Fractions,
    is built on first use.  ``Cyclotomic(n, coords)`` is the canonical form
    of sum(coords[k] * zeta_n^k), for coords of any length.
    """

    __slots__ = ("order", "num", "den", "_coords")

    def __init__(self, order: int, coords):
        if order < 1:
            raise ValueError(f"cyclotomic order must be at least 1, got {order}")
        coords = [Fraction(c) for c in coords]
        den = lcm(*(c.denominator for c in coords))
        x = Cyclotomic._make(order, [c.numerator * (den // c.denominator) for c in coords], den)
        self.order, self.num, self.den, self._coords = x.order, x.num, x.den, None

    @staticmethod
    def _raw(order: int, num: tuple, den: int) -> "Cyclotomic":
        x = object.__new__(Cyclotomic)
        x.order, x.num, x.den, x._coords = order, num, den, None
        return x

    @property
    def coords(self) -> tuple:
        if self._coords is None:
            self._coords = tuple(Fraction(x, self.den) for x in self.num)
        return self._coords

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        if type(q) is int:
            return Cyclotomic._raw(1, (q,), 1)
        q = Fraction(q)
        return Cyclotomic._raw(1, (q.numerator,), q.denominator)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        return _zeta(n, k % n)

    @staticmethod
    def _make(n: int, dense: list, den: int) -> "Cyclotomic":
        """sum(dense[k] * zeta_n^k) / den; dense is reduced in place."""
        return Cyclotomic._canonical(n, _reduce_mod_phi(dense, n), den)

    @staticmethod
    def _canonical(n: int, num, den: int = 1) -> "Cyclotomic":
        """The element num / den, num its numerators in Q(zeta_n) and
        den > 0, at its minimal order.  The orders m | n with the element in
        Q(zeta_m) are closed under gcd, so descending through maximal
        subfields Q(zeta_{m/p}) while the element lies in one ends at the
        least of them."""
        if not any(num):
            return ZERO_C
        m = n
        while True:
            for p in _prime_divisors(m):
                sub = _read_subfield(m, m // p, num)
                if sub is not None:
                    m, (num, d) = m // p, sub
                    den *= d
                    break
            else:
                break
        g = gcd(den, *num)
        if g != 1:
            num, den = [x // g for x in num], den // g
        return Cyclotomic._raw(m, tuple(num), den)

    def _lift(self, n: int, shift: int = 0):
        """Numerators of self * zeta_n^shift inside Q(zeta_n) (self.order
        | n), over self.den: every exponent of self moves up by shift."""
        if n == self.order and not shift:
            return self.num
        step = n // self.order
        return _power_sum(n, (((step * k + shift) % n, c) for k, c in enumerate(self.num)))

    # -- arithmetic --------------------------------------------------------
    def _binop(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        n = lcm(self.order, other.order)
        return n, self._lift(n), other._lift(n), other

    def _sum(self, other, sign: int) -> "Cyclotomic":
        n, a, b, other = self._binop(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        return Cyclotomic._canonical(n, [x * sa + y * sb for x, y in zip(a, b)], den)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return Cyclotomic._raw(self.order, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        if self.order == 1 == other.order:
            # two rationals: the products of numerators and of denominators
            # over their gcd
            n, d = self.num[0] * other.num[0], self.den * other.den
            g = gcd(n, d)
            return Cyclotomic._raw(1, (n // g,), d // g)
        # an operand equal to 1 (num (1,) over den 1) returns the other one
        if self.num == (1,) and self.den == 1:
            return other
        if other.num == (1,) and other.den == 1:
            return self
        n, a, b, other = self._binop(other)
        return Cyclotomic._make(n, _dense_mul(a, b), self.den * other.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def times_zeta(self, n: int, k: int) -> "Cyclotomic":
        """self * zeta_n^k, read in Q(zeta_m), m the lcm of self.order and n.
        zeta_n^k = -1 (2k = 0 mod n) negates self.  A rational self scales
        the table entry zeta_n^k: a root of unity has coprime integer
        coordinates in the power basis of its minimal field, so its product
        with a fraction in lowest terms is canonical as it stands."""
        k %= n
        if k == 0 or self.is_zero():
            return self
        if 2 * k == n:
            return -self
        if self.order == 1:
            z, a = _zeta(n, k), self.num[0]
            return Cyclotomic._raw(z.order, tuple(a * x for x in z.num), self.den)
        m = lcm(self.order, n)
        return Cyclotomic._canonical(m, self._lift(m, k * (m // n)), self.den)

    def inverse(self) -> "Cyclotomic":
        """1 / self: the product of the other Galois conjugates of self,
        divided by the norm, which is the product of all of them and
        rational."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic inverse of zero")
        n, a = self.order, self.num
        if n == 1:
            # a rational: den / num is in lowest terms already
            return Cyclotomic._raw(1, (self.den if a[0] > 0 else -self.den,), abs(a[0]))
        others = [1]
        for j in range(2, n):
            if gcd(j, n) == 1:
                conj = _power_sum(n, ((j * k % n, c) for k, c in enumerate(a)))
                others = _reduce_mod_phi(_dense_mul(others, conj), n)
        # self = a / den and norm(a) = a * others, so 1/self = others * den / norm(a)
        norm = _reduce_mod_phi(_dense_mul(a, others), n)[0]
        sign = 1 if norm > 0 else -1
        return Cyclotomic._canonical(n, [sign * self.den * x for x in others], sign * norm)

    def __truediv__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        return self * other.inverse()

    def galois(self, j: int) -> "Cyclotomic":
        """Apply zeta -> zeta^j (j coprime to the order)."""
        n = self.order
        return Cyclotomic._canonical(
            n, _power_sum(n, ((j * k % n, c) for k, c in enumerate(self.num))), self.den)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return self.order == 1 and self.num[0] == 0

    def rational_value(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"{render_cyclotomic(self)} is not rational")
        return Fraction(self.num[0], self.den)

    def as_unit_times_rational(self):
        """Return (q, torsion) with self = q * e^(2 pi i torsion), q a
        positive rational and torsion in [0, 1); a negative sign is the
        torsion 1/2.  None if self is not rational times a root of unity.
        Every root of unity of Q(zeta_n) is +-zeta_n^k with k < n, and the
        rational factor carries the sign."""
        if self.is_zero():
            return None
        x, n = self.num, self.order
        i = next(i for i, c in enumerate(x) if c)
        for k in range(n):
            z = _zeta_power(n, k)
            if z[i] and all(c * z[i] == v * x[i] for c, v in zip(x, z)):
                q, t = Fraction(x[i], z[i] * self.den), Fraction(k, n)
                return (q, t) if q > 0 else (-q, (t + Fraction(1, 2)) % 1)
        return None

    def sort_key(self):
        return (self.order, self.coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        return (isinstance(other, Cyclotomic) and self.order == other.order
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        # an int hashes as the Fraction of the same value
        return hash((self.order, self.num if self.den == 1 else self.coords))

    def __repr__(self):
        return f"Cyclotomic({render_cyclotomic(self)})"


@lru_cache(maxsize=None)
def _zeta(n: int, k: int) -> Cyclotomic:
    """zeta_n^k, 0 <= k < n, in canonical form."""
    return Cyclotomic._canonical(n, list(_zeta_power(n, k)))


ONE_C = Cyclotomic.from_rational(1)
ZERO_C = Cyclotomic.from_rational(0)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over Cyclotomic
# ---------------------------------------------------------------------------
# A monomial is a tuple of (symbol, positive int exponent) pairs, sorted by
# symbol; a polynomial is a dict monomial -> nonzero Cyclotomic.

def mono_mul(a, b):
    d = dict(a)
    for s, e in b:
        d[s] = d.get(s, 0) + e
    return tuple(sorted((s, e) for s, e in d.items() if e))


def mono_key(m):
    """Graded-lex key; the *smallest* key is the leading monomial."""
    return (-sum(e for _, e in m), tuple((s, -e) for s, e in m))


def poly_add(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b, sign 1 or -1."""
    out = dict(a)
    for m, c in b.items():
        if sign < 0:
            c = -c
        s = out[m] + c if m in out else c
        if s.is_zero():
            del out[m]
        else:
            out[m] = s
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            s = out[m] + ca * cb if m in out else ca * cb
            if s.is_zero():
                del out[m]
            else:
                out[m] = s
    return out


def poly_scale(a: dict, c: Cyclotomic) -> dict:
    if c.is_zero():
        return {}
    return {m: cc * c for m, cc in a.items()}


def poly_leading(a: dict):
    m = min(a, key=mono_key)
    return m, a[m]


def poly_vars(a: dict):
    vs = set()
    for m in a:
        for s, _ in m:
            vs.add(s)
    return vs


def _poly_to_univ(a: dict, var: str) -> dict:
    """Split off `var`: returns dict degree -> poly-in-remaining-vars."""
    out: dict = {}
    for m, c in a.items():
        # a monomial splits uniquely into its var power and the rest
        d = next((e for s, e in m if s == var), 0)
        out.setdefault(d, {})[tuple((s, e) for s, e in m if s != var)] = c
    return out


def _univ_to_poly(u: dict, var: str) -> dict:
    out: dict = {}
    for d, p in u.items():
        for m, c in p.items():
            mm = mono_mul(m, ((var, d),) if d else ())
            out[mm] = c
    return out


def poly_divexact(a: dict, b: dict) -> dict:
    """Exact division; raises if not divisible."""
    if not a:
        return {}
    if not b:
        raise ZeroDivisionError
    rem = dict(a)
    out: dict = {}
    mb, cb = poly_leading(b)
    cbi = cb.inverse()
    while rem:
        ma, ca = poly_leading(rem)
        q = _mono_div(ma, mb)
        if q is None:
            raise ArithmeticError("inexact polynomial division")
        cq = ca * cbi
        out[q] = cq
        rem = poly_add(rem, poly_mul({q: cq}, b), -1)
    return out


def _mono_div(a, b):
    d = dict(a)
    for s, e in b:
        if d.get(s, 0) < e:
            return None
        d[s] -= e
    return tuple(sorted((s, e) for s, e in d.items() if e))


def poly_gcd(a: dict, b: dict) -> dict:
    """GCD over the cyclotomic coefficient field, normalized monic in
    graded-lex leading term."""
    if len(a) == 1 or len(b) == 1:
        # a monomial divides a polynomial iff it divides every term
        return {_mono_gcd_all([*a, *b]): ONE_C}
    return _monic(_gcd_rec(a, b, sorted(poly_vars(a) | poly_vars(b))))


def _mono_gcd_all(a):
    """The gcd of the monomials a (a poly's terms, or any iterable of them)."""
    its = iter(a)
    g = dict(next(its))
    for m in its:
        d = dict(m)
        g = {s: min(e, d[s]) for s, e in g.items() if s in d}
    return tuple(sorted(g.items()))


def _monic(a: dict) -> dict:
    if not a:
        return a
    _, c = poly_leading(a)
    return poly_scale(a, c.inverse())


def _gcd_rec(a: dict, b: dict, vs) -> dict:
    if not a:
        return b
    if not b:
        return a
    if (() in a and len(a) == 1) or (() in b and len(b) == 1):
        return {(): ONE_C}
    var = vs[0]
    ua, ub = _poly_to_univ(a, var), _poly_to_univ(b, var)
    ca, pa = _primitive(ua, vs[1:])
    cb, pb = _primitive(ub, vs[1:])
    g = _univ_gcd(pa, pb, vs[1:])
    cg = _gcd_rec(ca, cb, vs[1:])
    return poly_mul(_univ_to_poly(g, var), cg)


def _primitive(u: dict, vs) -> tuple:
    """(content, primitive part) of a nonzero univariate poly u: the monic gcd
    of its coefficients, and u over it, made monic if it leads with a constant."""
    polys = iter(u.values())
    c = next(polys)
    for p in polys:
        c = _gcd_rec(c, p, vs)
        if c == {(): ONE_C}:
            break
    c = _monic(c)
    if c != {(): ONE_C}:
        u = {d: poly_divexact(p, c) for d, p in u.items()}
    lc = u[_deg(u)]
    if len(lc) == 1 and () in lc:
        u = {d: poly_scale(p, lc[()].inverse()) for d, p in u.items()}
    return c, u


def _deg(u: dict) -> int:
    """Degree of a univariate poly {degree: coefficient}; -1 for zero."""
    return max(u) if u else -1


def _univ_gcd(a: dict, b: dict, vs) -> dict:
    """Primitive PRS on univariate polys with poly coefficients, as _primitive returns them."""
    if _deg(a) < _deg(b):
        a, b = b, a
    while r := _pseudo_rem(a, b):
        a, b = b, _primitive(r, vs)[1]
    return b


def _pseudo_rem(a: dict, b: dict) -> dict:
    db = _deg(b)
    lb = b[db]
    r = {d: dict(p) for d, p in a.items()}
    while r and _deg(r) >= db:
        dr = _deg(r)
        lr = r[dr]
        # r = lb*r - lr*x^(dr-db)*b
        new: dict = {}
        for d, p in r.items():
            new[d] = poly_mul(p, lb)
        for d, p in b.items():
            dd = d + dr - db
            new[dd] = poly_add(new.get(dd, {}), poly_mul(p, lr), -1)
        r = {d: p for d, p in new.items() if p}
    return r


def poly_root(a: dict, p: int) -> dict:
    """p-th root of a monic polynomial; raises IrrationalRootError when
    impossible."""
    ml, _ = poly_leading(a)
    if any(e % p for _, e in ml):
        raise IrrationalRootError("leading monomial not a p-th power")
    lg_m = tuple((s, e // p) for s, e in ml)
    g = {lg_m: ONE_C}
    # Newton-style term matching: p * lead(g)^(p-1) * t = leading term of a - g^p
    denom_m = tuple((s, e * (p - 1)) for s, e in lg_m)
    denom_ci = Cyclotomic.from_rational(Fraction(1, p))
    for _ in range(len(a) * p * 4 + 8):
        diff = poly_add(a, _power(g, p, {(): ONE_C}, poly_mul), -1)
        if not diff:
            return g
        m, c = poly_leading(diff)
        q = _mono_div(m, denom_m)
        if q is None:
            raise IrrationalRootError("polynomial is not a perfect p-th power")
        g = poly_add(g, {q: c * denom_ci})
    raise IrrationalRootError("polynomial root iteration did not converge")


def _power(x, n: int, one, mul=operator.mul):
    """x ** n for n >= 0 by repeated squaring."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, in integer arithmetic (Newton's method
    from above)."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# ---------------------------------------------------------------------------
# Scalar: rational function x radical monomial
# ---------------------------------------------------------------------------

# the denominator of a scalar with no symbol in it
_ONE_DEN = (((), ONE_C),)


@dataclass(frozen=True)
class Scalar:
    """num/den * prod(base^frac) with num, den canonical polynomials.

    The radical part carries the fractional exponents; integer parts are
    folded into num/den at construction time.  Addition is only defined
    between scalars with identical radical parts.  A scalar of one term
    over one term is a monomial; products, quotients, powers and roots of
    monomials are built from their exponents by ``_monomial``, with no
    polynomial arithmetic.
    """

    num: tuple
    den: tuple
    rad: tuple = ()

    # internal: num/den stored as tuples of (mono, Cyclotomic) for hashing
    @staticmethod
    def _pack(d: dict):
        return tuple(sorted(d.items(), key=lambda t: mono_key(t[0])))

    @staticmethod
    def make(num: dict, den: dict, rad=()) -> "Scalar":
        """The canonical form of num / den times the radical rad, (base,
        Fraction) pairs summed per base, whose integer parts are carried into
        num and den.  One term over one term is a monomial."""
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            return ZERO
        if len(num) == 1 and len(den) == 1:
            (mn, cn), = num.items()
            (md, cd), = den.items()
            return _monomial(((mn, 1), (md, -1)), cn * cd.inverse(), rad)
        if rad:
            carry = _monomial((), ONE_C, rad)
            num, den, rad = poly_mul(num, carry.numd()), poly_mul(den, carry.dend()), carry.rad
        g = poly_gcd(num, den)
        if not (len(g) == 1 and () in g and g[()] == ONE_C):
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
        _, lc = poly_leading(den)
        if not (lc == ONE_C):
            inv = lc.inverse()
            num = poly_scale(num, inv)
            den = poly_scale(den, inv)
        return Scalar(Scalar._pack(num), Scalar._pack(den), tuple(rad))

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_cyclotomic(c: Cyclotomic) -> "Scalar":
        return ZERO if c.is_zero() else Scalar((((), c),), _ONE_DEN)

    @staticmethod
    def rational(q) -> "Scalar":
        return Scalar.from_cyclotomic(Cyclotomic.from_rational(q))

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Scalar":
        return Scalar((((), Cyclotomic.zeta(n, k)),), _ONE_DEN)

    @staticmethod
    def sym(name: str) -> "Scalar":
        return Scalar(((((name, 1),), ONE_C),), _ONE_DEN)

    # -- views -------------------------------------------------------------
    def numd(self) -> dict:
        return dict(self.num)

    def dend(self) -> dict:
        return dict(self.den)

    def is_zero(self) -> bool:
        return not self.num

    # -- arithmetic --------------------------------------------------------
    def _sum(self, other: "Scalar", sign: int) -> "Scalar":
        """self + sign * other, sign 1 or -1."""
        if other.is_zero():
            return self
        if self.is_zero():
            return other if sign > 0 else -other
        if self.rad != other.rad:
            raise IrrationalSumError("adding scalars with different radical parts")
        if self.den == other.den:
            return Scalar.make(poly_add(self.numd(), other.numd(), sign), self.dend(), self.rad)
        a, b, c, d = self.numd(), self.dend(), other.numd(), other.dend()
        return Scalar.make(poly_add(poly_mul(a, d), poly_mul(c, b), sign), poly_mul(b, d),
                           self.rad)

    def __add__(self, other: "Scalar") -> "Scalar":
        return self._sum(other, 1)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self._sum(other, -1)

    def __neg__(self) -> "Scalar":
        # negating the coefficients keeps the order of the monomials
        return Scalar(tuple((m, -c) for m, c in self.num), self.den, self.rad)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        if len(self.num) == len(self.den) == len(other.num) == len(other.den) == 1:
            return self._monomial_times(other, 1)
        return Scalar.make(poly_mul(self.numd(), other.numd()),
                           poly_mul(self.dend(), other.dend()), self.rad + other.rad)

    def _monomial_times(self, other: "Scalar", k: int) -> "Scalar":
        """self * other^k, k = 1 or -1, for two monomials: one ``_monomial``
        call on the exponents of both."""
        ((m1, c1),), ((d1, _),) = self.num, self.den
        ((m2, c2),), ((d2, _),) = other.num, other.den
        return _monomial(((m1, 1), (d1, -1), (m2, k), (d2, -k)),
                         c1 * (c2 if k == 1 else c2.inverse()),
                         self.rad + tuple((b, k * e) for b, e in other.rad))

    def times_unit(self, n: int, k: int) -> "Scalar":
        """self * zeta_n^k, without the gcd of ``make``: a unit leaves num
        and den coprime, den monic and the monomials of num in place, so
        the product is already canonical."""
        if k % n == 0:
            return self
        return Scalar(tuple((m, c.times_zeta(n, k)) for m, c in self.num), self.den, self.rad)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if len(self.num) == len(self.den) == len(other.num) == len(other.den) == 1:
            return self._monomial_times(other, -1)
        return self * Scalar.make(other.dend(), other.numd(), tuple((b, -e) for b, e in other.rad))

    def __pow__(self, n: int) -> "Scalar":
        if n == 1:
            return self
        if len(self.num) == 1 and len(self.den) == 1:
            # a monomial: its exponents times n, its coefficient to the |n|
            ((m, c),), ((d, _),) = self.num, self.den
            c = _power(c, abs(n), ONE_C)
            return _monomial(((m, n), (d, -n)), c if n >= 0 else c.inverse(),
                             tuple((b, e * n) for b, e in self.rad))
        if n < 0:
            return ONE / (self ** (-n))
        return _power(self, n, ONE)

    def root(self, p: int) -> "Scalar":
        """Canonical p-th root; raises IrrationalRootError when the value
        is not a perfect power in the supported radical extension."""
        if p < 1:
            raise ValueError("root index must be >= 1")
        if p == 1 or self.is_zero():
            return self
        if len(self.num) == len(self.den) == 1:
            # a monomial: a root of unity, prime radicals and the symbol
            # exponents over p, which raised to the p-th power give self back
            # by construction, so this root needs no check
            ((m, c),), ((d, _),) = self.num, self.den
            if c.order == 1 and not self.rad:
                out = _perfect_power_root(m, d, c, p)
                if out is not None:
                    return out
            z, rad = _term_root(m, c, p)
            return _monomial((), z, [*((b, e / p) for b, e in self.rad), *rad,
                                     *((("sym", s), _exponent(-e, p)) for s, e in d)])
        npart, nrad = _poly_radical_root(self.numd(), p)
        dpart, drad = _poly_radical_root(self.dend(), p)
        out = Scalar.make(npart, dpart, [(b, e / p) for b, e in self.rad] + nrad
                          + [(b, -e) for b, e in drad])
        check = out ** p
        if check != self:
            raise IrrationalRootError(f"{render_scalar(self)} has no canonical {p}-th root (got {render_scalar(check)})")
        return out

    def sort_key(self):
        def poly_key(t):
            return tuple((m, c.sort_key()) for m, c in t)
        return (self.rad, poly_key(self.den), poly_key(self.num))

    def __repr__(self):
        return f"Scalar({render_scalar(self)})"


def _perfect_power_root(m, d, c: Cyclotomic, p: int):
    """The p-th root of the monomial c * m / d, c rational, when every
    exponent of m and d is a multiple of p and |c| is a p-th power of a
    rational, else None.  The exponents over p and the integer roots are
    the root; a negative sign is the torsion 1/2 over p, zeta_{2p}, as in
    ``_term_root``."""
    if any(e % p for _, e in m) or any(e % p for _, e in d):
        return None
    n, k = abs(c.num[0]), c.den
    rn, rk = _iroot(n, p), _iroot(k, p)
    if rn ** p != n or rk ** p != k:
        return None
    coef = Cyclotomic._raw(1, (rn,), rk)
    if c.num[0] < 0:
        coef = coef.times_zeta(2 * p, 1)
    return Scalar(((tuple((s, e // p) for s, e in m), coef),),
                  ((tuple((s, e // p) for s, e in d), ONE_C),))


def _monomial(parts, coef: Cyclotomic, rad=()) -> Scalar:
    """The canonical form of coef * prod(mono^k) * prod(base^x) over (mono,
    k) in parts and (base, x) in rad: coef is a nonzero Cyclotomic, k an
    int of either sign, x a Fraction or an int, and a base may come more
    than once.  The integer part of the summed exponent of a base moves
    into the symbol exponents, or into coef for a prime; then the positive
    symbol exponents make num and the negative ones den, coefficient 1."""
    rad, carries = _rad_merge(rad) if rad else ((), ())
    exps: dict = {}
    for (kind, key), k in carries:
        if kind == "sym":
            exps[key] = k
        else:
            coef = coef * Cyclotomic.from_rational(Fraction(key) ** k)
    for mono, k in parts:
        for s, e in mono:
            exps[s] = exps.get(s, 0) + e * k
    exps = sorted(exps.items())
    return Scalar(((tuple((s, e) for s, e in exps if e > 0), coef),),
                  ((tuple((s, -e) for s, e in exps if e < 0), ONE_C),), rad)


def _rad_merge(pairs):
    """Sum the exponents of the radical pairs (base, Fraction or int) per
    base.  Returns the canonical radical, sorted by base with every exponent in
    (0, 1), and the (base, int) carries of the integer parts, none when
    every sum stays in [0, 1)."""
    tot: dict = {}
    for b, e in pairs:
        tot[b] = tot[b] + e if b in tot else e
    rad, carries = [], []
    for b, e in sorted(tot.items()):
        fl = e.numerator // e.denominator
        if fl:
            carries.append((b, fl))
            e -= fl
        if e:
            rad.append((b, e))
    return tuple(rad), carries


def _poly_radical_root(a: dict, p: int):
    """p-th root of a polynomial allowing radical output: factors into
    monomial x cyclotomic-unit x rational x primitive-poly, roots each.
    A single term is its own monomial and coefficient, with no primitive
    part.  Returns (poly part, radical pairs) as ``_term_root`` does."""
    if not a:
        return {}, []
    if len(a) == 1:
        (gm, lc), = a.items()
        z, rad = _term_root(gm, lc, p)
        return {(): z}, rad
    gm = _mono_gcd_all(a)
    rest = poly_divexact(a, {gm: ONE_C}) if gm else a
    _, lc = poly_leading(rest)
    z, rad = _term_root(gm, lc, p)
    return poly_mul({(): z}, poly_root(poly_scale(rest, lc.inverse()), p)), rad


def _term_root(mono, c: Cyclotomic, p: int):
    """p-th root of the term c * mono, c a root of unity times a rational q:
    (a root of unity, radical pairs), each symbol of mono and each prime of
    q as (base, e/p), an int when p | e, whose integer parts `_monomial`
    carries."""
    ur = c.as_unit_times_rational()
    if ur is None:
        raise IrrationalRootError("coefficient is not unit times rational")
    q, t = ur
    t /= p
    # q is in lowest terms: a denominator prime has a negative exponent
    rad = [*((("sym", s), _exponent(e, p)) for s, e in mono),
           *((("prime", prime), _exponent(e, p)) for prime, e in _factor(q.numerator).items()),
           *((("prime", prime), _exponent(-e, p)) for prime, e in _factor(q.denominator).items())]
    return Cyclotomic.zeta(t.denominator, t.numerator), rad


# Trial division stops at this bound; every integer below its square is
# factored completely by it.
_TRIAL_LIMIT = 1 << 17
# The Miller-Rabin bases 2..41 decide primality exactly below this bound
# (Sorenson and Webster, 2017).
_MR_EXACT_BELOW = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 41 below _MR_EXACT_BELOW."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor(n: int) -> dict:
    """Prime factorization of |n|, exact and bounded in time.

    Trial division runs up to _TRIAL_LIMIT.  The cofactor left over has no
    prime factor below that limit; it is accepted when it is a prime, or a
    perfect power of a prime, proven by deterministic Miller-Rabin (exact
    below _MR_EXACT_BELOW).  Any other cofactor raises IrrationalRootError:
    it cannot be factored here, so no canonical radical can be formed.
    """
    n = abs(n)
    out: dict = {}
    d = 2
    while d * d <= n and d <= _TRIAL_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n <= 1:
        return out
    if d * d > n:
        out[n] = out.get(n, 0) + 1
        return out
    k = 1
    while _TRIAL_LIMIT ** k < n:
        r = _iroot(n, k)
        if r ** k == n and r < _MR_EXACT_BELOW and _is_prime(r):
            out[r] = out.get(r, 0) + k
            return out
        k += 1
    raise IrrationalRootError(
        f"cannot factor {n}: no prime factor below {_TRIAL_LIMIT} and not "
        f"a provable prime power")


ZERO = Scalar((), _ONE_DEN)
ONE = Scalar((((), ONE_C),), _ONE_DEN)


# ---------------------------------------------------------------------------
# Eigenvalue: torsion x free abelian word
# ---------------------------------------------------------------------------

class Eigenvalue:
    """exp(2 pi i k/n) * prod(sym^exp): ints 0 <= k < n, gcd(k, n) == 1, and
    ``word`` (symbol, exponent) pairs sorted by symbol, none zero, integral
    ones ints.  The constructor takes these as given; ``make`` normalizes."""

    __slots__ = ("k", "n", "word")

    def __init__(self, k: int = 0, n: int = 1, word: tuple = ()):
        self.k, self.n, self.word = k, n, word

    @staticmethod
    def make(torsion=0, word=()) -> "Eigenvalue":
        t = Fraction(torsion)
        return Eigenvalue(t.numerator % t.denominator, t.denominator, _word(word))

    @staticmethod
    def one() -> "Eigenvalue":
        return ONE_EIG

    @staticmethod
    def minus_one() -> "Eigenvalue":
        return MINUS_ONE_EIG

    @staticmethod
    def sym(name: str) -> "Eigenvalue":
        return Eigenvalue(0, 1, ((name, 1),))

    @property
    def torsion(self) -> Fraction:
        return Fraction(self.k, self.n)

    def __mul__(self, other: "Eigenvalue") -> "Eigenvalue":
        n = self.n * other.n
        k = (self.k * other.n + other.k * self.n) % n
        g = gcd(k, n)
        w1, w2 = self.word, other.word
        return Eigenvalue(k // g, n // g, _word(w1 + w2) if w1 and w2 else w1 or w2)

    def __truediv__(self, other: "Eigenvalue") -> "Eigenvalue":
        return self * other.inverse()

    def inverse(self) -> "Eigenvalue":
        return Eigenvalue(-self.k % self.n, self.n, tuple((s, -e) for s, e in self.word))

    def pow(self, r) -> "Eigenvalue":
        """self^r for an int or a Fraction r."""
        a, b = r.numerator, r.denominator
        n = self.n * b
        k = self.k * a % n
        g = gcd(k, n)
        return Eigenvalue(k // g, n // g,
                          tuple((s, x) for s, e in self.word if (x := _exponent(e * a, b))))

    def is_one(self) -> bool:
        return not self.k and not self.word

    def to_cyclotomic(self) -> Cyclotomic:
        if self.word:
            raise ValueError("eigenvalue with formal symbols has no cyclotomic value")
        return Cyclotomic.zeta(self.n, self.k)

    def sort_key(self):
        return (self.word, self.torsion)

    def __eq__(self, other):
        return (isinstance(other, Eigenvalue) and self.k == other.k and self.n == other.n
                and self.word == other.word)

    def __hash__(self):
        return hash((self.k, self.n, self.word))

    def __repr__(self):
        return f"Eigenvalue({render_eigenvalue(self)})"


def _exponent(x, b: int = 1):
    """x / b, x an int or a Fraction and b >= 1, as an int when integral."""
    if type(x) is int and x % b == 0:
        return x // b
    x = Fraction(x, b)
    return x.numerator if x.denominator == 1 else x


def _word(pairs) -> tuple:
    """The canonical word of the product of sym^e over (sym, e) in pairs."""
    w = {}
    for s, e in pairs:
        w[s] = w.get(s, 0) + e
    return tuple(sorted((s, _exponent(e)) for s, e in w.items() if e))


ONE_EIG, MINUS_ONE_EIG = Eigenvalue(), Eigenvalue(1, 2)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_cyclotomic(c: Cyclotomic) -> str:
    if c.is_zero():
        return "0"
    ur = c.as_unit_times_rational()
    if ur is not None:
        q, t = ur
        parts = []
        if t == Fraction(1, 2):
            q = -q
            t = Fraction(0)
        if q != 1 or t == 0:
            parts.append(render_fraction(q))
        if t:
            parts.append(_zeta_text(t.denominator, t.numerator))
        return "*".join(parts)
    terms = [_term(render_fraction(co), _zeta_text(c.order, k) if k else "")
             for k, co in enumerate(c.coords) if co]
    out = _signed_sum(terms)
    return f"({out})" if len(terms) > 1 else out


def _zeta_text(n: int, k: int) -> str:
    return f"zeta({n})" + (f"^{k}" if k != 1 else "")


def _term(cs: str, ms: str) -> str:
    """The term with coefficient text cs and monomial text ms ("" for 1)."""
    return ({"1": "", "-1": "-"}.get(cs, cs + "*") + ms) if ms else cs


def _signed_sum(terms: list) -> str:
    """The terms joined by +, a term that starts with - keeping its sign."""
    return terms[0] + "".join(t if t.startswith("-") else "+" + t for t in terms[1:])


def _render_mono(m) -> str:
    return "*".join(s + (f"^{e}" if e != 1 else "") for s, e in m)


def _render_poly(d: dict) -> str:
    if not d:
        return "0"
    items = sorted(d.items(), key=lambda t: mono_key(t[0]))
    return _signed_sum([_term(render_cyclotomic(c), _render_mono(m)) for m, c in items])


def render_scalar(s: Scalar) -> str:
    if s.is_zero():
        return "0"
    numd, dend = s.numd(), s.dend()
    num = _render_poly(numd)
    if len(numd) > 1:
        num = f"({num})"
    parts = [num]
    if dend != {(): ONE_C}:
        den = _render_poly(dend)
        if len(dend) > 1:
            den = f"({den})"
        parts[0] = f"{num}/{den}"
    for (kind, key), e in s.rad:
        base = key if kind == "sym" else str(key)
        parts.append(f"{base}^({render_fraction(e)})")
    return "*".join(parts)


def render_eigenvalue(e: Eigenvalue) -> str:
    parts = []
    if e.n == 2:
        parts.append("-1")
    elif e.k:
        parts.append(_zeta_text(e.n, e.k))
    for s, ex in e.word:
        if ex == 1:
            parts.append(s)
        elif type(ex) is int:
            parts.append(f"{s}^{ex}")
        else:
            parts.append(f"{s}^({render_fraction(ex)})")
    if not parts:
        return "1"
    if parts[0] == "-1" and len(parts) > 1:
        return "-" + "*".join(parts[1:])
    return "*".join(parts)


# ---------------------------------------------------------------------------
# parsing (shared expression grammar)
# ---------------------------------------------------------------------------

def split_top(text: str, sep: str) -> list:
    """Split text at each sep outside brackets: ``(``/``[`` open a level
    and ``)``/``]`` close one.  Pieces are not stripped; empty ones are kept."""
    depth = 0
    cur = ""
    out = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            out.append(cur)
            cur = ""
            continue
        cur += ch
    out.append(cur)
    return out


def ascii_int(text: str) -> int:
    """int(text), read only from ASCII digits after an optional minus."""
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise ValueError(f"integer must be written in ASCII digits 0-9, got {text!r}")


class _Tok:
    """A text read by the expression grammar: the position, the reading and
    the depth of the open parentheses."""

    def __init__(self, text: str, reading: "Reading"):
        self.text, self.pos, self.reading, self.depth = text, 0, reading, 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch=None):
        c = self.peek()
        if ch and c != ch:
            raise ValueError(f"expected {ch!r} at {self.pos} in {self.text!r}")
        self.pos += 1
        return c

    def run(self, ok) -> str:
        """The longest run of characters ch with ok(ch), after spaces."""
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and ok(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos]

    def number(self) -> int:
        return ascii_int(self.run(str.isdigit))


# The grammar recurses once per level of parentheses; deeper input is an
# error, not a RecursionError.
_MAX_DEPTH = 64


class Reading(NamedTuple):
    """What the leaves and operations of the one expression grammar mean:
    ``expr = term (('+' | '-') term)*``, ``term = factor (('*' | '/')
    factor)*``, ``factor = ('+' | '-')* atom ['^' exponent]``, ``atom = '('
    expr ')' | integer | zeta(n)['^' exponent] | symbol``, an exponent n,
    -n or (a/b).  ``*``, ``/``, ``+`` and ``-`` are the values' own; the
    expr loop runs only when ``adds``."""

    what: str            # the sort read, for messages
    integer: Callable    # n -> value
    symbol: Callable     # name -> value
    zeta: Callable       # (n, Fraction e) -> zeta_n^e
    power: Callable      # (value, Fraction e) -> value^e
    negate: Callable
    adds: bool


def _eigenvalue_integer(n: int) -> "Eigenvalue":
    if n == 1:
        return ONE_EIG
    raise ValueError("eigenvalue cannot be zero" if n == 0 else
                     "only 1 and roots of unity are numeric eigenvalues")


def _scalar_power(v: Scalar, e: Fraction) -> Scalar:
    v = v ** e.numerator
    return v if e.denominator == 1 else v.root(e.denominator)


# an integer power of zeta is a table lookup, a fractional one a root of it
SCALAR = Reading("scalar", Scalar.rational, Scalar.sym,
                 lambda n, e: Scalar.zeta(n, e.numerator).root(e.denominator),
                 _scalar_power, Scalar.__neg__, True)
EIGENVALUE = Reading("eigenvalue", _eigenvalue_integer,
                     lambda name: Eigenvalue(1, 4) if name == "i" else Eigenvalue.sym(name),
                     lambda n, e: Eigenvalue(1 % n, n).pow(e), Eigenvalue.pow,
                     lambda v: v * MINUS_ONE_EIG, False)


def parse_expression(text: str, reading: Reading):
    tok = _Tok(text, reading)
    v = _parse_expr(tok)
    if tok.peek():
        raise ValueError(f"trailing input in {reading.what} {text!r}")
    return v


def parse_scalar(text: str) -> Scalar:
    return parse_expression(text, SCALAR)


def parse_eigenvalue(text: str) -> Eigenvalue:
    return parse_expression(text, EIGENVALUE)


def _parse_expr(tok: _Tok):
    v = _parse_term(tok)
    while tok.reading.adds and tok.peek() and tok.peek() in "+-":
        op = tok.take()
        t = _parse_term(tok)
        v = v + t if op == "+" else v - t
    return v


def _parse_term(tok: _Tok):
    v = _parse_factor(tok)
    while tok.peek() and tok.peek() in "*/":
        op = tok.take()
        f = _parse_factor(tok)
        v = v * f if op == "*" else v / f
    return v


def _parse_factor(tok: _Tok):
    neg = False
    while tok.peek() and tok.peek() in "+-":
        neg ^= tok.take() == "-"
    base = _parse_atom(tok)
    if tok.peek() == "^":
        base = tok.reading.power(base, _parse_exponent(tok))
    return tok.reading.negate(base) if neg else base


def _parse_exponent(tok: _Tok) -> Fraction:
    """The exponent after a ``^``: n, -n, (n), (-n) or (a/b), a may be negative."""
    tok.take("^")
    paren = tok.peek() == "("
    if paren:
        tok.take()
    sign = -1 if tok.peek() == "-" and tok.take() else 1
    n = tok.number()
    d = tok.number() if paren and tok.peek() == "/" and tok.take() else 1
    if paren:
        tok.take(")")
    return Fraction(sign * n, d)


def _parse_atom(tok: _Tok):
    c, rd = tok.peek(), tok.reading
    if c == "(":
        if tok.depth == _MAX_DEPTH:
            raise ValueError(f"parentheses nested deeper than {_MAX_DEPTH} in {rd.what} "
                             f"{tok.text!r}")
        tok.take()
        tok.depth += 1
        v = _parse_expr(tok)
        tok.depth -= 1
        tok.take(")")
        return v
    if c.isdigit():
        return rd.integer(tok.number())
    name = tok.run(lambda ch: ch.isalnum() or ch == "_")
    if not name:
        raise ValueError(f"parse error at {tok.pos} in {rd.what} {tok.text!r}")
    if name != "zeta":
        return rd.symbol(name)
    tok.take("(")
    n = tok.number()
    tok.take(")")
    if n < 1:
        raise ValueError(f"zeta({n}) needs an order of at least 1 in {tok.text!r}")
    return rd.zeta(n, _parse_exponent(tok) if tok.peek() == "^" else Fraction(1))
