"""Reference cyclotomic arithmetic for the differential tests.

A verbatim copy of the ``Cyclotomic`` core that ``katz_forge.scalars``
used before its canonical form descended through maximal subfields:
``_canonical`` solves a linear system against every proper divisor of the
order, ``_lift`` sums one power-basis row per coordinate, and
``as_unit_times_rational`` multiplies by the inverse of every root of
unity.  It is slow and simple on purpose; ``tests/test_cyclotomic.py``
requires the package's ``Cyclotomic`` to agree with it value for value.
Nothing in ``src/`` imports this module.
"""

from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Dense coefficient tuple (low degree first) of Phi_n over Q."""
    if n == 1:
        return (Fraction(-1), Fraction(1))
    # x^n - 1 divided by prod of Phi_d for proper divisors d
    num = [Fraction(0)] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    for d in range(1, n):
        if n % d == 0:
            num = _dense_divexact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _dense_divexact(a: list, b: list) -> list:
    a = a[:]
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        out[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    assert all(x == 0 for x in a[: len(b) - 1])
    return out


@lru_cache(maxsize=None)
def _euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _zeta_power(n: int, k: int) -> tuple:
    """Coordinates of zeta_n^k in the power basis of Q(zeta_n)."""
    k %= n
    phi = _euler_phi(n)
    dense = [Fraction(0)] * (k + 1)
    dense[k] = Fraction(1)
    dense = _reduce_mod_phi(dense, n)
    dense += [Fraction(0)] * (phi - len(dense))
    return tuple(dense[:phi])


def _reduce_mod_phi(dense: list, n: int) -> list:
    phi = list(cyclotomic_poly(n))
    d = len(phi) - 1
    dense = dense[:]
    for i in range(len(dense) - 1, d - 1, -1):
        c = dense[i]
        if c:
            dense[i] = Fraction(0)
            for j in range(d):
                dense[i - d + j] -= c * phi[j]
    while len(dense) > d:
        dense.pop()
    while len(dense) < d:
        dense.append(Fraction(0))
    return dense


def _solve_linear(rows, rhs):
    """Solve A x = b over Q; A given as list of rows. Returns None if
    inconsistent, else one solution (free vars set to 0)."""
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    nrows, ncols = len(m), len(m[0]) - 1
    piv_cols = []
    r = 0
    for c in range(ncols):
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
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(piv_cols):
        x[c] = m[i][-1]
    return x


@lru_cache(maxsize=None)
def _subfield_basis(n: int, m: int) -> tuple:
    """Columns: coordinates in Q(zeta_n) of the power basis of Q(zeta_m)."""
    step = n // m
    return tuple(_zeta_power(n, step * k) for k in range(_euler_phi(m)))


class Cyclotomic:
    """Element of a cyclotomic field in canonical form.

    Stored as (order n, coordinates in the power basis of Q(zeta_n)), with
    n minimal: an element lying in Q(zeta_m) for m | n is re-expressed at
    order m.  Zero has order 1.
    """

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords):
        self.order = order
        self.coords = tuple(Fraction(c) for c in coords)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(q),))

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        return Cyclotomic._make(n, list(_zeta_power(n, k)))

    @staticmethod
    def _make(n: int, dense) -> "Cyclotomic":
        dense = _reduce_mod_phi(list(dense), n)
        return Cyclotomic._canonical(n, dense)

    @staticmethod
    def _canonical(n: int, coords) -> "Cyclotomic":
        if all(c == 0 for c in coords):
            return Cyclotomic(1, (Fraction(0),))
        for m in sorted(d for d in range(1, n + 1) if n % d == 0):
            if m == n:
                break
            cols = _subfield_basis(n, m)
            rows = [[col[i] for col in cols] for i in range(_euler_phi(n))]
            sol = _solve_linear(rows, list(coords))
            if sol is not None:
                return Cyclotomic(m, sol)
        return Cyclotomic(n, coords)

    def _lift(self, n: int) -> list:
        """Dense coords of self inside Q(zeta_n) (self.order | n)."""
        step = n // self.order
        dense = [Fraction(0)] * _euler_phi(n)
        for k, c in enumerate(self.coords):
            if c:
                zp = _zeta_power(n, step * k)
                for i, v in enumerate(zp):
                    dense[i] += c * v
        return dense

    # -- arithmetic --------------------------------------------------------
    def _binop(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        n = _lcm(self.order, other.order)
        return n, self._lift(n), other._lift(n)

    def __add__(self, other):
        n, a, b = self._binop(other)
        return Cyclotomic._canonical(n, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        n, a, b = self._binop(other)
        return Cyclotomic._canonical(n, [x - y for x, y in zip(a, b)])

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.coords))

    def __mul__(self, other):
        n, a, b = self._binop(other)
        prod = [Fraction(0)] * (2 * len(a))
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Cyclotomic._make(n, prod)

    __radd__ = __add__
    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic inverse of zero")
        n = self.order
        phi = _euler_phi(n)
        a = self._lift(n)
        # columns of multiplication-by-a matrix
        cols = []
        for k in range(phi):
            col = [Fraction(0)] * (phi + k)
            for i, x in enumerate(a):
                col[i + k] += x
            cols.append(_reduce_mod_phi(col, n))
        rows = [[cols[c][r] for c in range(phi)] for r in range(phi)]
        rhs = [Fraction(1)] + [Fraction(0)] * (phi - 1)
        sol = _solve_linear(rows, rhs)
        assert sol is not None
        return Cyclotomic._canonical(n, sol)

    def __truediv__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        return self * other.inverse()

    def galois(self, j: int) -> "Cyclotomic":
        """Apply zeta -> zeta^j (j coprime to the order)."""
        n = self.order
        dense = [Fraction(0)] * _euler_phi(n)
        for k, c in enumerate(self.coords):
            if c:
                zp = _zeta_power(n, j * k)
                for i, v in enumerate(zp):
                    dense[i] += c * v
        return Cyclotomic._canonical(n, dense)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return self.order == 1 and self.coords[0] == 0

    def is_rational(self) -> bool:
        return self.order == 1

    def rational_value(self) -> Fraction:
        assert self.order == 1
        return self.coords[0]

    def as_unit_times_rational(self):
        """Return (q, torsion) with self = q * e^(2 pi i torsion), q rational
        positive... q may be any nonzero rational; torsion in [0,1).
        None if self is not rational times a root of unity."""
        if self.is_zero():
            return None
        n = self.order if self.order % 2 == 0 else 2 * self.order
        for k in range(n):
            z = Cyclotomic.zeta(n, k)
            q = self * z.inverse()
            if q.is_rational():
                qv = q.rational_value()
                t = Fraction(k, n)
                if qv < 0:
                    qv, t = -qv, (t + Fraction(1, 2)) % 1
                return qv, t % 1
        return None

    def sort_key(self):
        return (self.order, self.coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        return isinstance(other, Cyclotomic) and self.order == other.order and self.coords == other.coords

    def __hash__(self):
        return hash((self.order, self.coords))

    def __repr__(self):
        return f"Cyclotomic({render_cyclotomic(self)})"


def _lcm(a: int, b: int) -> int:
    from math import gcd
    return a // gcd(a, b) * b


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
            n, k = t.denominator, t.numerator
            parts.append(f"zeta({n})" + (f"^{k}" if k != 1 else ""))
        return "*".join(parts)
    terms = []
    n = c.order
    for k, co in enumerate(c.coords):
        if co == 0:
            continue
        if k == 0:
            terms.append(render_fraction(co))
        else:
            z = f"zeta({n})" + (f"^{k}" if k != 1 else "")
            if co == 1:
                terms.append(z)
            elif co == -1:
                terms.append(f"-{z}")
            else:
                terms.append(f"{render_fraction(co)}*{z}")
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return f"({out})" if len(terms) > 1 else out


