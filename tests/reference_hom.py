"""Hom(E1, E2) on the common cover, an independent oracle for the slopes
and the irregularity of ``el_hom`` and ``hom_counts``.  It uses no gcd, no
reduction to minimal ramification and no orbit minimum, only
``Scalar.times_unit`` and scalar subtraction, and takes the modules as
given, normal or not.

Pull both modules back along w -> w^N, N = p1*p2.  There [N]^*El(p, phi, R)
splits into the p exponential factors phi(zeta_p^k w^(N/p)), k mod p, each
carrying the pullback of R (Levelt-Turrittin).  So [N]^*Hom(E1, E2) is the
sum over (k1, k2) of the factor with exponent phi2(zeta_p2^k2 .) -
phi1(zeta_p1^k1 .), of rank rk R1 * rk R2.  A factor whose exponent has
pole order m in w has slope m/N downstairs, and irr Hom(E1, E2) is the sum
of slope times rank.

``jordan_soln`` is dim Soln of Hom(E1, E2) by tensoring Jordan data,
the route ``hom_counts`` took before it read block pairs: the invariants
of [n/p1]^*R1^vee (x) [n/p2]^*R2, n = lcm(p1, p2), once per regular
summand, their number read from the slope-0 part of ``cover_slopes``.

``cover_soln`` is dim Soln of Hom(E1, E2) for p1 = p2 = p by adjunction on
the cover u^p: Hom([p]_*A1, [p]_*A2) = Hom([p]^*[p]_*A1, A2) for
A = E^phi (x) R, and [p]^*[p]_*A1 is the sum of the p deck rotations of
A1, each with R1 unchanged (a regular connection on the punctured disc is
isomorphic to its rotation).  So dim Soln is the number of k mod p with
phi2 - phi1(zeta_p^k .) = 0, by subtraction, times dim Hom(R1, R2), the
invariants of R1^vee (x) R2.

``cover_exterior_slopes`` is Lambda^k of a piece El(p, phi, (lam)) on the
same cover, with no orbit of subsets and no stabilizer: one factor per
k-subset S of Z/p, with exponent the sum over S of the factors of [p]^*e.

``hom_module`` and ``exterior_cube_module`` build Hom and Lambda^3 as
modules through ``FormalType.tensor``, for the laws that compare modules:
the engine only counts them.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from katz_forge.formal_type import FormalType, _cube_terms
from katz_forge.jordan import JordanData
from katz_forge.scalars import ZERO


def _factor(e, n: int, k: int) -> dict:
    """The exponent of the k-th factor of [n]^*e: the term a/u^j becomes
    a zeta_p^(-jk) / w^(j n/p)."""
    m = n // e.p
    return {j * m: a.times_unit(e.p, -j * k % e.p) for j, a in e.tail}


def cover_slopes(e1, e2) -> dict:
    """slope -> dimension of that slope part of Hom(E1, E2)."""
    n = e1.p * e2.p
    dim = e1.r.rank() * e2.r.rank()
    out: dict = {}
    for k1 in range(e1.p):
        phi1 = _factor(e1, n, k1)
        for k2 in range(e2.p):
            diff = _factor(e2, n, k2)
            for j, a in phi1.items():
                diff[j] = diff.get(j, ZERO) - a
            order = max((j for j, a in diff.items() if not a.is_zero()), default=0)
            slope = Fraction(order, n)
            out[slope] = out.get(slope, 0) + dim
    return out


def cover_irregularity(e1, e2) -> Fraction:
    return sum((s * d for s, d in cover_slopes(e1, e2).items()), Fraction(0))


def cover_soln(e1, e2) -> int:
    """dim Soln of Hom(E1, E2) for modules on covers of one order p."""
    if e1.p != e2.p:
        raise ValueError("cover_soln needs p1 = p2")
    same = 0
    for k in range(e1.p):
        diff = dict(e2.tail)
        for j, a in _factor(e1, e1.p, k).items():
            diff[j] = diff.get(j, ZERO) - a
        same += all(a.is_zero() for a in diff.values())
    return same * e1.r.dual().tensor(e2.r).invariants_dim()


def cover_exterior_slopes(e, k: int) -> dict:
    """slope -> dimension of that slope part of Lambda^k of a piece e whose
    R has rank 1: a factor of pole order m in w has slope m/p."""
    out: dict = {}
    for s in combinations(range(e.p), k):
        exponent: dict = {}
        for i in s:
            for j, a in _factor(e, e.p, i).items():
                exponent[j] = exponent.get(j, ZERO) + a
        order = max((j for j, a in exponent.items() if not a.is_zero()), default=0)
        slope = Fraction(order, e.p)
        out[slope] = out.get(slope, 0) + 1
    return out


def jordan_soln(e1, e2) -> Fraction:
    a, b = e1.normalize(), e2.normalize()
    n = lcm(a.p, b.p)
    rr = a.r.dual().pull(n // a.p).tensor(b.r.pull(n // b.p))
    regular = Fraction(cover_slopes(e1, e2).get(Fraction(0), 0), n * rr.rank())
    return regular * rr.invariants_dim()


def hom_module(a, b):
    """Hom(A, B) as a module: B (x) A^vee."""
    return b.tensor(a.dual())


def exterior_cube_module(ft):
    """Lambda^3 of ft as a module: each term of ``_cube_terms`` tensored out
    and summed."""
    total = FormalType.make(JordanData.zero())
    for head, last, _ in _cube_terms(ft):
        total = total + (last if head is None else head.tensor(last))
    return total
