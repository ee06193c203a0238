"""Local Fourier transforms of formal data.

Conventions are pinned so that the construction schemes replay verbatim:

* the vanishing data at a finite point s travels one piece at a time, a
  regular payload V as the piece El(1, 0, V), and the slot of s carries
  the exponential s/theta: El(1, 0, V) at s becomes El(1, s/theta, V) at
  infinity of the transform;
* for an irregular elementary input the transform of El(u^p, a/u^q, R) is
  El((p/(q a)) u^(p+q), ((p+q)/p) a / u^q, R (x) L_q) with L_q the rank-one
  twist by (-1)^q;
* slope-(<1) and regular content at infinity returns to the finite point 0,
  slope-1 unramified content El(1, c/theta, R) returns to the finite point
  c as the regular piece El(1, 0, R);
* both directions read the transformed coefficient in coefficient-one
  coordinates, with one root per piece: from 0 the (p+q)-th root of
  ((p+q)/p)^(p+q) (p/q)^q a^p, and at infinity the root that inverts it.
  Any root of that power gives the same normal form, because the deck
  rotations reach them all;
* the epsilon twist z -> -z at infinity is the substitution u -> zeta_{2p} u.

The paper's sources use conflicting global signs; these choices reproduce
every replay table bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, Eigenvalue, OutOfScopeError
from .jordan import JordanData
from .elementary import ElementaryModule


def vanishing_data(j: JordanData) -> JordanData:
    """Vanishing cycles of a regular nearby monodromy at a finite point
    (minimal extension): eigenvalue-1 blocks lose one dimension."""
    out = []
    for e, s in j.blocks:
        if e.is_one():
            if s > 1:
                out.append((e, s - 1))
        else:
            out.append((e, s))
    return JordanData.make(out)


def nearby_from_vanishing(j: JordanData, rank: int) -> JordanData:
    """Inverse of vanishing_data: eigenvalue-1 blocks gain one dimension,
    and eigenvalue-1 blocks J(1) pad the result up to `rank`.  Data that
    needs more than `rank` is returned unpadded, so the caller reads the
    rank it needs from the result."""
    out = [(e, s + 1) if e.is_one() else (e, s) for e, s in j.blocks]
    out.extend([(Eigenvalue.one(), 1)] * max(0, rank - sum(s for _, s in out)))
    return JordanData.make(out)


def _single_term(e: ElementaryModule):
    if len(e.tail) != 1:
        raise OutOfScopeError(
            "local Fourier transform of multi-term tails is outside the "
            "supported calculus")
    (q, a), = e.tail
    return q, a


def sabbah_transform_raw(e: ElementaryModule) -> ElementaryModule:
    """F^(0,infty) of an irregular elementary module, *not* normalized (so
    a shift term can still be attached at the top pole order).

    In coefficient-one coordinates the tail ((p+q)/p) a on the cover
    (p/(q a)) u^(p+q) is b = (k a^p)^(1/(p+q)), k = ((p+q)/p)^(p+q) (p/q)^q,
    up to a (p+q)-th root of unity.  The normal input has gcd(p, q) = 1, so
    the deck rotations multiply b by every (p+q)-th root of unity, and all
    these b share one normal form; a shift at pole order p+q is fixed by
    every rotation."""
    e = e.normalize()
    if e.is_regular():
        raise OutOfScopeError("regular input: use the vanishing-cycle path")
    q, a = _single_term(e)
    p = e.p
    k = Fraction(p + q, p) ** (p + q) * Fraction(p, q) ** q
    b = (Scalar.rational(k) * a ** p).root(p + q)
    r = e.r.scale(Eigenvalue.make(Fraction(q, 2)))
    return ElementaryModule.make(p + q, {q: b}, r)


def lft_zero_to_inf(e: ElementaryModule) -> ElementaryModule:
    return sabbah_transform_raw(e).normalize()


def lft_shifted(e: ElementaryModule, s: Scalar) -> ElementaryModule:
    """F^(s,infty): the raw slot module at infinity of one piece e of the
    vanishing data at the finite point s.  A regular piece El(1, 0, V)
    becomes El(1, s/theta, V); in coefficient-one coordinates the shift s/c
    at pole order p is s itself, the substitution multiplying it by
    g^p = c.  A zero shift drops out of the tail."""
    raw = e if e.is_regular() else sabbah_transform_raw(e)
    return ElementaryModule.make(raw.p, {**raw.taild(), raw.p: s}, raw.r)


def epsilon_twist_inf(e: ElementaryModule) -> ElementaryModule:
    """Pullback along z -> -z of a piece of an infinity formal type: the
    same module on the cover -u^p, which is the substitution
    u -> zeta_{2p} u, zeta_{2p}^p = -1, multiplying the term of pole order
    j by zeta_{2p}^j.  The result is raw."""
    e = e.normalize()
    return ElementaryModule(e.p, tuple((j, a.times_unit(2 * e.p, j)) for j, a in e.tail), e.r)


def lft_inf_to_s(e: ElementaryModule):
    """Inverse transform of a slope-(<=1) piece of an infinity formal type.
    Returns (location Scalar, payload), the payload one piece of the
    vanishing data there: a regular piece returns to 0 as it is, a slope-1
    unramified piece El(1, c/theta, V) to c as El(1, 0, V)."""
    e = e.normalize()
    q = e.q()
    if q == 0:
        return Scalar.rational(0), e
    if q > e.p:
        raise OutOfScopeError("slope > 1 at infinity is out of scope")
    if q == e.p:
        if e.p != 1:
            raise OutOfScopeError("ramified slope-1 content at infinity is out of scope")
        return dict(e.tail)[1], ElementaryModule.make(1, {}, e.r)
    # slope < 1: invert the Sabbah formulas; the content came from 0
    p0 = e.p - q
    _, ahat = _single_term(e)
    # one p0-th root: gcd(q, p0) = gcd(q, p) = 1, so the deck rotations
    # reach every p0-th root of the product and all share one normal form
    base = ahat * Scalar.rational(Fraction(p0, e.p))
    a0 = (base ** e.p * Scalar.rational(Fraction(q, p0) ** q)).root(p0)
    r0 = e.r.scale(Eigenvalue.make(Fraction(q, 2)))
    return Scalar.rational(0), ElementaryModule.make(p0, {q: a0}, r0).normalize()
