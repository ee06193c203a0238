"""The local Fourier transforms and the monomial root as they were before
each transform took one root in coefficient-one coordinates, kept as a
differential oracle.

``term_root`` is the root of one term over one term by ``_term_root``:
the prime factors of the coefficient and the symbol exponents over p,
carried by ``_monomial``.  ``sabbah_transform_raw`` builds the module on
the cover (p/(q a)) u^(p+q) and substitutes that cover away, a root of
the cover coefficient; ``lft_inf_to_s`` takes the root of each factor
of the inverse coefficient; ``epsilon_twist_inf`` substitutes the cover
-u^p away, a root of -1."""

from fractions import Fraction

from katz_forge import scalars
from katz_forge.elementary import ElementaryModule
from katz_forge.fourier import _single_term
from katz_forge.scalars import ONE, Eigenvalue, Scalar


def term_root(x: Scalar, p: int) -> Scalar:
    """The p-th root of the monomial x, p >= 2."""
    ((m, c),), ((d, _),) = x.num, x.den
    z, rad = scalars._term_root(m, c, p)
    return scalars._monomial((), z, [*((b, e / p) for b, e in x.rad), *rad,
                                     *((("sym", s), scalars._exponent(-e, p)) for s, e in d)])


def sabbah_transform_raw(e: ElementaryModule) -> ElementaryModule:
    e = e.normalize()
    q, a = _single_term(e)
    p = e.p
    tail = {q: Scalar.rational(Fraction(p + q, p)) * a}
    r = e.r.scale(Eigenvalue.make(Fraction(q, 2)))
    return ElementaryModule.make(p + q, tail, r, Scalar.rational(Fraction(p, q)) / a)


def lft_inf_to_s(e: ElementaryModule):
    """The inverse transform of a slope-(<1) piece at infinity."""
    e = e.normalize()
    q = e.q()
    p0 = e.p - q
    _, ahat = _single_term(e)
    base = ahat * Scalar.rational(Fraction(p0, e.p))
    a0 = (base ** e.p).root(p0) * (Scalar.rational(Fraction(q, p0)) ** q).root(p0)
    r0 = e.r.scale(Eigenvalue.make(Fraction(q, 2)))
    return Scalar.rational(0), ElementaryModule.make(p0, {q: a0}, r0).normalize()


def epsilon_twist_inf(e: ElementaryModule) -> ElementaryModule:
    e = e.normalize()
    return ElementaryModule.make(e.p, e.tail, e.r, -ONE)
