"""Elementary modules El(rho, phi, R).

El(rho, phi, R) is the pushforward along the ramified cover rho(u) = c*u^p
of the exponential twist E^phi tensored with a regular connection R.  The
tail phi is kept mod regular terms, as a map {pole order j >= 1 -> Scalar}.

Only coefficient 1 is stored: a cover c*u^p is read by substituting
u -> g*u with g the canonical p-th root of c, which multiplies the tail
term of pole order j by g^j.  Canonical form is minimal ramification and
the lexicographically minimal representative of the zeta_p-orbit of the
tail.

Invariant: a module whose ``normal`` flag is set is in canonical form, and
``normalize`` returns it unchanged.  Only ``normalize`` sets the flag (and
``FormalType.make`` on a merge of two normal members with the same tail,
and ``scale_eigenvalues``, which keeps it: both change R alone);
``ElementaryModule.make``, the parsers and every other constructor build
raw modules.  The flag takes no part in equality or hashing, so a raw
module and its equal normal form compare and hash equal.

Isomorphism testing, duals, determinants,
Hom decomposition (Sabbah) and its counts, reduction to minimal form and
Kummer pullback all live here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .scalars import (Scalar, Eigenvalue, ZERO, ONE, SCALAR, IrrationalSumError,
                      ascii_int, render_scalar, parse_expression, split_top)
from .jordan import JordanData, render_jordan, parse_jordan, require_int


def _tail_pack(tail: dict) -> tuple:
    return tuple(sorted((require_int(j, "pole order"), a) for j, a in tail.items()
                        if not a.is_zero()))


def _pos_key(s: Scalar):
    """Scalar ordering that prefers positive rational parts, so canonical
    orbit representatives read naturally (a1 before -a1).  It reads integer
    numerators: ``_orbit_min`` compares rotations of one scalar, which keep
    each coefficient's denominator, so at equal order they order as the
    coordinates do."""
    def poly_key(t):
        return tuple((m, c.order, tuple((x < 0, abs(x)) for x in c.num))
                     for m, c in t)
    return (s.rad, poly_key(s.den), poly_key(s.num))


@dataclass(frozen=True)
class ElementaryModule:
    p: int
    tail: tuple  # ((pole order j, Scalar coefficient), ...), j >= 1
    r: JordanData
    normal: bool = field(default=False, compare=False, repr=False)

    @staticmethod
    def make(p: int, tail, r: JordanData, c: Scalar = ONE) -> "ElementaryModule":
        """The module on the cover c*u^p, with c substituted away."""
        if require_int(p, "p") < 1:
            raise ValueError(f"ramification order p must be at least 1, got {p}")
        if c.is_zero():
            raise ValueError("ramification coefficient must be nonzero")
        if isinstance(tail, dict):
            tail = _tail_pack(tail)
        if c != ONE:
            g = c.root(p)
            tail = tuple((j, a * g ** j) for j, a in tail)
        if tail and tail[0][0] < 1:
            raise ValueError(f"pole order must be at least 1, got {tail[0][0]}")
        if not r.rank():
            raise ValueError("elementary module needs a regular part R of rank >= 1")
        return ElementaryModule(p, tail, r)

    def taild(self) -> dict:
        return dict(self.tail)

    def q(self) -> int:
        return max((j for j, _ in self.tail), default=0)

    def rank(self) -> int:
        return self.p * self.r.rank()

    def slope(self) -> Fraction:
        return Fraction(self.q(), self.p)

    def irregularity(self) -> int:
        return self.r.rank() * self.q()

    def is_regular(self) -> bool:
        return not self.tail

    # -- canonical form ------------------------------------------------------
    def normalize(self) -> "ElementaryModule":
        """Reduced to minimal inner ramification, with the canonical
        zeta_p-orbit representative of the tail."""
        if self.normal:
            return self
        e = self._reduce()._orbit_min()
        # the flag records a property of the value, which is why it may be
        # set on an existing (possibly shared) instance
        object.__setattr__(e, "normal", True)
        return e

    def _reduce(self) -> "ElementaryModule":
        # p and the pole orders over m have gcd 1: one division is minimal
        m = gcd(self.p, *(j for j, _ in self.tail))
        if m == 1:
            return self
        return ElementaryModule.make(self.p // m, {j // m: a for j, a in self.tail},
                                     self.r.push(m))

    def _orbit_min(self) -> "ElementaryModule":
        if self.p == 1 or not self.tail:
            return self
        # the least rotated tail, its terms read from the leading pole order
        # down; min keeps the smallest k on ties
        js = sorted((j for j, _ in self.tail), reverse=True)
        tail = min((self.rotated(k) for k in range(self.p)),
                   key=lambda rot: [_pos_key(rot[j]) for j in js])
        return ElementaryModule.make(self.p, tail, self.r)

    def rotated(self, k: int) -> dict:
        """The tail after the deck rotation u -> zeta_p^k u, which multiplies
        the term of pole order j by zeta_p^(-jk)."""
        return {j: a.times_unit(self.p, -j * k % self.p) for j, a in self.tail}

    # -- basic functors --------------------------------------------------------
    def dual(self) -> "ElementaryModule":
        return ElementaryModule.make(self.p, {j: -a for j, a in self.tail},
                                     self.r.dual()).normalize()

    def det(self) -> "DetData":
        p, rk = self.p, self.r.rank()
        # distinct pole orders j give distinct j / p: nothing to sum
        tail = tuple((j // p, a * Scalar.rational(p * rk)) for j, a in self.tail if j % p == 0)
        eig = self.r.det() * Eigenvalue.make(Fraction((p - 1) * rk, 2))
        return DetData(tail, eig)

    def iso_eq(self, other: "ElementaryModule") -> bool:
        return self.normalize() == other.normalize()

    def scale_eigenvalues(self, eig: Eigenvalue) -> "ElementaryModule":
        """Tensor with a rank-one regular of downstairs eigenvalue `eig`.
        Scaling R keeps p and the tail, so a normal module stays normal."""
        return ElementaryModule(self.p, self.tail, self.r.scale(eig.pow(self.p)),
                                normal=self.normal)

    def pullback(self, k: int) -> list:
        """Kummer pullback along u -> u^k, as a list of normalized
        elementary modules."""
        e = self.normalize()
        d = gcd(k, e.p)
        pp, kk = e.p // d, k // d
        return [ElementaryModule.make(pp, {i * kk: a for i, a in e.rotated(j).items()},
                                      e.r.pull(kk)).normalize() for j in range(d)]

    def __repr__(self):
        return f"ElementaryModule({render_elementary(self)})"


@dataclass(frozen=True)
class DetData:
    """Rank-one determinant data: exponential tail (downstairs coordinate)
    plus regular eigenvalue."""

    tail: tuple
    eig: Eigenvalue

    def is_trivial(self) -> bool:
        return not self.tail and self.eig.is_one()

    def __mul__(self, other: "DetData") -> "DetData":
        tail = dict(self.tail)
        for j, a in other.tail:
            tail[j] = tail.get(j, ZERO) + a
        return DetData(_tail_pack(tail), self.eig * other.eig)


def El(p: int, tail, r) -> ElementaryModule:
    """Shorthand constructor: El(p, alpha, M) is the elementary module with
    ramification u^p, tail alpha/u and regular part of monodromy M."""
    if isinstance(tail, Scalar):
        tail = {1: tail}
    if isinstance(r, str):
        r = parse_jordan(r)
    return ElementaryModule.make(p, tail, r)


# -- Hom / tensor decomposition (Sabbah) -------------------------------------

def _hom_summands(e1: ElementaryModule, e2: ElementaryModule):
    """Hom(E1, E2) as (a, b, pairs): E1 and E2 normalized, and per k mod
    gcd(p1, p2) the aligned pair (own, rotated) of dicts pole order ->
    coefficient, E2's tail and E1's tail under the deck rotation by
    zeta_p1^k, both on the cover of order n = lcm(p1, p2).  Summand k is
    El(n, own - rotated, R), R = [n/p1]^*R1^vee (x) [n/p2]^*R2 the same
    for every k; its tail is neither reduced nor rotated to its orbit
    minimum."""
    a, b = e1.normalize(), e2.normalize()
    d = gcd(a.p, b.p)
    p1p, p2p = a.p // d, b.p // d
    own = {j * p1p: c for j, c in b.tail}
    # phi1((zeta w)^{p2'}) with zeta = e^(2 pi i k d / (p1 p2)) is phi1
    # under the deck rotation by zeta_p1^k
    return a, b, [(own, {j * p2p: c for j, c in a.rotated(k).items()}) for k in range(d)]


def el_hom(e1: ElementaryModule, e2: ElementaryModule) -> list:
    """Hom(E1, E2) decomposed into elementary modules (normalized); regular
    summands come out with empty tail."""
    a, b, pairs = _hom_summands(e1, e2)
    n = lcm(a.p, b.p)
    rr = a.r.dual().pull(n // a.p).tensor(b.r.pull(n // b.p))
    out = []
    for own, rot in pairs:
        tail = dict(own)
        for j, c in rot.items():
            tail[j] = tail.get(j, ZERO) - c
        out.append(ElementaryModule.make(n, tail, rr).normalize())
    return out


def hom_counts(e1: ElementaryModule, e2: ElementaryModule) -> tuple:
    """(irr, dim Soln) of Hom(E1, E2) from the aligned tails and the Jordan
    blocks, with no module and no scalar built: rk R1 rk R2 times, per
    pair, the top pole order where the aligned tails differ, and where they
    agree at every order (an empty tail), the sum of min(s1, s2) over the
    block pairs (x, s1) of R1 and (y, s2) of R2 with x = y.  Coefficients
    are canonical, so two with equal radical parts differ exactly when
    their difference is nonzero; two with different radical parts raise
    IrrationalSumError, as their difference does, since such parts may
    still name one number.  A tail is empty only where p1 = p2 (no factor
    of p divides every pole order of a normal tail), so R = R1^vee (x) R2,
    and for one k only (no deck rotation but 1 fixes a normal tail)."""
    a, b, pairs = _hom_summands(e1, e2)
    tops = []
    for own, rot in pairs:
        for j in own.keys() & rot.keys():
            if own[j].rad != rot[j].rad:
                raise IrrationalSumError("adding scalars with different radical parts")
        tops.append(max((j for j in own.keys() | rot.keys() if own.get(j) != rot.get(j)),
                        default=0))
    irr = a.r.rank() * b.r.rank() * sum(tops)
    if 0 not in tops:
        return irr, 0
    return irr, sum(min(s1, s2) for x, s1 in a.r.blocks for y, s2 in b.r.blocks if x == y)


# rendering / parsing ----------------------------------------------------------

def render_tail(tail) -> str:
    if not tail:
        return "0"
    parts = []
    for j, a in sorted(tail, key=lambda t: -t[0]):
        s = render_scalar(a)
        if "+" in s or ("-" in s[1:].replace("^-", "^x")):
            s = f"({s})"
        parts.append(f"{s}/u" + (f"^{j}" if j > 1 else ""))
    return " + ".join(parts)


def render_elementary(e: ElementaryModule) -> str:
    if not e.tail:
        return f"El(u^{e.p}, 0, {render_jordan(e.r)})"
    if len(e.tail) == 1 and e.tail[0][0] == 1:
        return f"El({e.p}, {render_scalar(e.tail[0][1])}, {render_jordan(e.r)})"
    return f"El(u^{e.p}, {render_tail(e.tail)}, {render_jordan(e.r)})"


def parse_elementary(text: str) -> ElementaryModule:
    """El(ramification, tail, R), as ``render_elementary`` writes it.  The
    ramification is p, or c*u^p, cu^p or u^p (u is u^1); the tail is 0, or
    terms c/u^j, c/u or c (c/u) joined by + and binary -, equal j adding.
    u, the coordinate of the cover, is reserved: each c is a scalar free of
    u, and any other u is an error."""
    text = text.strip()
    if not (text.startswith("El(") and text.endswith(")")):
        raise ValueError(f"elementary module must read El(...): {text!r}")
    args = split_top(text[3:-1], ",")
    if len(args) != 3:
        raise ValueError(f"El(...) needs 3 arguments, got {len(args)}: {text!r}")
    ram, tail_s, r_s = (x.strip() for x in args)
    lead = ONE
    if ram.isdecimal():
        p = ascii_int(ram)
    elif (split := _u_power(ram)) is not None:
        c, p = split
        if c:
            lead = parse_expression(c.removesuffix("*"), _COEFF)
    else:
        raise ValueError(f"ramification must read p, u^p or c*u^p, got {ram!r}")
    tail: dict = {}
    # a NUL before each binary + or -, one after an operand, for split_top
    marked = re.sub(r"(?<=[\w)\]])(\s*)(?=[+-])", "\\1\0", tail_s)
    for term in [] if tail_s == "0" else split_top(marked, "\0"):
        term = term.replace("\0", "")
        split = _u_power(term)
        if split and split[0].endswith("/"):
            c, j = split[0][:-1], split[1]
        else:
            c, j = term, 1
        tail[j] = tail.get(j, ZERO) + parse_expression(c, _COEFF)
    return ElementaryModule.make(p, tail, parse_jordan(r_s), lead)


def _symbol_not_u(name: str) -> Scalar:
    if name == "u":
        raise ValueError("u is the coordinate of El(...), only in c*u^p and c/u^j")
    return Scalar.sym(name)


_COEFF = SCALAR._replace(symbol=_symbol_not_u)


def _u_power(text: str):
    """(the text before it, k) when text ends with u^k or u (k = 1), a token
    of its own: a number may stand just before it (2u^3), a name not (a2u^3)."""
    m = re.search(r"\b(\d*)u\s*(?:\^\s*(\d+))?\s*$", text)
    return m and (text[:m.end(1)].rstrip(), ascii_int(m.group(2) or "1"))
