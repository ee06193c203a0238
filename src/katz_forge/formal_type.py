"""Formal types at a point: regular part plus elementary modules.

A formal type is stored in minimal form: every elementary member is
normalized (minimal ramification, canonical tail orbit
representative), members in the same isomorphism class are merged by
joining their regular parts, and fully regular content lives in the
Jordan-data regular part.

This module computes every local invariant the classification consumes:
rank/slope/irregularity bookkeeping, End via pairwise Hom, solution-space
dimensions via centralizers, self-duality and determinant checks, formal
monodromy, exponential-torus dimension and exterior cubes.

``hom``, ``end`` and ``exterior_cube`` return ``Counts`` (rank, irr,
dim Soln), read from the aligned Hom tails and the members' Jordan blocks
with no Hom module built: all that a rigidity index or an Euler
characteristic reads.  ``tensor`` is the one product built as a module, a
normalized, merged FormalType; it builds the head of a Lambda^3 term, the
product of its factors but the last.  Within one ``exterior_cube`` call
each piece's Lambda^k, each head and the duals of each last factor are
built once.  ``summands`` reads the regular part as the piece El(1, 0, R),
so Hom, tensor and Lambda^3 walk one kind of piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .scalars import (Scalar, Eigenvalue, OutOfScopeError, render_scalar, parse_scalar,
                      render_eigenvalue, parse_eigenvalue, ascii_int, row_reduce, split_top)
from .jordan import JordanData, render_jordan, parse_jordan
from .elementary import (ElementaryModule, DetData, el_hom, hom_counts,
                         render_elementary, parse_elementary)


@dataclass(frozen=True)
class FormalType:
    regular: JordanData
    irregular: tuple  # normalized, canonically sorted ElementaryModules

    @staticmethod
    def make(regular: JordanData, irregular=()) -> "FormalType":
        reg = regular
        merged: dict = {}
        for e in irregular:
            e = e.normalize()
            if e.is_regular():
                reg = reg + e.r
                continue
            key = (e.p, e.tail)
            if key in merged:
                # joining regular parts keeps p and the tail, so the merged
                # member is still in normal form
                merged[key] = ElementaryModule(e.p, e.tail, merged[key].r + e.r,
                                               normal=True)
            else:
                merged[key] = e
        # (p, tail) is the merge key, so it alone orders the members
        els = tuple(merged[k] for k in sorted(
            merged, key=lambda k: (k[0], tuple((j, a.sort_key()) for j, a in k[1]))))
        return FormalType(reg, els)

    def rank(self) -> int:
        return self.regular.rank() + sum(e.rank() for e in self.irregular)

    def irregularity(self) -> int:
        return sum(e.irregularity() for e in self.irregular)

    def slopes(self) -> dict:
        """slope -> dimension of that slope part (slope 0 omitted unless
        there is regular content)."""
        out: dict = {}
        if self.regular.rank():
            out[Fraction(0)] = self.regular.rank()
        for e in self.irregular:
            out[e.slope()] = out.get(e.slope(), 0) + e.rank()
        return out

    def summands(self) -> list:
        """All summands as elementary modules, the regular part as El(1,0,R)."""
        out = list(self.irregular)
        if self.regular.rank():
            out.append(ElementaryModule.make(1, {}, self.regular))
        return out

    def __add__(self, other: "FormalType") -> "FormalType":
        return FormalType.make(self.regular + other.regular,
                               self.irregular + other.irregular)

    # -- invariants ------------------------------------------------------------
    def hom(self, other: "FormalType") -> "Counts":
        """The counts of Hom(self, other), additive in each argument."""
        return _hom_counts(self.summands(), other.summands())

    def end(self) -> "Counts":
        """The counts of End(self).  Hom(b, a) = Hom(a, b)^vee has the same
        irr and Soln, so each unordered pair of summands runs once and a
        pair of two different summands counts twice."""
        xs = self.summands()
        total = Counts(0, 0, 0)
        for i, a in enumerate(xs):
            mixed = _hom_counts([a], xs[:i])
            total = total + _hom_counts([a], [a]) + mixed + mixed
        return total

    def soln_dim(self) -> int:
        """Horizontal sections: invariants of the regular part."""
        return self.regular.invariants_dim()

    def checks(self) -> dict:
        det = DetData((), self.regular.det())
        for e in self.irregular:
            det = det * e.det()
        return {"self_dual": self.dual() == self, "det_trivial": det.is_trivial()}

    def formal_monodromy(self) -> JordanData:
        out = self.regular
        for e in self.irregular:
            out = out + e.r.push(e.p)
        return out

    def exponential_torus_dim(self) -> int:
        """Dimension of the Q-span of the conjugate exponential tails of all
        members, with symbols/radicals/cyclotomic basis elements treated as
        independent coordinates: the rank of one integer row per member and
        deck rotation u -> zeta_p^i u.  The rotation multiplies the term of
        pole order j by zeta_p^(-ji), so each coefficient is read in
        Q(zeta_n) by ``Cyclotomic._lift`` with that shift, over the common
        denominator of the member, and no rotated scalar is built."""
        n = 1
        for e in self.irregular:
            n = lcm(n, e.p)
            for _, a in e.tail:
                for cyc in a.numd().values():
                    n = lcm(n, cyc.order)
        keys: dict = {}
        rows = []
        for e in self.irregular:
            den = lcm(*(cyc.den for _, a in e.tail for _, cyc in a.num))
            for i in range(e.p):
                row: dict = {}
                rows.append(row)
                for j, a in e.tail:
                    shift = (-j * i % e.p) * (n // e.p)
                    for mono, cyc in a.num:
                        for k, co in enumerate(cyc._lift(n, shift)):
                            if co:
                                key = keys.setdefault((j, a.rad, a.den, mono, k), len(keys))
                                row[key] = co * (den // cyc.den)
        return len(row_reduce([[row.get(k, 0) for k in range(len(keys))] for row in rows]))

    def tensor(self, other: "FormalType") -> "FormalType":
        """self (x) other, as Hom(other^vee, self)."""
        duals, xs = [b.dual() for b in other.summands()], self.summands()
        return FormalType.make(JordanData.zero(),
                               [h for d in duals for a in xs for h in el_hom(d, a)])

    def exterior_cube(self) -> "Counts":
        """The counts of Lambda^3: each term's last tensor is read as the
        counts of Hom(last^vee, head)."""
        total = Counts(0, 0, 0)
        for head, last, last_duals in _cube_terms(self):
            total = total + (
                Counts(last.rank(), last.irregularity(), last.soln_dim()) if head is None
                else _hom_counts(last_duals, head.summands()))
        return total

    def dual(self) -> "FormalType":
        return FormalType.make(self.regular.dual(), [e.dual() for e in self.irregular])

    def scale(self, eig: Eigenvalue) -> "FormalType":
        return FormalType.make(self.regular.scale(eig),
                               [e.scale_eigenvalues(eig) for e in self.irregular])

    def __repr__(self):
        return f"FormalType({render_formal_type(self)})"


@dataclass(frozen=True)
class Counts:
    """Rank, irregularity and dim Soln of a formal type that is only
    counted: all that a rigidity index or an Euler characteristic reads."""

    rk: int
    irr: int
    soln: int

    def rank(self) -> int:
        return self.rk

    def irregularity(self) -> int:
        return self.irr

    def soln_dim(self) -> int:
        return self.soln

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.rk + other.rk, self.irr + other.irr, self.soln + other.soln)


def _hom_counts(xs: list, ys: list) -> Counts:
    """The counts of Hom from the direct sum of xs to that of ys."""
    irr = soln = 0
    for a in xs:
        for b in ys:
            h_irr, h_soln = hom_counts(a, b)
            irr += h_irr
            soln += h_soln
    return Counts(sum(a.rank() for a in xs) * sum(b.rank() for b in ys), irr, soln)


# -- exterior cube -------------------------------------------------------------

def _cube_terms(ft: FormalType):
    """Lambda^3 of ft as a sum over the compositions of 3 across its
    refined pieces, one term per composition: the tensor product of the
    pieces' exterior powers.  Yields (the product of every factor but the
    last, or None for a single factor; the last factor; the duals of the
    last factor's summands, or None for a single factor).  Each Lambda^k of
    a piece, each head and the duals of each last factor are built once per
    call."""
    pieces = _refine(ft)
    powers: dict = {}  # (piece index, k) -> Lambda^k of the piece, or None
    heads: dict = {}  # the keys of the factors but the last -> their product
    duals: dict = {}  # the key of a last factor -> the duals of its summands
    for comp in _compositions(len(pieces), 3):
        keys = []
        for key in ((i, k) for i, k in enumerate(comp) if k):
            if key not in powers:
                powers[key] = _piece_exterior(pieces[key[0]], key[1])
            if powers[key] is None:
                break
            keys.append(key)
        else:
            *init, last = keys
            if tuple(init) not in heads:
                head = None
                for key in init:
                    head = powers[key] if head is None else head.tensor(powers[key])
                heads[tuple(init)] = head
            if init and last not in duals:
                duals[last] = [b.dual() for b in powers[last].summands()]
            yield heads[tuple(init)], powers[last], duals[last] if init else None


def _refine(ft: FormalType) -> list:
    """The summands of ft, each ramified one split into single-Jordan-block
    pieces."""
    out = []
    for e in ft.summands():
        if e.p == 1:
            out.append(e)
            continue
        for eig, size in e.r.blocks:
            if size > 1:
                raise OutOfScopeError(
                    f"unsupported exterior power: ramified summand {render_elementary(e)} "
                    "has a Jordan block of size > 1")
            out.append(ElementaryModule.make(e.p, e.tail, JordanData.single(eig, 1)))
    return out


def _piece_exterior(e: ElementaryModule, k: int):
    """Lambda^k of a single piece, k >= 1, as a FormalType (possibly zero
    rank); None when k exceeds its rank.  A ramified El(p, phi, (lam)) is the
    sum of the exponentials phi(zeta_p^i u), i in Z/p: an orbit of k-subsets S
    under i -> i + 1, its stabilizer of order d, gives El(p/d, the tails
    rotated by S summed, read in u^d, (mu)), mu = ((-1)^(k-1) lam)^(k/d), as
    T^(p/d) wraps k/d members of S past p - 1, each a k-cycle of S."""
    if k > e.rank():
        return None
    if e.p == 1:
        tail = {j: a * Scalar.rational(k) for j, a in e.tail}
        return FormalType.make(JordanData.zero(),
                               [ElementaryModule.make(1, tail, e.r.exterior(k))])
    p, ((lam, _),) = e.p, e.r.blocks
    out = []
    for s in combinations(range(p), k):
        turns = [tuple(sorted((i + t) % p for i in s)) for t in range(p)]
        if min(turns) == s:
            d, sums = turns.count(s), {}
            for i in s:
                for j, a in e.rotated(i).items():
                    sums[j] = sums[j] + a if j in sums else a
            # drop the pole orders that cancel across S (d may not divide them)
            psi = {j // d: a for j, a in sums.items() if not a.is_zero()}
            mu = (lam * Eigenvalue.make(Fraction(k - 1, 2))).pow(k // d)
            out.append(ElementaryModule.make(p // d, psi, JordanData.single(mu)))
    return FormalType.make(JordanData.zero(), out)


def _compositions(n: int, total: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(n - 1, total - first):
            yield (first,) + rest


# rendering / JSON ------------------------------------------------------------------

def render_formal_type(ft: FormalType) -> str:
    parts = [render_elementary(e) for e in ft.irregular]
    if ft.regular.rank():
        parts.append(render_jordan(ft.regular))
    return " + ".join(parts) if parts else "0"


def formal_type_to_json(ft: FormalType) -> dict:
    return {
        "regular": [[render_eigenvalue(e), s] for e, s in ft.regular.blocks],
        "irregular": [
            {"p": e.p, "c": "1",
             "phi": {str(-j): render_scalar(a) for j, a in e.tail},
             "R": [[render_eigenvalue(ei), s] for ei, s in e.r.blocks]}
            for e in ft.irregular
        ],
    }


def formal_type_from_json(d: dict) -> FormalType:
    reg = JordanData.make([(parse_eigenvalue(e), s) for e, s in d.get("regular", [])])
    els = []
    for ed in d.get("irregular", []):
        tail = {-ascii_int(j): parse_scalar(a) for j, a in ed.get("phi", {}).items()}
        r = JordanData.make([(parse_eigenvalue(e), s) for e, s in ed["R"]])
        els.append(ElementaryModule.make(ed["p"], tail, r,
                                         parse_scalar(ed.get("c", "1"))))
    return FormalType.make(reg, els)


def parse_formal_type(text: str) -> FormalType:
    """Parse 'El(...) + El(...) + (jordan)' pretty form."""
    reg = JordanData.zero()
    els = []
    for chunk in split_top(text, "+"):
        chunk = chunk.strip()
        if not chunk or chunk == "0":
            continue
        if chunk.startswith("El"):
            els.append(parse_elementary(chunk))
        else:
            reg = reg + parse_jordan(chunk)
    return FormalType.make(reg, els)
