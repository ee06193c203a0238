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
dim Soln), with no module built: all that a rigidity index or an Euler
characteristic reads.  Hom and End are read from the aligned Hom tails and
the members' Jordan blocks.  Lambda^3 is read from the lines of the formal
solutions on one common cover (Levelt-Turrittin): one walk over the
T-orbits of the 3-element picks of lines, T the formal monodromy.
``tensor`` builds a product as a module, a normalized, merged FormalType;
no invariant here calls it.  ``summands`` reads the regular part as the
piece El(1, 0, R), so Hom and Lambda^3 walk one kind of piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, lcm

from .scalars import (Scalar, Eigenvalue, OutOfScopeError, IrrationalSumError, poly_add,
                      render_scalar, parse_scalar, render_eigenvalue, parse_eigenvalue,
                      ascii_int, row_reduce, split_top)
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
        """The counts of Lambda^3, read from the lines of the formal
        solutions on the cover of order n, the lcm of the ramified p
        (Levelt-Turrittin), with no module built.  Each ramified summand
        splits into one piece El(p, phi, (lam)) per Jordan block, of size 1:
        its p lines have the exponents of ``_cube_choices``, and the formal
        monodromy T sends line l to line l + 1 and line p - 1 to lam times
        line 0.  An unramified summand, the regular part El(1, 0, R0) among
        them, is one group.  A pick chooses k_i lines or vectors of each
        piece, the k_i summing to 3.  Its exponent sums each piece's own
        choice, then the pieces in the order of ``summands``, so that it
        refuses different radical parts where a sum of modules does.  irr
        is the sum over the picks of dimension times the top pole order,
        over n.  dim Soln sums over the T-orbits of the picks of exponent
        zero, T moving each subset by +1: an orbit of length c adds the
        invariants of mu A^c, A the tensor product of the chosen groups'
        Lambda^k R and mu the product over the c steps of lam (-1)^(k-1)
        for each piece whose subset holds p - 1."""
        pieces = []
        for e in self.summands():
            if e.p == 1:
                pieces.append(e)
                continue
            for eig, size in e.r.blocks:
                if size > 1:
                    raise OutOfScopeError(
                        f"unsupported exterior power: ramified summand {render_elementary(e)} "
                        "has a Jordan block of size > 1")
                pieces.append(ElementaryModule(e.p, e.tail, JordanData.single(eig)))
        n = lcm(*(e.p for e in pieces))
        choices: dict = {}  # (piece index, k) -> its choices, built once per call
        irr = soln = 0
        for trio in combinations_with_replacement(range(len(pieces)), 3):
            parts = [(i, trio.count(i)) for i in dict.fromkeys(trio)]
            if any(k > pieces[i].rank() for i, k in parts):
                continue
            picks = [((), 1, {})]
            for key in parts:
                if key not in choices:
                    choices[key] = _cube_choices(pieces[key[0]], key[1], n)
                picks = [(subsets + (s,), dim * d, _add_exponents(acc, exp))
                         for subsets, dim, acc in picks for s, d, exp in choices[key]]
            irr += sum(dim * max(exp) for _, dim, exp in picks if exp)
            seen, groups = set(), None
            for start in (subsets for subsets, _, exp in picks if not exp):
                if start in seen:
                    continue
                mu, at, c = Eigenvalue.one(), start, 0
                while not c or at != start:
                    step = []
                    for (i, k), s in zip(parts, at):
                        p = pieces[i].p
                        if s and s[-1] == p - 1:
                            mu = mu * pieces[i].r.blocks[0][0] * Eigenvalue.make(
                                Fraction(k - 1, 2))
                        step.append(tuple(sorted((x + 1) % p for x in s)))
                    at, c = tuple(step), c + 1
                    seen.add(at)
                if groups is None:
                    groups = JordanData.identity(1)
                    for i, k in parts:
                        if pieces[i].p == 1:
                            groups = groups.tensor(pieces[i].r.exterior(k))
                soln += groups.pull(c).scale(mu).invariants_dim()
        return Counts(comb(self.rank(), 3), irr // n, soln)

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

def _cube_choices(e: ElementaryModule, k: int, n: int) -> list:
    """The choices of k of the lines of a piece on the cover of order n, as
    (subset, dimension, exponent): one per k-subset of the p lines of a
    ramified piece, line l the exponent ``rotated(l)`` with pole order j
    read as j n / p; one, ((), C(rk R, k), k phi), for a group."""
    if e.p == 1:
        return [((), comb(e.r.rank(), k),
                 {j * n: a * Scalar.rational(k) for j, a in e.tail})]
    lines = [{j * (n // e.p): a for j, a in e.rotated(l).items()} for l in range(e.p)]
    out = []
    for s in combinations(range(e.p), k):
        exp: dict = {}
        for l in s:
            exp = _add_exponents(exp, lines[l])
        out.append((s, 1, exp))
    return out


def _add_exponents(x: dict, y: dict) -> dict:
    """x + y for exponents {pole order: Scalar}, dropping the pole orders
    that cancel.  Two nonzero coefficients with different radical parts
    raise IrrationalSumError, as their scalar sum does.  With equal
    denominators only the numerators add: a sum is only tested for zero or
    added again, so it needs no canonical form."""
    out = dict(x)
    for j, b in y.items():
        a = out.pop(j, None)
        if a is not None:
            if a.rad != b.rad:
                raise IrrationalSumError("adding scalars with different radical parts")
            b = (Scalar(tuple(poly_add(a.numd(), b.numd()).items()), a.den, a.rad)
                 if a.den == b.den else a + b)
        if not b.is_zero():
            out[j] = b
    return out


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
