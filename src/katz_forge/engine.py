"""Global connection descriptors and the operation calculus.

A descriptor records the generic rank and the formal type at every singular
location (finite points carry full-rank nearby data under minimal-extension
semantics; `inf` carries the formal type at infinity).  The four operations
of the Katz-Arinkin algorithm act on descriptors by transporting this local
data; no matrix realizations are ever computed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .scalars import (Scalar, Eigenvalue, ZERO, ONE, OutOfScopeError, render_scalar,
                      parse_scalar, parse_eigenvalue)
from .jordan import JordanData, require_int
from .elementary import ElementaryModule
from .formal_type import (FormalType, formal_type_to_json, formal_type_from_json,
                          render_formal_type)
from .fourier import (vanishing_data, nearby_from_vanishing,
                      lft_shifted, lft_inf_to_s, epsilon_twist_inf)

INF = "inf"


class ContradictionError(RuntimeError):
    """A transport step produced structurally impossible data; the report
    carries the reason (these reports are how non-existence is proved).
    The fields hold the same facts as data, each None where it does not
    apply: the script step (from 1) and the op that raised, the finite
    location and the rank the data there needs against the rank available."""

    def __init__(self, report: str, step=None, op=None, location=None, needed=None,
                 available=None):
        super().__init__(report)
        self.report = report
        self.step, self.op, self.location = step, op, location
        self.needed, self.available = needed, available


@dataclass(frozen=True)
class ConnectionDescriptor:
    rank: int
    points: tuple  # ((location, FormalType), ...); location Scalar or "inf"

    @staticmethod
    def make(points: dict, rank: int) -> "ConnectionDescriptor":
        items = []
        for loc, ft in points.items():
            if loc != INF and not isinstance(loc, Scalar):
                raise ValueError(f"a location is a Scalar or {INF!r}, got {loc!r}")
            if not _is_trivial_type(ft):
                items.append((loc, ft))
        items.sort(key=lambda t: (1, ()) if t[0] == INF else (0, t[0].sort_key()))
        return ConnectionDescriptor(require_int(rank, "rank"), tuple(items))

    def point(self, loc) -> FormalType:
        for l, ft in self.points:
            if l == loc:
                return ft
        return _trivial(self.rank)

    def finite_points(self):
        return [(l, ft) for l, ft in self.points if l != INF]

    def inf_type(self) -> FormalType:
        return self.point(INF)

    def locations(self):
        return [l for l, _ in self.points]

    def __repr__(self):
        rows = ", ".join(
            f"{render_location(l)}: {render_formal_type(ft)}" for l, ft in self.points)
        return f"ConnectionDescriptor(rank {self.rank}; {rows})"


def _trivial(rank: int) -> FormalType:
    return FormalType.make(JordanData.identity(rank))


def _is_trivial_type(ft: FormalType) -> bool:
    return not ft.irregular and ft.regular.is_trivial()


def render_location(loc) -> str:
    return INF if loc == INF else render_scalar(loc)


def parse_location(text: str):
    text = text.strip()
    return INF if text == INF else parse_scalar(text)


# -- invariants ---------------------------------------------------------------

def rigidity_index(c: ConnectionDescriptor) -> int:
    """chi of End, of rank rank^2, from the counts of End at each point."""
    return euler_char(c.rank * c.rank, [ft.end() for _, ft in c.points])


def euler_char(rank: int, members) -> int:
    """chi of the middle extension of a system of generic rank `rank` with
    the local data `members` (formal types or Counts) at its r singular
    points: (2 - r) rank + the sum of dim Soln - irr."""
    return (2 - len(members)) * rank + sum(m.soln_dim() - m.irregularity() for m in members)


def euler_char_middle(c: ConnectionDescriptor, family: dict) -> int:
    """chi of the middle extension of an auxiliary family given at each
    singular point (e.g. exterior cubes of the formal types)."""
    locs = c.locations()
    if not family or set(family) != set(locs):
        raise ValueError("euler_char_middle needs a family given at exactly the singular "
                         f"locations {', '.join(map(render_location, locs))}")
    rank, *other = sorted({ft.rank() for ft in family.values()})
    if other:
        raise ValueError(f"family members must share a rank, got {rank} and {other[0]}")
    return euler_char(rank, list(family.values()))


# -- operations ----------------------------------------------------------------

def op_twist(c: ConnectionDescriptor, twists: dict) -> ConnectionDescriptor:
    """Tensor with the rank-one system having monodromy twists[loc] at each
    location (the product over all entries must be 1)."""
    prod = Eigenvalue.one()
    for eig in twists.values():
        prod = prod * eig
    if not prod.is_one():
        raise ValueError("twist monodromies must multiply to 1")
    pts = {l: ft for l, ft in c.points}
    for loc, eig in twists.items():
        if eig.is_one():
            continue
        ft = pts.get(loc, _trivial(c.rank))
        pts[loc] = ft.scale(eig)
    return ConnectionDescriptor.make(pts, c.rank)


def op_moebius(c: ConnectionDescriptor, kind: str, a: Scalar = None, b: Scalar = None) -> ConnectionDescriptor:
    if kind == "inv":
        pts = {}
        for loc, ft in c.points:
            if loc == INF:
                pts[Scalar.rational(0)] = ft
            elif loc.is_zero():
                pts[INF] = ft
            else:
                if ft.irregular:
                    raise OutOfScopeError(
                        "inversion with irregular content away from 0 and inf")
                pts[ONE / loc] = ft
        return ConnectionDescriptor.make(pts, c.rank)
    if kind == "affine":
        if a is None or a.is_zero():
            raise ValueError("affine map needs a != 0")
        b = b if b is not None else ZERO
        pts = {}
        for loc, ft in c.points:
            els = []
            for e in ft.irregular:
                if loc == INF and not b.is_zero() and e.slope() > 1:
                    raise OutOfScopeError("affine shift with slopes > 1 at infinity")
                # the new coordinate a * (z - loc) is the cover a * u^p, 1/(a z) the cover u^p / a
                els.append(ElementaryModule.make(e.p, e.tail, e.r, ONE / a if loc == INF else a))
            pts[INF if loc == INF else loc * a + b] = FormalType.make(ft.regular, els)
        return ConnectionDescriptor.make(pts, c.rank)
    raise ValueError(f"unknown Moebius kind {kind!r}")


def _vanishing(ft: FormalType) -> FormalType:
    """The vanishing data of the formal type at a finite point."""
    return FormalType(vanishing_data(ft.regular), ft.irregular)


def _inf_slopes_at_most_one(c: ConnectionDescriptor) -> None:
    if any(e.slope() > 1 for e in c.inf_type().irregular):
        raise OutOfScopeError("slopes > 1 at infinity are out of scope")


def fourier_rank(c: ConnectionDescriptor) -> int:
    """Generic rank of the Fourier transform (the rank lemma): a piece
    El(u^p, a/u^q, R) of the vanishing data adds (p + q) rk R, its rank
    plus its irregularity; slope-(<=1) content at infinity adds nothing."""
    _inf_slopes_at_most_one(c)
    vanishing = [_vanishing(ft) for _, ft in c.finite_points()]
    return sum(v.rank() + v.irregularity() for v in vanishing)


def stationary_phase(c: ConnectionDescriptor) -> FormalType:
    """Formal type at infinity of the Fourier transform: direct sum of the
    local transforms of the pieces of the vanishing data at each finite
    point."""
    _inf_slopes_at_most_one(c)
    return FormalType.make(JordanData.zero(), [
        lft_shifted(e, loc) for loc, ft in c.finite_points() for e in _vanishing(ft).summands()])


def op_fourier(c: ConnectionDescriptor) -> ConnectionDescriptor:
    # the rank lemma: the generic rank is the rank of the type at infinity
    new_inf = stationary_phase(c)
    h_new = new_inf.rank()
    # finite points of the transform from the pieces at infinity of the
    # source; slope-(<1) pieces carry the z -> -z deck twist, so that on
    # descriptors singular only at 0 and infinity with slopes < 1 there,
    # applying the transform twice is the epsilon pullback
    van: dict = {}
    for e in c.inf_type().summands():
        s, piece = lft_inf_to_s(epsilon_twist_inf(e) if e.slope() < 1 else e)
        van.setdefault(s, []).append(piece)
    pts = {s: _nearby_type(
        FormalType.make(JordanData.zero(), pieces), h_new, "fourier", s, lambda needed, v: (
            f"rank mismatch: transform has generic rank {h_new} but the formal type at "
            f"{render_scalar(s)} would need rank {needed}: vanishing data {v}"))
        for s, pieces in van.items()}
    pts[INF] = new_inf
    return ConnectionDescriptor.make(pts, h_new)


def _nearby_type(v: FormalType, rank: int, op: str, location, report) -> FormalType:
    """The formal type of generic rank `rank` at the finite point `location`
    whose vanishing data is v: eigenvalue-1 blocks of its regular part gain
    one dimension, and J(1) blocks pad it to `rank`.  When v needs a larger
    rank, raises ContradictionError(report(needed rank, rendered v)) with
    the op, the location and both ranks."""
    el_rank = v.rank() - v.regular.rank()
    nearby = nearby_from_vanishing(v.regular, rank - el_rank)
    needed = nearby.rank() + el_rank
    if needed > rank:
        raise ContradictionError(report(needed, render_formal_type(v)), op=op,
                                 location=location, needed=needed, available=rank)
    return FormalType(nearby, v.irregular)


def op_middle_convolution(c: ConnectionDescriptor, chi: Eigenvalue) -> ConnectionDescriptor:
    if chi.is_one():
        raise ValueError("middle convolution requires chi != 1")
    inf = c.inf_type()
    scal = inf.regular.is_scalar() if not inf.irregular else None
    if scal != chi:
        raise ValueError(
            "middle convolution needs scalar monodromy chi at infinity; "
            "twist first (adding a fake singularity if necessary)")
    h_new = fourier_rank(c) - c.rank
    if h_new <= 0:
        raise ContradictionError(f"middle convolution rank dropped to {h_new}", op="mc",
                                 needed=1, available=h_new)
    # a piece El(u^p, a/u^q, R) of the vanishing data is scaled by
    # chi^(p + q), a regular piece (p + q = 1) by chi
    pts = {loc: _nearby_type(FormalType.make(JordanData.zero(), [
        ElementaryModule.make(e.p, e.tail, e.r.scale(chi.pow(e.p + e.q())))
        for e in _vanishing(ft).summands()]), h_new, "mc", loc, lambda needed, v: (
            f"rank {h_new} system forced to carry vanishing data {v} at "
            f"{render_location(loc)} (needs rank >= {needed})"))
        for loc, ft in c.finite_points()}
    pts[INF] = FormalType.make(JordanData.make([(chi.inverse(), 1)] * h_new))
    return ConnectionDescriptor.make(pts, h_new)


# -- scripts --------------------------------------------------------------------

@dataclass(frozen=True)
class ScriptStep:
    op: str
    args: str        # the argument text, as written
    apply: Callable  # descriptor -> descriptor


def parse_script(text: str):
    """The steps of a construction script; a malformed line raises
    ValueError naming the line, an OutOfScopeError staying one."""
    steps = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                steps.append(parse_step(line))
            except ValueError as exc:
                raise type(exc)(f"line {ln}: {exc}") from None
    return steps


def parse_step(line: str) -> ScriptStep:
    """One step, ``op args``; the op's entry in _STEPS checks the arguments
    and builds the step's map on descriptors."""
    op, _, args = line.strip().partition(" ")
    args = args.strip()
    if op not in _STEPS:
        raise ValueError(f"unknown operation {op!r}")
    return ScriptStep(op, args, _STEPS[op](args))


def _fourier_step(args: str):
    if args:
        raise ValueError(f"fourier takes no argument, got {args!r}")
    return op_fourier


def _moebius_step(args: str):
    kind, *ab = args.split() or [""]
    if not kind:
        raise ValueError("moebius needs a kind, inv or affine")
    counts = {"inv": (0,), "affine": (1, 2)}.get(kind)
    if counts is None:
        raise ValueError(f"unknown moebius kind {kind!r}")
    if len(ab) not in counts:
        raise ValueError(f"moebius {kind} takes {' or '.join(map(str, counts))} "
                         f"argument(s), got {len(ab)}")
    ab = [parse_scalar(x) for x in ab]
    return lambda c: op_moebius(c, kind, *ab)


def _mc_step(args: str):
    chi = parse_eigenvalue(args)
    return lambda c: op_middle_convolution(c, chi)


def _twist_step(args: str):
    """Named, ``loc:eig, ...``, or positional, ``eig, ...`` over the sorted
    finite points then inf."""
    pairs = [chunk.rpartition(":") for chunk in args.split(",")]
    locs = [parse_location(loc) for loc, _, _ in pairs] if ":" in args else None
    eigs = [parse_eigenvalue(eig) for _, _, eig in pairs]

    def apply(c):
        at = locs or [l for l in c.locations() if l != INF] + [INF]
        if len(eigs) != len(at):
            raise ValueError(
                f"twist arity {len(eigs)} does not match the {len(at)} "
                "singular points; use the named loc:eig form to add points")
        return op_twist(c, dict(zip(at, eigs)))
    return apply


# op -> the reader of its argument text, which checks the arity and returns
# the step's map on descriptors: fourier takes no argument, moebius inv none
# and moebius affine A and an optional B, mc one eigenvalue and twist a list
_STEPS = {"fourier": _fourier_step, "moebius": _moebius_step,
          "mc": _mc_step, "twist": _twist_step}


def run_script(c0: ConnectionDescriptor, steps) -> list:
    """Apply the steps in order; returns the trace [c0, c1, ...].  The first
    failing step raises with its index and reason attached."""
    if isinstance(steps, str):
        steps = parse_script(steps)
    trace = [c0]
    for i, step in enumerate(steps, 1):
        try:
            trace.append(step.apply(trace[-1]))
        except ContradictionError as exc:
            raise ContradictionError(f"step {i} ({step.op}): {exc.report}", i, exc.op,
                                     exc.location, exc.needed, exc.available) from exc
        except (ValueError, OutOfScopeError) as exc:
            raise type(exc)(f"step {i} ({step.op}): {exc}") from exc
    return trace


# -- JSON ---------------------------------------------------------------------------

def descriptor_to_json(c: ConnectionDescriptor) -> dict:
    return {
        "rank": c.rank,
        "points": {render_location(l): formal_type_to_json(ft) for l, ft in c.points},
    }


def descriptor_from_json(d: dict) -> ConnectionDescriptor:
    rank = require_int(d["rank"], "rank")
    pts, keys = {}, {}
    for loc_s, ft_d in d["points"].items():
        loc = parse_location(loc_s)
        if loc in keys:
            raise ValueError(f"locations {keys[loc]!r} and {loc_s!r} are the same "
                             f"point {render_location(loc)}")
        keys[loc] = loc_s
        ft = formal_type_from_json(ft_d)
        if ft.rank() != rank:
            raise ValueError(f"formal type at {loc_s} has rank {ft.rank()}, "
                             f"but the descriptor declares rank {rank}")
        pts[loc] = ft
    return ConnectionDescriptor.make(pts, rank)


def read_text(path: str) -> str:
    """The text of the UTF-8 file at path; a missing file, any other file
    that cannot be opened, such as a directory, and bytes that are not
    UTF-8 raise ValueError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}") from None
    except OSError as exc:
        # its text names the path: "[Errno 21] Is a directory: 'x'"
        raise ValueError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_descriptor(path: str) -> ConnectionDescriptor:
    """The descriptor in the JSON file at path.  A missing file, malformed
    JSON, a malformed descriptor and one without singular points raise
    ValueError naming the path; an OutOfScopeError stays one."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path} at line {exc.lineno} column "
                         f"{exc.colno} (char {exc.pos}): {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"malformed JSON in {path}: nested too deeply") from None
    try:
        c = descriptor_from_json(data)
    except OutOfScopeError:
        raise
    except Exception as exc:
        raise ValueError(f"malformed descriptor in {path}: {exc}") from None
    if not c.points:
        raise ValueError(f"malformed descriptor in {path}: no singular points")
    return c
