"""Jordan data of regular formal connections.

A regular connection on the formal punctured disk is determined by the
Jordan form of its monodromy; we keep that as a multiset of
(eigenvalue, block size) pairs.  All invariants used downstream (centralizer
dimensions, tensor and exterior powers, pushforward/pullback along ramified
covers, duals and determinants) are computed combinatorially on this data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .scalars import Eigenvalue, ascii_int, parse_eigenvalue, render_eigenvalue, split_top


def require_int(x, what: str) -> int:
    """x if it is an int (not a bool), else ValueError: no truncation."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


@dataclass(frozen=True)
class JordanData:
    blocks: tuple  # ((Eigenvalue, size), ...) canonically sorted

    @staticmethod
    def make(blocks) -> "JordanData":
        # the order of (e.sort_key(), -size), torsion k/n read as k * (L // n)
        bl = [(e, require_int(s, "block size")) for e, s in blocks]
        L = lcm(*(e.n for e, _ in bl))
        bl = tuple(sorted(bl, key=lambda t: (t[0].word, t[0].k * (L // t[0].n), -t[1])))
        for _, s in bl:
            if s < 1:
                raise ValueError(f"Jordan block size must be at least 1, got {s}")
        return JordanData(bl)

    @staticmethod
    def zero() -> "JordanData":
        return JordanData(())

    @staticmethod
    def identity(n: int) -> "JordanData":
        return JordanData.make([(Eigenvalue.one(), 1)] * n)

    @staticmethod
    def single(eig: Eigenvalue, size: int = 1) -> "JordanData":
        return JordanData.make([(eig, size)])

    def rank(self) -> int:
        return sum(s for _, s in self.blocks)

    def is_trivial(self) -> bool:
        return all(e.is_one() and s == 1 for e, s in self.blocks)

    def is_scalar(self):
        """The eigenvalue if the monodromy is scalar (all blocks J(1) with
        one common eigenvalue), else None."""
        eigs = {e for e, _ in self.blocks}
        if len(eigs) == 1 and all(s == 1 for _, s in self.blocks):
            return next(iter(eigs))
        return None

    def __add__(self, other: "JordanData") -> "JordanData":
        return JordanData.make(self.blocks + other.blocks)

    # -- invariants ----------------------------------------------------------
    def centralizer_dim(self) -> int:
        d = 0
        for e1, s1 in self.blocks:
            for e2, s2 in self.blocks:
                if e1 == e2:
                    d += min(s1, s2)
        return d

    def invariants_dim(self) -> int:
        """dim ker(T - id) = number of blocks with eigenvalue 1."""
        return sum(1 for e, _ in self.blocks if e.is_one())

    def dual(self) -> "JordanData":
        return JordanData.make([(e.inverse(), s) for e, s in self.blocks])

    def det(self) -> Eigenvalue:
        out = Eigenvalue.one()
        for e, s in self.blocks:
            out = out * e.pow(s)
        return out

    def scale(self, eig: Eigenvalue) -> "JordanData":
        """Tensor with the rank-one data of eigenvalue `eig`."""
        return JordanData.make([(e * eig, s) for e, s in self.blocks])

    def eigenvalue_multiset(self):
        """The eigenvalues with multiplicity, in block (sort_key) order."""
        return [e for e, s in self.blocks for _ in range(s)]

    # -- functors -------------------------------------------------------------
    def tensor(self, other: "JordanData") -> "JordanData":
        out = []
        for e1, a in self.blocks:
            for e2, b in other.blocks:
                e = e1 * e2
                for k in range(min(a, b)):
                    out.append((e, a + b - 1 - 2 * k))
        return JordanData.make(out)

    def exterior(self, k: int) -> "JordanData":
        if k < 0 or k > self.rank():
            raise ValueError("exterior power index out of range")
        if k == 0:
            return JordanData.identity(1)
        letters = []
        for e, b in self.blocks:
            for j in range(b):
                letters.append((e, b - 1 - 2 * j))
        # elementary symmetric polynomial e_k of the letters
        elem = [dict() for _ in range(k + 1)]
        elem[0][(Eigenvalue.one(), 0)] = 1
        for lam, d in letters:
            for i in range(min(k, 1 + max(j for j in range(k + 1) if elem[j])), 0, -1):
                for (mu, dd), m in list(elem[i - 1].items()):
                    key = (mu * lam, dd + d)
                    elem[i][key] = elem[i].get(key, 0) + m
        return _character_to_blocks(elem[k])

    def pull(self, p: int) -> "JordanData":
        """Pullback along u -> u^p: monodromy T -> T^p."""
        return JordanData.make([(e.pow(p), s) for e, s in self.blocks])

    def push(self, p: int) -> "JordanData":
        """Pushforward along u -> u^p: T -> T^(1/p) (x) P_p, giving the p
        twisted p-th roots of each eigenvalue with unchanged block sizes."""
        out = []
        for e, s in self.blocks:
            root = e.pow(Fraction(1, p))
            for j in range(p):
                out.append((root * Eigenvalue.make(Fraction(j, p)), s))
        return JordanData.make(out)

    def __repr__(self):
        return f"JordanData({render_jordan(self)})"


def _character_to_blocks(counter: dict) -> JordanData:
    """Decompose an eigenvalue/q-degree character into Jordan blocks, greedily
    stripping the deepest block per eigenvalue."""
    by_eig: dict = {}
    for (e, d), m in counter.items():
        if m:
            by_eig.setdefault(e, {})[d] = m
    blocks = []
    for e, degs in by_eig.items():
        degs = dict(degs)
        while degs:
            d = max(degs)
            b = d + 1
            for dd in range(d, -d - 1, -2):
                cnt = degs.get(dd, 0) - 1
                if cnt < 0:
                    raise ArithmeticError("character is not a sum of block characters")
                if cnt == 0:
                    degs.pop(dd, None)
                else:
                    degs[dd] = cnt
            blocks.append((e, b))
    return JordanData.make(blocks)


# rendering / parsing -------------------------------------------------------

def render_jordan(j: JordanData) -> str:
    parts = []
    for e, s in j.blocks:
        es = render_eigenvalue(e)
        if s == 1:
            parts.append(es)
        elif e.is_one():
            parts.append(f"J({s})")
        else:
            parts.append(f"{es}J({s})")
    return "(" + ", ".join(parts) + ")"


def parse_jordan(text: str) -> JordanData:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    blocks = []
    for ent in split_top(text, ","):
        ent = ent.strip()
        if ent:
            blocks.extend(_parse_jordan_entry(ent))
    return JordanData.make(blocks)


def _parse_jordan_entry(ent: str):
    # [eig][J(n)], or [eig]E<n> or [eig]E_<n>: n blocks of size 1
    import re
    m = re.search(r"(?:J\((\d+)\)|E_?(\d+))\s*$", ent)
    if not m:
        return [(parse_eigenvalue(ent), 1)]
    head = _entry_head(ent[: m.start()])
    return [(head, ascii_int(m[1]))] if m[1] else [(head, 1)] * ascii_int(m[2])


def _entry_head(head: str) -> Eigenvalue:
    """The eigenvalue written before J(n) or E<n>, an optional `*` between:
    none or `+` is 1 and `-` is -1."""
    head = head.strip().rstrip("*").strip()
    if head in ("", "+"):
        return Eigenvalue.one()
    if head == "-":
        return Eigenvalue.minus_one()
    return parse_eigenvalue(head)
