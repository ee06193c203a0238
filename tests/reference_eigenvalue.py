"""Reference eigenvalues for the differential tests.

A verbatim copy of the ``Eigenvalue`` class, ``render_eigenvalue`` and
``_torsion_to_cyclotomic`` that
``katz_forge.scalars`` used before eigenvalues were coded in integers:
torsion and exponents are ``Fraction``s, and ``make`` sums and reduces
them on every operation.  ``tests/test_eigenvalue.py`` requires the
package's ``Eigenvalue`` to agree with it value for value.  Nothing in
``src/`` imports this module.
"""

from dataclasses import dataclass
from fractions import Fraction

from katz_forge.scalars import Cyclotomic, render_fraction


def _torsion_to_cyclotomic(t: Fraction) -> Cyclotomic:
    t %= 1
    return Cyclotomic.zeta(t.denominator, t.numerator)


@dataclass(frozen=True)
class Eigenvalue:
    """exp(2 pi i torsion) * prod(sym^exp) with rational torsion/exponents."""

    torsion: Fraction = Fraction(0)
    word: tuple = ()

    @staticmethod
    def make(torsion=Fraction(0), word=()) -> "Eigenvalue":
        w = {}
        for s, e in word:
            w[s] = w.get(s, Fraction(0)) + Fraction(e)
        return Eigenvalue(Fraction(torsion) % 1, tuple(sorted((s, e) for s, e in w.items() if e)))

    @staticmethod
    def one() -> "Eigenvalue":
        return Eigenvalue()

    @staticmethod
    def minus_one() -> "Eigenvalue":
        return Eigenvalue(Fraction(1, 2), ())

    @staticmethod
    def of_torsion(t) -> "Eigenvalue":
        return Eigenvalue(Fraction(t) % 1, ())

    @staticmethod
    def sym(name: str) -> "Eigenvalue":
        return Eigenvalue(Fraction(0), ((name, Fraction(1)),))

    def __mul__(self, other: "Eigenvalue") -> "Eigenvalue":
        return Eigenvalue.make(self.torsion + other.torsion, self.word + other.word)

    def __truediv__(self, other: "Eigenvalue") -> "Eigenvalue":
        return self * other.inverse()

    def inverse(self) -> "Eigenvalue":
        return Eigenvalue.make(-self.torsion, tuple((s, -e) for s, e in self.word))

    def pow(self, r) -> "Eigenvalue":
        r = Fraction(r)
        return Eigenvalue.make(self.torsion * r, tuple((s, e * r) for s, e in self.word))

    def is_one(self) -> bool:
        return self.torsion == 0 and not self.word

    def to_cyclotomic(self) -> Cyclotomic:
        if self.word:
            raise ValueError("eigenvalue with formal symbols has no cyclotomic value")
        return _torsion_to_cyclotomic(self.torsion)

    def sort_key(self):
        return (self.word, self.torsion)

    def __repr__(self):
        return f"Eigenvalue({render_eigenvalue(self)})"


def render_eigenvalue(e: Eigenvalue) -> str:
    parts = []
    if e.torsion == Fraction(1, 2):
        parts.append("-1")
    elif e.torsion:
        n, k = e.torsion.denominator, e.torsion.numerator
        parts.append(f"zeta({n})" + (f"^{k}" if k != 1 else ""))
    for s, ex in e.word:
        if ex == 1:
            parts.append(s)
        elif ex.denominator == 1:
            parts.append(f"{s}^{ex}")
        else:
            parts.append(f"{s}^({render_fraction(ex)})")
    if not parts:
        return "1"
    if parts[0] == "-1" and len(parts) > 1:
        return "-" + "*".join(parts[1:])
    return "*".join(parts)
