"""The text readers as they were before the one expression grammar, kept
verbatim as a differential oracle: the recursive-descent scalar grammar,
the separate eigenvalue loop and the string slicing of ``parse_elementary``.
They build values with the engine's own ``Scalar``, ``Eigenvalue`` and
``ElementaryModule``, so only the reading differs."""

from fractions import Fraction

from katz_forge.elementary import ElementaryModule
from katz_forge.jordan import parse_jordan
from katz_forge.scalars import ONE, ZERO, Eigenvalue, Scalar, split_top


class _Tok:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch=None):
        c = self.peek()
        if ch and c != ch:
            raise ValueError(f"expected {ch!r} at {self.pos} in {self.text!r}")
        self.pos += 1
        return c

    def ident(self):
        c = self.peek()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def number(self) -> int:
        start = self.pos
        self.peek()
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])


def parse_scalar(text: str) -> Scalar:
    tok = _Tok(text)
    v = _parse_expr(tok)
    if tok.peek():
        raise ValueError(f"trailing input in scalar {text!r}")
    return v


def _parse_expr(tok: _Tok) -> Scalar:
    v = _parse_term(tok)
    while tok.peek() and tok.peek() in "+-":
        op = tok.take()
        t = _parse_term(tok)
        v = v + t if op == "+" else v - t
    return v


def _parse_term(tok: _Tok) -> Scalar:
    v = _parse_factor(tok)
    while tok.peek() and tok.peek() in "*/":
        op = tok.take()
        f = _parse_factor(tok)
        v = v * f if op == "*" else v / f
    return v


def _parse_factor(tok: _Tok) -> Scalar:
    c = tok.peek()
    neg = False
    while c and c in "+-":
        tok.take()
        if c == "-":
            neg = not neg
        c = tok.peek()
    base = _parse_atom(tok)
    if tok.peek() == "^":
        tok.take()
        e = _parse_exponent(tok)
        if e.denominator == 1:
            base = base ** e.numerator
        else:
            base = (base ** e.numerator).root(e.denominator)
    return -base if neg else base


def _parse_exponent(tok: _Tok) -> Fraction:
    if tok.peek() == "(":
        tok.take("(")
        sign = 1
        if tok.peek() == "-":
            tok.take()
            sign = -1
        n = tok.number()
        d = 1
        if tok.peek() == "/":
            tok.take()
            d = tok.number()
        tok.take(")")
        return Fraction(sign * n, d)
    sign = 1
    if tok.peek() == "-":
        tok.take()
        sign = -1
    return Fraction(sign * tok.number())


def _parse_atom(tok: _Tok) -> Scalar:
    c = tok.peek()
    if c == "(":
        tok.take("(")
        v = _parse_expr(tok)
        tok.take(")")
        return v
    if c.isdigit():
        n = tok.number()
        return Scalar.rational(n)
    name = tok.ident()
    if not name:
        raise ValueError(f"parse error at {tok.pos} in {tok.text!r}")
    if name == "zeta":
        n = _zeta_order(tok)
        if tok.peek() != "^":
            return Scalar.zeta(n)
        tok.take()
        e = _parse_exponent(tok)
        # an integer power is a table lookup, a fractional one a root of it
        return Scalar.zeta(n, e.numerator).root(e.denominator)
    return Scalar.sym(name)


def _zeta_order(tok: _Tok) -> int:
    """The n of zeta(n), after the name."""
    tok.take("(")
    n = tok.number()
    tok.take(")")
    if n < 1:
        raise ValueError(f"zeta({n}) needs an order of at least 1 in {tok.text!r}")
    return n


def parse_eigenvalue(text: str) -> Eigenvalue:
    tok = _Tok(text)
    out = Eigenvalue.one()
    neg = False
    while True:
        c = tok.peek()
        if c and c in "+-":
            tok.take()
            if c == "-":
                neg = not neg
            continue
        break
    while True:
        c = tok.peek()
        if c == "(":
            tok.take("(")
            inner = _parse_eig_factor(tok)
            tok.take(")")
        else:
            inner = _parse_eig_factor(tok)
        out = out * inner
        if tok.peek() == "*":
            tok.take()
            continue
        if tok.peek() == "/":
            tok.take()
            nxt = _parse_eig_factor(tok)
            out = out / nxt
            continue
        break
    if tok.peek():
        raise ValueError(f"trailing input in eigenvalue {text!r}")
    if neg:
        out = out * Eigenvalue.minus_one()
    return out


def _parse_eig_factor(tok: _Tok) -> Eigenvalue:
    c = tok.peek()
    if c.isdigit():
        n = tok.number()
        if n == 1:
            base = Eigenvalue.one()
        elif n == 0:
            raise ValueError("eigenvalue cannot be zero")
        else:
            raise ValueError("only 1 and roots of unity are numeric eigenvalues")
    else:
        name = tok.ident()
        if not name:
            raise ValueError(f"parse error at {tok.pos} in eigenvalue {tok.text!r}")
        if name == "zeta":
            base = Eigenvalue.make(Fraction(1, _zeta_order(tok)))
        elif name == "i":
            base = Eigenvalue.make(Fraction(1, 4))
        else:
            base = Eigenvalue.sym(name)
    if tok.peek() == "^":
        tok.take()
        e = _parse_exponent(tok)
        base = base.pow(e)
    return base


def parse_elementary(text: str) -> ElementaryModule:
    text = text.strip()
    if not (text.startswith("El(") and text.endswith(")")):
        raise ValueError(f"elementary module must read El(...): {text!r}")
    args = split_top(text[3:-1], ",")
    if len(args) != 3:
        raise ValueError(f"El(...) needs 3 arguments, got {len(args)}: {text!r}")
    ram, tail_s, r_s = (x.strip() for x in args)
    coeff = ONE
    if "u" in ram:
        head, _, exp = ram.partition("u")
        head = head.rstrip("*").strip()
        coeff = parse_scalar(head) if head else ONE
        p = int(exp.lstrip("^") or 1)
    else:
        p = int(ram)
    tail: dict = {}
    if tail_s not in ("0", ""):
        for term in split_top(tail_s, "+"):
            term = term.strip()
            if "/u" in term:
                num, _, upow = term.rpartition("/u")
                j = int(upow.lstrip("^") or 1)
            else:
                num, j = term, 1
            num = num.strip()
            if num.startswith("(") and num.endswith(")"):
                num = num[1:-1]
            tail[j] = tail.get(j, ZERO) + parse_scalar(num)
    return ElementaryModule.make(p, tail, parse_jordan(r_s), coeff)
