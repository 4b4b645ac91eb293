"""Multivariate polynomial kernel over exact rationals.

The variable universe is fixed: the four projective coordinates x0..x3 and
one deformation parameter t.  A monomial is a plain 5-tuple of non-negative
integer exponents (x0, x1, x2, x3, t); a polynomial is a mapping from
monomials to nonzero Fractions.  Everything is immutable and compared under
one global graded reverse-lexicographic order with x0 > x1 > x2 > x3 > t.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from operator import add, le, sub

VARS = ("x0", "x1", "x2", "x3", "t")
ZERO_MONO = (0, 0, 0, 0, 0)


class ParseError(ValueError):
    """Syntax error in polynomial text, with the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def mono_key(m):
    """Graded reverse-lexicographic key on (x0,x1,x2,x3,t): larger key = larger monomial."""
    return (m[0] + m[1] + m[2] + m[3] + m[4], -m[4], -m[3], -m[2], -m[1], -m[0])


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(map(le, a, b))


def mono_div(a, b):
    """Exact quotient a / b; caller must ensure divisibility."""
    return tuple(map(sub, a, b))


def monomial_gcd(a, b):
    """Componentwise minimum of two exponent vectors."""
    return tuple(map(min, a, b))


def render_monomial(m):
    if not any(m):
        return "1"
    parts = []
    for name, e in zip(VARS, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def sdim(d):
    """Dimension of the space of degree-d forms on P^3: C(d+3,3)."""
    if d < 0:
        raise ValueError(f"degree must be non-negative, got {d}")
    return comb(d + 3, 3)


def monomials_of_degree(d):
    """All C(d+3,3) degree-d monomials in x0..x3 (t-exponent 0), largest first."""
    if d < 0:
        raise ValueError(f"degree must be non-negative, got {d}")
    out = []
    for a0 in range(d, -1, -1):
        for a1 in range(d - a0, -1, -1):
            for a2 in range(d - a0 - a1, -1, -1):
                out.append((a0, a1, a2, d - a0 - a1 - a2, 0))
    out.sort(key=mono_key, reverse=True)
    return out


class Polynomial:
    """Immutable polynomial in x0..x3, t with Fraction coefficients.

    The canonical form is a dict monomial -> nonzero coefficient; rendering
    lists terms in strictly decreasing term order, so equal polynomials
    render identically.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for m, c in terms.items():
                c = c if isinstance(c, Fraction) else Fraction(c)
                if c:
                    cleaned[m] = c
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, m, coeff=1):
        return cls({tuple(m): Fraction(coeff)})

    # -- queries -------------------------------------------------------

    @property
    def terms(self):
        return self._terms

    def items_sorted(self):
        """Terms as (monomial, coeff), strictly decreasing in the order."""
        return sorted(self._terms.items(), key=lambda t: mono_key(t[0]), reverse=True)

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def degree(self):
        """Total degree (t has weight 1); -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def is_x_homogeneous(self):
        degs = {sum(m[:4]) for m in self._terms}
        return len(degs) <= 1

    def is_monomial(self):
        return len(self._terms) == 1 and next(iter(self._terms.values())) == 1

    def lm(self):
        """Leading monomial; raises on zero."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=mono_key)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        res = dict(self._terms)
        for m, c in other._terms.items():
            s = res.get(m, 0) + c
            if s:
                res[m] = s
            elif m in res:
                del res[m]
        p = Polynomial.__new__(Polynomial)
        object.__setattr__(p, "_terms", res)
        return p

    def __neg__(self):
        p = Polynomial.__new__(Polynomial)
        object.__setattr__(p, "_terms", {m: -c for m, c in self._terms.items()})
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        res = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = mono_mul(m1, m2)
                s = res.get(m, 0) + c1 * c2
                if s:
                    res[m] = s
                elif m in res:
                    del res[m]
        p = Polynomial.__new__(Polynomial)
        object.__setattr__(p, "_terms", res)
        return p

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return Polynomial.zero()
        p = Polynomial.__new__(Polynomial)
        object.__setattr__(p, "_terms", {m: c * v for m, v in self._terms.items()})
        return p

    def mul_monomial(self, mono, coeff=1):
        coeff = Fraction(coeff)
        if not coeff:
            return Polynomial.zero()
        p = Polynomial.__new__(Polynomial)
        object.__setattr__(
            p, "_terms", {mono_mul(m, mono): c * coeff for m, c in self._terms.items()}
        )
        return p

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.monomial(ZERO_MONO)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def subs_t_zero(self):
        """The polynomial with t set to 0."""
        return Polynomial({m: c for m, c in self._terms.items() if m[4] == 0})

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"Polynomial({render(self)!r})"


# ---------------------------------------------------------------------------
# text form

_NUM = re.compile(r"\d+")
_VAR = re.compile(r"x[0-3]|t")
_NAME = re.compile(r"[A-Za-z]\w*")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            m = _NUM.match(text, pos)
            tokens.append(("num", m.group(), pos))
            pos = m.end()
        elif ch.isalpha() or ch == "_":
            m = _VAR.match(text, pos) or _NAME.match(text, pos)
            tokens.append(("name", m.group(), pos))
            pos = m.end()
        elif ch in "+-*/^":
            tokens.append(("op", ch, pos))
            pos += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_num(self, what):
        kind, value, pos = self.next()
        if kind != "num":
            raise ParseError(f"expected {what}", pos)
        return int(value), pos

    def parse(self):
        poly = self.term_sequence()
        kind, value, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected token {value!r}", pos)
        return poly

    def term_sequence(self):
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            sign = -1 if value == "-" else 1
        poly = self.term(sign)
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                poly = poly + self.term(-1 if value == "-" else 1)
            else:
                return poly

    def term(self, sign):
        coeff = Fraction(sign)
        mono = list(ZERO_MONO)
        saw_factor = False
        while True:
            kind, value, pos = self.peek()
            if kind == "num":
                self.next()
                num = int(value)
                k2, v2, _ = self.peek()
                if k2 == "op" and v2 == "/":
                    self.next()
                    den, dpos = self.expect_num("denominator")
                    if den == 0:
                        raise ParseError("zero denominator", dpos)
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
                saw_factor = True
            elif kind == "name":
                self.next()
                if value not in _VAR_INDEX:
                    raise ParseError(f"unknown variable {value!r}", pos)
                exp = 1
                k2, v2, _ = self.peek()
                if k2 == "op" and v2 == "^":
                    self.next()
                    exp, _ = self.expect_num("exponent")
                mono[_VAR_INDEX[value]] += exp
                saw_factor = True
            else:
                break
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                kind, value, pos = self.peek()
                if kind not in ("num", "name"):
                    raise ParseError("expected factor after '*'", pos)
        if not saw_factor:
            _, value, pos = self.peek()
            raise ParseError("expected a term", pos)
        return Polynomial({tuple(mono): coeff})


def parse(text):
    """Parse polynomial text into canonical form.

    Grammar: terms joined by + and -; a term is an optional rational
    coefficient times a product of var^exp factors with vars among
    x0..x3, t; '*' between factors is optional, '^' denotes powers.
    """
    return _Parser(text).parse()


def render(p):
    """Canonical text form; parse(render(p)) == p."""
    if not p:
        return "0"
    parts = []
    for m, c in p.items_sorted():
        mono_txt = render_monomial(m)
        if mono_txt == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono_txt
        else:
            body = f"{abs(c)}*{mono_txt}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)
