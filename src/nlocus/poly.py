"""Multivariate polynomial kernel over exact rationals.

The variable universe is fixed: the four projective coordinates x0..x3 and
one deformation parameter t.  A monomial is a plain 5-tuple of non-negative
integer exponents (x0, x1, x2, x3, t); a polynomial is a mapping from
monomials to nonzero Fractions.  Everything is immutable and compared under
one global graded reverse-lexicographic order with x0 > x1 > x2 > x3 > t.
"""

import functools
import re
from fractions import Fraction
from operator import add, le, sub

VARS = ("x0", "x1", "x2", "x3", "t")


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

    def __reduce__(self):
        return Polynomial, (self._terms,)

    # -- constructors -------------------------------------------------

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

    def __mul__(self, other):
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


@functools.cache
def _matchers():
    """The `match` methods of the parser's five patterns: space, sign, factor,
    star and name.  They are compiled on the first `parse`, which no command
    calls, so importing the package compiles none of them."""
    return tuple(
        re.compile(pattern).match
        for pattern in (
            r"\s*",
            r"\s*([+-])",
            r"\s*(?:(\d+)(?:\s*/\s*(\d+))?|(x[0-3]|t)(?:\s*\^\s*(\d+))?)",
            r"\s*\*",
            r"[A-Za-z]\w*",
        )
    )


def _error(message, text, pos):
    """A ParseError at the first non-space character from pos on."""
    space, *_, name_at = _matchers()
    pos = space(text, pos).end()
    name = name_at(text, pos)
    if name:
        return ParseError(f"unknown variable {name.group()!r}", pos)
    found = repr(text[pos]) if pos < len(text) else "the end"
    return ParseError(f"{message}, found {found}", pos)


def _int(match, group):
    """The integer a match group spells, 1 when the group took no part."""
    digits = match.group(group)
    try:
        return int(digits or 1)
    except ValueError:  # more digits than Python converts to an int
        raise ParseError(
            f"number of {len(digits)} digits is too long", match.start(group)
        ) from None


def parse(text):
    """Parse polynomial text into canonical form.

    Grammar: terms joined by + and -; a term is an optional rational
    coefficient times a product of var^exp factors with vars among
    x0..x3, t; '*' between factors is optional, '^' denotes powers.
    Any other text raises ParseError with the position of the fault.
    """
    space, sign_at, factor_at, star_at, _ = _matchers()
    terms = {}
    sign = sign_at(text)
    pos = sign.end() if sign else 0
    while True:
        coeff = Fraction(-1 if sign and sign.group(1) == "-" else 1)
        mono = [0] * 5
        factor = factor_at(text, pos)
        if not factor:
            raise _error("expected a term", text, pos)
        while factor:
            var = factor.group(3)
            if var:
                mono[VARS.index(var)] += _int(factor, 4)
            else:
                num, den = _int(factor, 1), _int(factor, 2)
                if not den:
                    raise ParseError("zero denominator", factor.start(2))
                coeff *= Fraction(num, den)
            pos = factor.end()
            star = star_at(text, pos)
            factor = factor_at(text, star.end() if star else pos)
            if star and not factor:
                raise _error("expected a factor after '*'", text, star.end())
        key = tuple(mono)
        terms[key] = terms.get(key, 0) + coeff
        sign = sign_at(text, pos)
        if not sign:
            break
        pos = sign.end()
    if space(text, pos).end() < len(text):
        raise _error("expected '+', '-' or a factor", text, pos)
    return Polynomial(terms)


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
