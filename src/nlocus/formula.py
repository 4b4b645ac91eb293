"""Exact interpolation of the degree counts and the closed-form target.

The degree of the locus is a polynomial in d for d >= 5 of degree at most
32 (INTERPOLATION_DEGREE_BOUND); interpolating the computed values at 33 or
more integer nodes therefore pins it down exactly.  The published closed
form is binomial(d-2,3) times a degree-29 integer polynomial over
2^27 * 3^9 * 5^2 * 7^2 * 11 * 13.
"""

import math
from collections import namedtuple
from fractions import Fraction

# The power sums p_k of each fiber's weights are polynomials in d of degree
# k + 1 (d >= 5), so by Newton's identities e_16 has degree at most 2 * 16
# in d.  The tangent denominators do not depend on d, so every Bott summand,
# and their sum, obeys the same bound.
INTERPOLATION_DEGREE_BOUND = 32

# Coefficients of the inner degree-29 polynomial, highest power first.
INNER_COEFFS = (
    106984881,
    -3409514775,
    57226549167,
    -643910429259,
    5267988084411,
    -31628193518727,
    126939490699539,
    -144650681793207,
    -2701978741671631,
    28913126128882647,
    -182919422241175163,
    858473373993063183,
    -3061191057059772423,
    7448109470245631187,
    -3841505361473930575,
    -80644842327962348733,
    568059231910087276234,
    -2560865812030993315212,
    9159430737614259196104,
    -27608527286339077691280,
    71605637662357479581024,
    -160009170853633152594240,
    303685692157317249665152,
    -473993548940769326728704,
    571505502502703378479104,
    -459462480152611231457280,
    111908571251948243582976,
    251116612534424272896000,
    -328452832055501940326400,
    136886449647246114816000,
)

DIVISOR_FACTORS = ((2, 27), (3, 9), (5, 2), (7, 2), (11, 1), (13, 1))
DIVISOR = math.prod(p**e for p, e in DIVISOR_FACTORS)


class UnivariateRationalPoly:
    """A polynomial in d with rational coefficients, stored low degree first."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coefficients]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("UnivariateRationalPoly is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not UnivariateRationalPoly:
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return f"UnivariateRationalPoly(coefficients={self.coefficients!r})"

    def __reduce__(self):
        return UnivariateRationalPoly, (self.coefficients,)

    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        return UnivariateRationalPoly(
            [
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UnivariateRationalPoly([c * other for c in self.coefficients])
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, x in enumerate(self.coefficients):
            for j, y in enumerate(other.coefficients):
                out[i + j] += x * y
        return UnivariateRationalPoly(out)

    __rmul__ = __mul__

    def divmod(self, other):
        """Exact polynomial division with remainder."""
        rem = list(self.coefficients)
        div = other.coefficients
        if not div:
            raise ZeroDivisionError("division by the zero polynomial")
        q = [Fraction(0)] * max(len(rem) - len(div) + 1, 0)
        for k in range(len(rem) - len(div), -1, -1):
            c = rem[k + len(div) - 1] / div[-1]
            q[k] = c
            for i, dc in enumerate(div):
                rem[k + i] -= c * dc
        return UnivariateRationalPoly(q), UnivariateRationalPoly(rem)

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for k in range(len(self.coefficients) - 1, -1, -1):
            c = self.coefficients[k]
            if not c:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                var = "d" if k == 1 else f"d^{k}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
        return "".join(parts)


def interpolate(nodes):
    """The unique polynomial through the nodes, by Newton divided differences.

    The d values must be distinct integers.  The values are put over one
    common denominator, and each level of divided differences over one
    more: level k divides by the lcm of its node gaps x_(i+k) - x_i, so
    every difference stays an integer numerator.  The Newton form is
    expanded in integers over the last level's denominator, and each
    coefficient becomes one Fraction.
    """
    nodes = list(nodes)
    if len(nodes) < 2:
        raise ValueError("interpolation needs at least 2 nodes")
    xs = [Fraction(d) for d, _ in nodes]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must have distinct d values")
    if any(x.denominator != 1 for x in xs):
        raise ValueError("interpolation nodes must have integer d values")
    xs = [x.numerator for x in xs]
    values = [Fraction(v) for _, v in nodes]
    scale = math.lcm(*(v.denominator for v in values))
    diffs = [v.numerator * (scale // v.denominator) for v in values]
    n = len(nodes)
    # diffs[k] ends as the k-th divided difference times dens[k]
    dens = [scale]
    for k in range(1, n):
        gap = math.lcm(*(xs[i] - xs[i - k] for i in range(k, n)))
        for i in range(n - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) * (gap // (xs[i] - xs[i - k]))
        dens.append(dens[-1] * gap)
    common = dens[-1]
    # Horner on the Newton form, low degree first: poly * (d - x_k) + c_k
    poly = []
    for k in range(n - 1, -1, -1):
        poly = [a - xs[k] * b for a, b in zip([0, *poly], [*poly, 0])]
        poly[0] += diffs[k] * (common // dens[k])
    return UnivariateRationalPoly([Fraction(a, common) for a in poly])


_BINOMIAL_D_MINUS_2_CHOOSE_3 = (
    UnivariateRationalPoly([-2, 1])
    * UnivariateRationalPoly([-3, 1])
    * UnivariateRationalPoly([-4, 1])
    * Fraction(1, 6)
)


def closed_form():
    """The published degree polynomial, assembled exactly.

    binomial(d-2,3) times the 30-coefficient inner polynomial, divided by
    2^27 * 3^9 * 5^2 * 7^2 * 11 * 13.
    """
    inner = UnivariateRationalPoly(list(reversed(INNER_COEFFS)))
    return _BINOMIAL_D_MINUS_2_CHOOSE_3 * inner * Fraction(1, DIVISOR)


def inner_polynomial(poly):
    """The p with poly = binomial(d-2,3) * p / DIVISOR, or None if there is none."""
    inner, rem = (poly * Fraction(DIVISOR)).divmod(_BINOMIAL_D_MINUS_2_CHOOSE_3)
    return None if rem.coefficients else inner


class ComparisonReport(namedtuple("ComparisonReport", "equal first_mismatch left right")):
    """Whether two polynomials are equal; else the first degree whose
    coefficients differ, and those coefficients."""

    __slots__ = ()

    def __str__(self):
        if self.equal:
            return "equal"
        return (
            f"mismatch at degree {self.first_mismatch}:"
            f" {self.left} != {self.right}"
        )


def compare(a, b):
    """Coefficientwise equality report; lists the first mismatch if any."""
    n = max(len(a.coefficients), len(b.coefficients))
    for k in range(n):
        ca = a.coefficients[k] if k < len(a.coefficients) else Fraction(0)
        cb = b.coefficients[k] if k < len(b.coefficients) else Fraction(0)
        if ca != cb:
            return ComparisonReport(False, k, ca, cb)
    return ComparisonReport(True, None, None, None)
