"""Torus-character calculus.

A character is an integer 4-vector: the weight with which the torus of P^3
scales a one-dimensional eigenspace.  The character of a monomial is its
exponent vector; the character of a ratio of monomials is the difference.
A tangent space or bundle fiber is a multiset of characters: a fixed point
carries the sorted tuple of its 16 tangent characters, repeats included,
and the blow-up cascade does its multiset arithmetic with
`collections.Counter`.

Chern classes of a specialized multiset are elementary symmetric functions of
its integer weights; `elem_sym` computes them by Kronecker substitution,
as one big-integer product (Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", JSC 2009).  The digits are reversed:
e_j sits in base-2^W digit k - j, so multiplying by (1 + v*z) is
r += v * (r >> W) and e_k is the lowest digit.  `kronecker_width` derives W
from e_j <= s^j / j! for non-negative values summing to s.  The Bott sums
(`localization`) run the same packed product, shared between fixed points,
under the one width of `kronecker_width`, and shift the weight spec to a zero
minimum, so no fiber weight is negative; the tests compare them against
`elem_sym`, the product for one multiset.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass


def char_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def char_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


@dataclass(frozen=True)
class WeightSpec:
    """Integer values assigned to x0..x3; must be pairwise distinct.

    A spec is admissible for a set of fixed points when no character of any
    point's `tangent` specializes to zero (they are the Bott denominators):
    `localization.admissible_spec` returns the spec or raises an error
    naming the point and character at fault, and `check_generic` is the
    same test as a boolean.
    """

    values: tuple

    def __init__(self, values):
        values = tuple(int(v) for v in values)
        if len(values) != 4:
            raise ValueError("weight spec needs exactly 4 values")
        if len(set(values)) != 4:
            raise ValueError(f"weight spec values must be pairwise distinct: {values}")
        object.__setattr__(self, "values", values)


DEFAULT_WEIGHTS = WeightSpec((0, 1, 5, 18))
# The alternate spec that checks.spec_independence compares against.
FALLBACK_WEIGHTS = WeightSpec((0, 1, 7, 23))


def specialize(c, spec):
    """Dot product of a character with the spec values."""
    v = spec.values
    return c[0] * v[0] + c[1] * v[1] + c[2] * v[2] + c[3] * v[3]


def grass_tangent(sub, ambient):
    """Tangent characters of a Grassmannian at a coordinate subspace, as a Counter.

    sub and ambient are multisets of characters (iterables or Counters).
    Hom(sub, ambient/sub) decomposes into lines of character q - a for q
    ranging over ambient minus sub and a over sub; the result has total
    |sub| * (|ambient| - |sub|).
    """
    sub, ambient = Counter(sub), Counter(ambient)
    if not sub <= ambient:
        raise ValueError("sub is not contained in ambient")
    out = Counter()
    for q, kq in (ambient - sub).items():
        for a, ka in sub.items():
            out[char_sub(q, a)] += kq * ka
    return out


def blowup_tangent(base, nml, e):
    """Tangent characters at a fixed point of the exceptional divisor, as a Counter.

    For the normal direction e, the fiber directions contribute n - e for
    every other normal character n, the base tangent comes along, and e
    itself is the normal direction of the exceptional divisor.  Total size
    is preserved.
    """
    if e not in nml:
        raise ValueError(f"direction {e} is not a normal character")
    out = Counter(base)
    for n, k in (Counter(nml) - Counter([e])).items():
        out[char_sub(n, e)] += k
    out[e] += 1
    return out


def kronecker_width(k, s):
    """Digit width W for packing e_0..e_k of non-negative integers summing to s.

    Every product of j distinct values appears j! times in the expansion of
    s^j, so e_j <= s^j / j!.  s^j / j! grows with j while j < s and falls
    after, so over j = 0..k it is largest at m = min(k, s).  An integer
    e_j <= s^m / m! is at most s^m // m!, so every e_j, j <= k, lies in
    [0, 2^W) for W = (s^m // m!).bit_length().  The bound grows with s: it
    also holds for e_j of any sub-multiset of the values, such as a prefix,
    and for any values whose sum is at most s.
    """
    m = min(k, s)
    return (s**m // math.factorial(m)).bit_length()


def elem_sym(k, values):
    """k-th elementary symmetric function of the non-negative integers in values.

    Kronecker substitution in reversed digits: r = sum_j e_j * 2^(W*(k-j)),
    so e_0 = 1 is the top digit and e_k the lowest.  Multiplying the
    truncated product by (1 + v*z) sends e_j to e_j + v*e_(j-1), and r >> W
    is r with every e_j moved down to the digit of e_(j+1) (e_k falls off),
    so the step is r += v * (r >> W): three integer operations per value,
    exact as long as no digit ever reaches 2^W.  W = kronecker_width(k, s)
    for s = sum(values) bounds every e_j of every prefix of the values, so
    nothing carries.  A negative value breaks the bound and raises
    ValueError.
    """
    n = len(values)
    if k < 0 or k > n:
        raise ValueError(f"elementary symmetric index {k} out of range 0..{n}")
    if values and min(values) < 0:
        raise ValueError(f"elem_sym needs non-negative values, got {min(values)}")
    width = kronecker_width(k, sum(values))
    r = 1 << (k * width)
    for v in values:
        r += v * (r >> width)
    return r & ((1 << width) - 1)


def check_generic(spec, tangent_bags):
    """True iff no character in any of the tangents specializes to zero.

    Each tangent is any iterable of characters, such as `FixedPoint.tangent`.
    """
    return all(specialize(c, spec) for bag in tangent_bags for c in bag)
