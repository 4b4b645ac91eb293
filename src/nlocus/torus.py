"""Torus-character calculus.

A character is an integer 4-vector: the weight with which the torus of P^3
scales a one-dimensional eigenspace.  The character of a monomial is its
exponent vector; the character of a ratio of monomials is the difference.
Tangent spaces and bundle fibers are bags of characters with (usually
positive) integer multiplicities.

Chern classes of a specialized bag are elementary symmetric functions of
its integer weights; `elem_sym` computes them by Kronecker substitution,
as one big-integer product (Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", JSC 2009).  The digits are reversed:
e_j sits in base-2^W digit k - j, so multiplying by (1 + v*z) is
r += v * (r >> W) and e_k is the lowest digit.  The width W is derived from
e_j <= s^j / j! for non-negative values summing to s; values of both signs
are packed by sign separately and combined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def char_of(m):
    """Character of a monomial: its x-exponent vector (t-exponent must be 0)."""
    if m[4] != 0:
        raise ValueError(f"monomial has nonzero t-exponent: {m}")
    return m[:4]


def char_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def char_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


class CharBag:
    """A signed multiset of characters.

    Equal characters merge by summing multiplicities; zero multiplicities
    disappear.  Bags reaching Chern evaluation must be effective (all
    multiplicities positive).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=()):
        merged = {}
        if isinstance(entries, dict):
            entries = entries.items()
        for item in entries:
            if len(item) == 2 and isinstance(item[0], tuple):
                c, k = item
            else:
                c, k = item, 1
            if k:
                merged[c] = merged.get(c, 0) + k
                if not merged[c]:
                    del merged[c]
        self._entries = merged

    def entries(self):
        """Sorted (character, multiplicity) pairs."""
        return sorted(self._entries.items())

    def size(self):
        """Total multiplicity (signed)."""
        return sum(self._entries.values())

    def is_effective(self):
        return all(k > 0 for k in self._entries.values())

    def expand(self):
        """Characters repeated by multiplicity, sorted; requires effectiveness."""
        if not self.is_effective():
            raise ValueError("bag with negative multiplicities cannot be expanded")
        out = []
        for c, k in self.entries():
            out.extend([c] * k)
        return out

    def __add__(self, other):
        merged = dict(self._entries)
        for c, k in other._entries.items():
            merged[c] = merged.get(c, 0) + k
            if not merged[c]:
                del merged[c]
        bag = CharBag.__new__(CharBag)
        bag._entries = merged
        return bag

    def __sub__(self, other):
        merged = dict(self._entries)
        for c, k in other._entries.items():
            merged[c] = merged.get(c, 0) - k
            if not merged[c]:
                del merged[c]
        bag = CharBag.__new__(CharBag)
        bag._entries = merged
        return bag

    def contains(self, other):
        """Multiset containment other <= self."""
        return all(self._entries.get(c, 0) >= k for c, k in other._entries.items())

    def __contains__(self, c):
        return c in self._entries

    def __eq__(self, other):
        if not isinstance(other, CharBag):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return f"CharBag({self.entries()!r})"


@dataclass(frozen=True)
class WeightSpec:
    """Integer values assigned to x0..x3; must be pairwise distinct.

    A spec is admissible for a set of fixed points when no tangent
    character specializes to zero (those are Bott denominators):
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
    """Tangent bag of a Grassmannian at a coordinate subspace.

    Hom(sub, ambient/sub) decomposes into lines of character q - a for q
    ranging over ambient minus sub and a over sub; the bag has size
    |sub| * (|ambient| - |sub|).
    """
    if not (sub.is_effective() and ambient.is_effective()):
        raise ValueError("grass_tangent needs effective bags")
    if not ambient.contains(sub):
        raise ValueError("sub is not contained in ambient")
    quotient = ambient - sub
    out = {}
    for q, kq in quotient._entries.items():
        for a, ka in sub._entries.items():
            c = char_sub(q, a)
            out[c] = out.get(c, 0) + kq * ka
    bag = CharBag.__new__(CharBag)
    bag._entries = {c: k for c, k in out.items() if k}
    return bag


def blowup_tangent(base, nml, e):
    """Tangent bag at a fixed point of the exceptional divisor over a blow-up.

    For the normal direction e, the fiber directions contribute n - e for
    every other normal character n, the base tangent comes along, and e
    itself is the normal direction of the exceptional divisor.  Total size
    is preserved.
    """
    if e not in nml:
        raise ValueError(f"direction {e} not in the normal bag")
    rest = nml - CharBag([e])
    shifted = {}
    for n, k in rest._entries.items():
        c = char_sub(n, e)
        shifted[c] = shifted.get(c, 0) + k
    return base + CharBag(shifted) + CharBag([e])


def _reversed_product(k, values):
    """Digits e_0..e_k of non-negative integers, packed in reverse; returns (r, W).

    r = sum_j e_j * 2^(W*(k-j)): e_0 = 1 is the top digit, e_k the lowest.
    Multiplying the truncated product by (1 + v*z) sends e_j to
    e_j + v*e_(j-1), and r >> W is r with every e_j moved down to the digit
    of e_(j+1) (e_k falls off), so the step is r += v * (r >> W), exact as
    long as no digit ever reaches 2^W.

    Width: for s = sum(values) (all values >= 0), every product of j
    distinct values appears j! times in the expansion of s^j, so
    e_j <= s^j / j!, and the same holds for every prefix of the values.
    s^j / j! grows with j while j < s and falls after, so over j = 0..k
    it is largest at m = min(k, s).  An integer e_j <= s^m / m! is at most
    s^m // m!, so W = (s^m // m!).bit_length() gives every digit a value
    in [0, 2^W) at every step, and nothing carries.
    """
    s = sum(values)
    m = min(k, s)
    width = (s**m // math.factorial(m)).bit_length()
    r = 1 << (k * width)
    for v in values:
        r += v * (r >> width)
    return r, width


def _digits(k, values):
    """[e_0, .., e_k] of non-negative integers, unpacked from `_reversed_product`."""
    r, width = _reversed_product(k, values)
    mask = (1 << width) - 1
    return [(r >> (width * (k - j))) & mask for j in range(k + 1)]


def elem_sym(k, values):
    """k-th elementary symmetric function of the integers in values.

    Kronecker substitution in reversed digits (`_reversed_product`): one
    big-integer product with three integer operations per value, and e_k
    is its lowest base-2^W digit.  With any negative value the values are
    split by sign into P and N = -(the negative ones); the product of
    (1 + v*z) is prod_P (1 + p*z) * prod_N (1 - a*z), so
    e_k = sum_i (-1)^(k-i) * e_i(P) * e_(k-i)(N), both packed as above.
    """
    n = len(values)
    if k < 0 or k > n:
        raise ValueError(f"elementary symmetric index {k} out of range 0..{n}")
    if not values or min(values) >= 0:
        r, width = _reversed_product(k, values)
        return r & ((1 << width) - 1)
    pos = [v for v in values if v > 0]
    neg = [-v for v in values if v < 0]
    ep = _digits(min(k, len(pos)), pos)
    en = _digits(min(k, len(neg)), neg)
    return sum(
        (-1) ** (k - i) * ep[i] * en[k - i]
        for i in range(max(0, k + 1 - len(en)), min(k + 1, len(ep)))
    )


def check_generic(spec, tangent_bags):
    """True iff no character in any tangent bag specializes to zero."""
    for bag in tangent_bags:
        for c, _ in bag._entries.items():
            if specialize(c, spec) == 0:
                return False
    return True

