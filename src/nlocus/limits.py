"""Flat limits of deformed pencils of quadric monomials, by the run rule.

`e1_limit` takes a deformed pencil <x^other, x^q + t*x^m'>, m' = q*x^e, to
its flat limit at t = 0 with no Groebner basis.  The pencil is homogeneous
when t has the torus character -e, so each degree-d slice of its ideal
splits along the e-strings a, a + e, a + 2e, ... of monomials, and on one
string the power of t of a term is fixed by its position.  On a string the
generator multiples are unit vectors (multiples of x^other) and edges
e_j + e_(j+1) (multiples of x^q + t*x^m').  A maximal run of edges spans
every vector on its positions if a unit lies on it, and the vectors of
alternating sum 0 if none does; so the lowest positions of the span, the
limit, are every unit, every lower end of an edge, and the top of each run
that holds a unit: exactly the t = 0 fibre of the saturation in t.

A set of monomials is one int, bit `_pack(m)` for each monomial m
(`packed`, `unpack`), and the run rule works on whole degrees at once.
"""

import functools
import operator

from .poly import monomials_of_degree, render_monomial
from .torus import char_sub


def _pack(m):
    """m0 + 8*m1 + 64*m2 + 512*m3, linear, so _pack(m + e) = _pack(m) + _pack(e)."""
    return m[0] + 8 * m[1] + 64 * m[2] + 512 * m[3]


# (d, the number of degree-d monomials, the bit set of the packed multipliers
# of degree d - 2)
_DEGREES = [
    (d, len(monomials_of_degree(d)), sum(1 << _pack(m) for m in monomials_of_degree(d - 2)))
    for d in range(2, 6)
]
# the bit of each of the 121 exponent 4-tuples of degree 2..5
_BITS = {m[:4]: 1 << _pack(m) for d in range(2, 6) for m in monomials_of_degree(d)}


def packed(monomials):
    """The bit set of exponent 4-tuples of degree 2..5: bit _pack(m) for each m."""
    return functools.reduce(operator.or_, map(_BITS.__getitem__, monomials), 0)


def unpack(bits):
    """The frozenset of exponent 4-tuples of a bit set that `e1_limit` gives."""
    return frozenset(m for m, bit in _BITS.items() if bits & bit)


def _shift(bits, n):
    """The positions of bits moved by n, down when n < 0."""
    return bits << n if n >= 0 else bits >> -n


def _pivots(units, lows, pe):
    """The lowest positions of the span of the unit vectors at the bits of
    units and the edges from each bit p of lows to p + pe: every unit, every
    lower end, and the top of each maximal run of edges that holds a unit.

    The run tops are _shift(lows, pe) & ~lows.  reach grows from the units
    along edges, reach |= _shift(reach & lows, pe), until it stops: it then
    holds a run's top exactly when a unit lies on that run, and apart from
    the tops only units and lower ends.  So lows | reach is the span's
    lowest positions.  Every position p + pe reached is the top of an edge,
    so no shift down drops one.
    """
    reach = units
    while True:
        grown = reach | _shift(reach & lows, pe)
        if grown == reach:
            return lows | reach
        reach = grown


def e1_limit(other, q, mp):
    """{d: the bit set (`packed`) of the degree-d monomials of the flat limit
    at t = 0 of <x^other, x^q + t*x^mp>} for d = 2..5, by the run rule on
    e-strings.

    With e = mp - q, the pencil is homogeneous when t has the torus
    character -e, so a degree-d slice splits along the e-strings a, a + e,
    a + 2e, ... of monomials, and the power of t of a term is its position j
    on its string, up to a shift.  On a string the slice is spanned by
    sum_j c_j*t^j*x^(a + j*e) for c in the rational span C of the multiples
    x^b*x^other (a unit vector) and x^b*(x^q + t*x^mp) (an edge, entries 1
    at b + q and the next position b + mp).  At t = s the slice is
    diag(s^j)*C, which tends as s -> 0 to the unit vectors at the lowest
    positions of the vectors of C: the flat limit, exactly, and monomial.

    Lemma: on a maximal run of edges, positions i..k, the edges span the
    vectors of alternating sum 0, whose lowest positions are i..k-1; a unit
    on the run adds the one vector of alternating sum 1 and with it k.  Runs
    and units off runs have disjoint supports, so the limit is every unit,
    every lower end b + q, and the top of each run that holds a unit.

    Positions are packed monomials, stepped by pe = _pack(e), and one
    degree's positions are one int: its units are the multipliers' bit set
    shifted up by _pack(other), its lower ends the same set shifted by
    _pack(q).  Packing is injective on integer vectors with entries in
    -7..7, and two degree-d monomials, d <= 5, less e, |e_i| <= 2, differ
    by no more; so p + pe is a packed monomial only as the next monomial on
    p's string.  No position is negative: every packed monomial lies in
    0..2560, and the top of an edge, b + q + pe = b + mp, is one, so a shift
    down by -pe drops no monomial.  The standard monomials number the
    degree's total less the pivots' bit count; fewer or more than 4d is an
    AssertionError naming the pencil and d.
    """
    pe, po, pq = _pack(char_sub(mp, q)), _pack(other), _pack(q)
    limits = {}
    for d, total, multipliers in _DEGREES:
        pivots = _pivots(multipliers << po, multipliers << pq, pe)
        n = total - pivots.bit_count()
        if n != 4 * d:
            pencil = f"<{render_monomial(other)}, {render_monomial(q)} + t*{render_monomial(mp)}>"
            raise AssertionError(f"{pencil}, d={d}: {n} standard monomials != {4 * d}")
        limits[d] = pivots
    return limits
