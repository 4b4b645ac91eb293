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
"""

from .poly import monomials_of_degree, render_monomial
from .torus import char_sub


def _pack(m):
    """m0 + 8*m1 + 64*m2 + 512*m3, linear, so _pack(m + e) = _pack(m) + _pack(e)."""
    return m[0] + 8 * m[1] + 64 * m[2] + 512 * m[3]


# (d, the number of degree-d monomials, the packed multipliers of degree d - 2)
_DEGREES = [
    (d, len(monomials_of_degree(d)), [_pack(m) for m in monomials_of_degree(d - 2)])
    for d in range(2, 6)
]
# the exponent 4-tuple of each of the 121 packed monomials of degree 2..5
_UNPACK = {_pack(m): m[:4] for d in range(2, 6) for m in monomials_of_degree(d)}


def _pivots(units, lows, pe):
    """The lowest positions of the span of the unit vectors at units and the
    edges from each p in lows to p + pe: every unit, every lower end, and
    the top of each maximal run of edges that holds a unit."""
    pivots = units | lows
    for top in {p + pe for p in lows} - lows:
        p = top
        while p not in units:
            p -= pe
            if p not in lows:
                break
        else:
            pivots.add(top)
    return pivots


def e1_limit(other, q, mp):
    """{d: the degree-d monomials of the flat limit at t = 0 of
    <x^other, x^q + t*x^mp>} for d = 2..5, by the run rule on e-strings.

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

    Positions are walked in packed monomials, by steps of pe = _pack(e).
    Packing is injective on integer vectors with entries in -7..7, and two
    degree-d monomials, d <= 5, less e, |e_i| <= 2, differ by no more; so
    p + pe is a packed monomial only as the next monomial on p's string.
    Fewer or more than 4d standard monomials is an AssertionError naming
    the pencil and d.
    """
    pe, po, pq = _pack(char_sub(mp, q)), _pack(other), _pack(q)
    limits = {}
    for d, total, multipliers in _DEGREES:
        lows = {b + pq for b in multipliers}
        pivots = _pivots({b + po for b in multipliers}, lows, pe)
        n = total - len(pivots)
        if n != 4 * d:
            pencil = f"<{render_monomial(other)}, {render_monomial(q)} + t*{render_monomial(mp)}>"
            raise AssertionError(f"{pencil}, d={d}: {n} standard monomials != {4 * d}")
        limits[d] = frozenset(map(_UNPACK.__getitem__, pivots))
    return limits
