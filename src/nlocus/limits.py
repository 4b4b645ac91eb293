"""Flat limits of deformed pencils of quadric monomials, by linear algebra.

`e1_limit` takes a deformed pencil <x^other, x^q + t*x^m'>, m' = q*x^e, to
its flat limit at t = 0 with no Groebner basis.  The pencil is homogeneous
when t has the torus character -e, so each degree-d slice of its ideal
splits along the e-strings a, a + e, a + 2e, ... of monomials, and on one
string the power of t of a term is fixed by its position.  The limit of the
slice is then, string by string, the monomials at the lowest-position
pivots of an integer echelon form of the generator multiples on that
string: exactly the t = 0 fibre of the saturation in t.
"""

from __future__ import annotations

import math

from .poly import render_monomial
from .torus import char_sub


def _pack(m):
    """m0 + 8*m1 + 64*m2 + 512*m3, linear, so _pack(m + e) = _pack(m) + _pack(e)."""
    return m[0] + 8 * m[1] + 64 * m[2] + 512 * m[3]


def _unpack(p):
    return p & 7, p >> 3 & 7, p >> 6 & 7, p >> 9


def _e_string(e):
    """p -> (a, j) for packed monomials p = a + j*e, j >= 0, a - e not a monomial."""
    pe, up = _pack(e), [(3 * i, v) for i, v in enumerate(e) if v > 0]
    # e = m' - q for quadrics m' and q has one or two positive entries
    (s1, v1), (s2, v2) = up if len(up) == 2 else up * 2

    def position(p):
        j = min((p >> s1 & 7) // v1, (p >> s2 & 7) // v2)
        return p - j * pe, j

    return position


def _add_row(pivots, a, pe, low, row):
    """Reduce row, {position: int} on string a with lowest entry at low, by
    fraction-free elimination against the rows in pivots, keyed by the packed
    monomial at their lowest position, and keep what is left."""
    while True:
        pivot = pivots.get(a + low * pe)
        if pivot is None:
            pivots[a + low * pe] = row
            return
        p, r = pivot[low], row[low]
        new = {k: p * v for k, v in row.items()}
        for k, v in pivot.items():
            new[k] = new.get(k, 0) - r * v
        row = {k: v for k, v in new.items() if v}
        if not row:
            return
        g = math.gcd(*row.values())
        row = {k: v // g for k, v in row.items()}
        low = min(row)


def e1_limit(other, q, mp):
    """{d: the degree-d monomials of the flat limit at t = 0 of
    <x^other, x^q + t*x^mp>} for d = 2..5, by linear algebra along e-strings.

    With e = mp - q, the pencil is homogeneous when t has the torus
    character -e, so a degree-d slice splits along the e-strings a, a + e,
    a + 2e, ... of monomials, and the power of t of a term is its position j
    on its string, up to a shift.  On a string the slice is spanned by
    sum_j c_j*t^j*x^(a + j*e) for c in the rational span C of the multiples
    x^b*x^other (a unit vector) and x^b*(x^q + t*x^mp) (adjacent entries 1).
    At t = s the slice is diag(s^j)*C, which tends as s -> 0 to the unit
    vectors at the lowest-position pivots of an echelon basis of C: the
    flat limit, exactly, and monomial.  Fewer or more than 4d standard
    monomials, or a binomial multiple whose terms are not adjacent on one
    string, is an AssertionError naming the pencil and d.
    """
    e = char_sub(mp, q)
    position, pe = _e_string(e), _pack(e)
    po, pq, pm = _pack(other), _pack(q), _pack(mp)
    pencil = f"<{render_monomial(other)}, {render_monomial(q)} + t*{render_monomial(mp)}>"
    limits, multipliers = {}, [0]  # the packed monomials of degree d - 2
    for d in range(2, 6):
        pivots = {}
        for b in multipliers:
            a, j = position(b + po)
            _add_row(pivots, a, pe, j, {j: 1})
            (a, j), high = position(b + pq), position(b + pm)
            if high != (a, j + 1):
                raise AssertionError(
                    f"{pencil}, d={d}: {render_monomial(_unpack(b + pq))} and"
                    f" t*{render_monomial(_unpack(b + pm))} are not adjacent on one e-string"
                )
            _add_row(pivots, a, pe, j, {j: 1, j + 1: 1})
        n = math.comb(d + 3, 3) - len(pivots)
        if n != 4 * d:
            raise AssertionError(f"{pencil}, d={d}: {n} standard monomials != {4 * d}")
        limits[d] = frozenset(map(_unpack, pivots))
        multipliers = sorted({b + x for b in multipliers for x in (1, 8, 64, 512)})
    return limits
