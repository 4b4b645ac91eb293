"""Homogeneous-ideal toolkit: reduced Groebner bases, normal forms,
standard-monomial bases in a fixed degree, saturation with respect to t by
one elimination Groebner basis, and Hilbert polynomials of monomial ideals.

Monomial ideals in x0..x3 are given by their generators' exponent 4-tuples,
the format of the fixed-point path; standard monomials and Hilbert
polynomials are both read off one staircase decomposition of such an ideal
(`staircase_cells`), with no Groebner basis and no `Polynomial`.  A caller
that holds the cells already (`fixpoints.FixedPoint.cells`) passes them to
`cells_hilbert_polynomial` or `staircase_runs` directly.

The other ideals live in the fixed ring of poly.py and back the oracles.
Their generators must be homogeneous in the x-variables (the deformation
parameter t carries weight 0 in this grading; the pipeline's deformed
pencils q + t*m' are exactly of this kind).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import gbcore
from .formula import UnivariateRationalPoly
from .poly import Polynomial, mono_key


@dataclass(frozen=True)
class Ideal:
    """A homogeneous ideal given by a non-empty list of nonzero generators."""

    generators: tuple

    def __init__(self, generators):
        gens = tuple(generators)
        if not gens:
            raise ValueError("ideal needs at least one generator")
        for g in gens:
            if not g:
                raise ValueError("zero generator not allowed")
            if not g.is_x_homogeneous():
                raise ValueError(f"generator not homogeneous in x0..x3: {g}")
        object.__setattr__(self, "generators", gens)

    def __iter__(self):
        return iter(self.generators)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis under the fixed order, plus its leading-term ideal."""

    basis: tuple
    leading_terms: tuple


def reduce_gb(I):
    """The unique reduced Groebner basis of I."""
    gb = gbcore.groebner([g.terms for g in I.generators], mono_key)
    if not gb:
        raise ValueError("zero ideal")
    basis = tuple(Polynomial(g) for g in gb)
    return GroebnerBasis(basis, tuple(g.lm() for g in basis))


def normal_form(p, G):
    """Remainder of p modulo G; no term is divisible by a leading term."""
    return Polynomial(gbcore.normal_form(p.terms, [g.terms for g in G.basis], mono_key))


# the free coordinates of a cell, by which of (i, j, k) sit at their cap
_FREE = {
    at_cap: tuple(v for v in range(3) if at_cap[v])
    for at_cap in itertools.product((False, True), repeat=3)
}


def staircase_cells(lead_x):
    """The monomials outside <lead_x> in every degree, as finitely many cells.

    Capping (a0, a1, a2) at the largest exponent of each variable among the
    generators does not change which generators divide x^a, so the capped
    grid splits the complement of the ideal into cells.  A cell is
    (base, free, bound, lower): base = (i, j, k) is a point of the capped
    grid, free lists the coordinates at their cap (they range upward from
    it, the others are fixed), a3 < bound is the x3-exponent range (bound
    is math.inf when no generator divides the cell) and lower = i + j + k.
    Cells the ideal covers entirely are left out.  The list does not depend
    on the degree: it is derived once per ideal and expanded at each degree
    by staircase_runs.

    The grid is walked row by row, a row being the points (i, j, *).  The
    bounds never increase along a row, so a row ends at its first covered
    point (bound 0), and a row whose first point is covered is covered
    entirely.  A row after a covered row (i, j-1) or above a covered row
    (i-1, j) is covered too and is skipped without being computed.
    """
    c0, c1, c2, _ = map(max, zip(*lead_x)) if lead_x else (0, 0, 0, 0)
    # rows[i, j][k]: least x3-exponent of a generator at the grid point (i, j, k)
    rows = {}
    for g0, g1, g2, g3 in lead_x:
        row = rows.get((g0, g1))
        if row is None:
            row = rows[g0, g1] = [math.inf] * (c2 + 1)
        if g3 < row[g2]:
            row[g2] = g3
    uncovered = [math.inf] * (c2 + 1)
    covered = [0] * (c2 + 1)
    cells = []
    below = None  # the finished rows of plane i - 1
    for i in range(c0 + 1):
        plane = []
        before = None  # the finished row (i, j - 1)
        for j in range(c1 + 1):
            under = below[j] if i else None
            if (j and not before[0]) or (i and not under[0]):
                plane.append(covered)
                before = covered
                continue
            # the least x3-exponent of a generator dividing x0^i x1^j x2^k:
            # minimized along k within the row, then against the finished
            # rows (i, j-1) and (i-1, j)
            row = rows.get((i, j))
            if row is not None:
                row = list(itertools.accumulate(row, min))
                if j:
                    row = list(map(min, before, row))
                if i:
                    row = list(map(min, under, row))
            elif i and j:
                row = list(map(min, before, under))
            else:
                row = before or under or uncovered
            plane.append(row)
            before = row
            free, free_at_cap = _FREE[i == c0, j == c1, False], _FREE[i == c0, j == c1, True]
            for k, bound in enumerate(row):
                if not bound:
                    break
                free_k = free if k < c2 else free_at_cap
                cells.append(((i, j, k), free_k, bound, i + j + k))
        below = plane
    return cells


def staircase_runs(cells, d):
    """The degree-d monomials of staircase cells, as runs (start, step, count).

    A run stands for the exponent 4-tuples start + n*step for 0 <= n < count;
    the steps are differences of two unit vectors (zero for a run of one).
    Runs come in the order of the cells, each run in increasing n.
    """
    runs = []
    for base, free, bound, lower in cells:
        t_hi = d - lower
        if bound <= t_hi:
            t_hi = bound - 1
        if t_hi < 0:
            continue
        i, j, k = base
        if not free:
            if t_hi == d - lower:
                runs.append(((i, j, k, t_hi), (0, 0, 0, 0), 1))
        elif len(free) == 1:
            f = free[0]
            start = [i, j, k, 0]
            start[f] = d - lower + base[f]
            step = [0, 0, 0, 1]
            step[f] = -1
            runs.append((tuple(start), tuple(step), t_hi + 1))
        elif len(free) == 2:
            f1, f2 = free
            step = [0, 0, 0, 0]
            step[f1], step[f2] = 1, -1
            step = tuple(step)
            for a3 in range(t_hi + 1):
                start = [i, j, k, a3]
                start[f2] = d - a3 - lower + base[f2]
                runs.append((tuple(start), step, d - a3 - lower + 1))
        else:
            for a3 in range(t_hi + 1):
                s = d - a3
                for v0 in range(i, s - j - k + 1):
                    runs.append(((v0, j, s - v0 - j, a3), (0, 1, -1, 0), s - v0 - j - k + 1))
    return runs


def standard_monomials(lead_x, d):
    """Degree-d exponent 4-tuples not divisible by any of the given 4-tuples.

    The staircase cells of lead_x, expanded at degree d, instead of a scan
    of all C(d+3,3) monomials.
    """
    if d < 0:
        raise ValueError(f"degree must be non-negative, got {d}")
    cells = staircase_cells(lead_x)
    out = []
    for (a0, a1, a2, a3), (s0, s1, s2, s3), count in staircase_runs(cells, d):
        out.extend(
            (a0 + n * s0, a1 + n * s1, a2 + n * s2, a3 + n * s3) for n in range(count)
        )
    return out


def kbase(G, d):
    """Degree-d monomials in x0..x3 outside the leading-term ideal, largest first.

    Their count is dim(S/I)_d.  Leading terms involving t cannot divide an
    x-monomial and are ignored.
    """
    lead_x = [m[:4] for m in G.leading_terms if m[4] == 0]
    std = standard_monomials(lead_x, d)
    std.sort(key=lambda m: mono_key(m + (0,)), reverse=True)
    return [m + (0,) for m in std]


def set_t_zero(I):
    """Evaluate every generator at t = 0, dropping the ones that vanish."""
    gens = [q for q in (g.subs_t_zero() for g in I.generators) if q]
    if not gens:
        raise ValueError("all generators vanish at t=0")
    return Ideal(gens)


def saturate_t(I):
    """I : t^infinity, by eliminating s from I + <1 - s*t>.

    I : t^infinity = (I + <1 - s*t>) & Q[x0..x3, t] (Cox-Little-O'Shea, ch. 4
    section 4): one Groebner basis under the block order key6, with s as
    the first variable, whose elements free of s form a basis of the
    saturation.
    """
    gens = [{(0,) + m: c for m, c in g.terms.items()} for g in I.generators]
    gens.append({(0, 0, 0, 0, 0, 0): Fraction(1), (1, 0, 0, 0, 0, 1): Fraction(-1)})
    return Ideal(
        Polynomial({m[1:]: c for m, c in g.items()})
        for g in gbcore.groebner(gens, gbcore.key6)
        if all(m[0] == 0 for m in g)
    )


# ---------------------------------------------------------------------------
# Hilbert polynomials of monomial quotients


def hilbert_polynomial(lead_x):
    """Hilbert polynomial of S/<lead_x> for exponent 4-tuples lead_x, in d.

    The generators need not be minimal: a redundant one at most splits the
    staircase cells more finely.
    """
    for m in lead_x:
        if len(m) != 4 or min(m) < 0:
            raise ValueError(f"not an exponent 4-tuple over x0..x3: {m}")
    return cells_hilbert_polynomial(staircase_cells(lead_x))


def _binomial_term(f, shift):
    """3! * C(d + shift, f) as 4 coefficients in d, low degree first.

    C(d + shift, f) = (d + shift)(d + shift - 1)...(d + shift - f + 1) / f!.
    """
    term = [6 // math.factorial(f)]
    for i in range(f):
        term = [(shift - i) * a + b for a, b in zip(term + [0], [0] + term)]
    return term + [0] * (3 - f)


def _cell_term(f, lower, bound):
    """3! times a cell's monomial count in degree d, for large d, as 4 coefficients."""
    term = _binomial_term(f, f - lower)
    if bound != math.inf:
        term = [a - b for a, b in zip(term, _binomial_term(f, f - lower - bound))]
    return tuple(term)


# _cell_term by (free count, lower, bound), kept across calls: the 525
# quartic systems of the cascade need 52 entries
_CELL_TERMS = {}


def cells_hilbert_polynomial(cells):
    """Hilbert polynomial, in d, of S/<lead_x> from the staircase cells of lead_x.

    The cells are a Stanley decomposition of S/<lead_x>.  A cell with f free
    coordinates, lower degree l and x3 bound b holds
    C(d - l + f, f) - C(d - l - b + f, f) monomials of degree d for large d
    (no second term when b is math.inf), a polynomial in d.  Each cell's
    term is an integer polynomial, 3! times that count, taken from a table
    keyed by (f, l, b) and filled on first use; the terms are added as
    integers and divided by 3! once.
    """
    terms = []
    for _, free, bound, lower in cells:
        key = (len(free), lower, bound)
        term = _CELL_TERMS.get(key)
        if term is None:
            term = _CELL_TERMS[key] = _cell_term(*key)
        terms.append(term)
    return UnivariateRationalPoly([Fraction(sum(c), 6) for c in zip(*terms)])
