"""Monomial ideals in x0..x3 as staircase cells and quartic sets, and the
Groebner toolkit that the tests hold them to.

The commands run the first half.  A monomial ideal is given by its
generators' exponent 4-tuples, the format of the fixed-point path;
standard monomials and Hilbert polynomials are both read off one
staircase decomposition of such an ideal (`staircase_cells`), with no
Groebner basis and no `Polynomial`.  `staircase_cells` is the general
path, for any generators, and the reference.  A fixed point's generators
are quartic monomials, one 35-bit set (`quartic_bits`) whose bit order
gives both its sorted quartics (`quartics_of_bits`) and its cells
(`cells_of_bits`, one table of the 35 quartics; `quartic_cell` gives a
cache file's cells as the same objects).  A caller that holds the cells
passes them to `cells_hilbert_numerator`, `cells_hilbert_polynomial` or
`staircase_runs` directly.

The second half is the tests' oracle, which no command runs: `Ideal`
over the `Polynomial` ring of poly.py, reduced Groebner bases
(`reduce_gb`, through gbcore), normal forms, `kbase`, `set_t_zero` and
saturation with respect to t by one elimination Groebner basis
(`saturate_t`).  It stays in the package because
`perfbench/traced_cli.TARGETS` names `saturate_t`, `reduce_gb`, `kbase`
and `gbcore.groebner` (ROADMAP items 1 and 2).  Its generators must be
homogeneous in the x-variables (the deformation parameter t carries
weight 0 in this grading; the deformed pencils q + t*m' are exactly of
this kind).
"""

import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from . import gbcore
from .formula import UnivariateRationalPoly
from .poly import Polynomial, mono_key, monomials_of_degree


class Ideal:
    """A homogeneous ideal given by a non-empty list of nonzero generators."""

    __slots__ = ("generators",)

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

    def __setattr__(self, *_):
        raise AttributeError("Ideal is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not Ideal:
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"Ideal(generators={self.generators!r})"

    def __reduce__(self):
        return Ideal, (self.generators,)

    def __iter__(self):
        return iter(self.generators)


class GroebnerBasis(namedtuple("GroebnerBasis", "basis leading_terms")):
    """Reduced basis under the fixed order, plus its leading-term ideal."""

    __slots__ = ()


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


class Cell(namedtuple("Cell", "base free bound lower")):
    """One staircase cell (see `staircase_cells`), a namedtuple with an instance dict.

    `hilbert_term` is a `functools.cached_property`, so a cell shared between
    quartic systems (`quartic_cells`) gives its term once per process, and
    the term is derived once per shape (`_cell_term`): the 401 distinct
    cells of the fixed points have 52 shapes.  Equality, hashing, order and
    repr are the tuple's.
    """

    __repr__ = tuple.__repr__

    @functools.cached_property
    def hilbert_term(self):
        """3! times the cell's number of degree-d monomials for large d, as 4
        integer coefficients in d, low degree first."""
        return _cell_term(len(self.free), self.lower, self.bound)


# the free coordinates of a cell, by which of (i, j, k) sit at their cap
_FREE = {
    at_cap: tuple(v for v in range(3) if at_cap[v])
    for at_cap in itertools.product((False, True), repeat=3)
}


def staircase_cells(lead_x):
    """The monomials outside <lead_x> in every degree, as finitely many cells.

    Capping (a0, a1, a2) at the largest exponent of each variable among the
    generators does not change which generators divide x^a, so the capped
    grid splits the complement of the ideal into cells.  A cell is a
    `Cell` (base, free, bound, lower): base = (i, j, k) is a point of the
    capped grid, free lists the coordinates at their cap (they range upward
    from it, the others are fixed), a3 < bound is the x3-exponent range
    (bound is math.inf when no generator divides the cell) and
    lower = i + j + k.
    Cells the ideal covers entirely are left out.  The list does not depend
    on the degree: it is derived once per ideal and expanded at each degree
    by staircase_runs.
    """
    c0, c1, c2, _ = map(max, zip(*lead_x)) if lead_x else (0, 0, 0, 0)
    cells = []
    for i, j, k in itertools.product(range(c0 + 1), range(c1 + 1), range(c2 + 1)):
        bound = min(
            (g3 for g0, g1, g2, g3 in lead_x if g0 <= i and g1 <= j and g2 <= k),
            default=math.inf,
        )
        if bound:
            cells.append(Cell((i, j, k), _FREE[i == c0, j == c1, k == c2], bound, i + j + k))
    return cells


# the 35 quartics in increasing grevlex order, x3-exponent non-increasing: bit
# n of a set of quartics stands for QUARTICS[n], so its highest bit is a least
# x3-exponent and its bits from the highest down are its quartics, sorted
QUARTICS = tuple(m[:4] for m in reversed(monomials_of_degree(4)))
QUARTIC_BITS = {m: 1 << n for n, m in enumerate(QUARTICS)}
_BOUNDS = (math.inf, *(m[3] for m in QUARTICS))  # the x3 bound of a set, by bit_length
# the quartics of x_v-exponent at least 1, 2, 3, 4, for v = 0, 1, 2
_AT_LEAST = [
    [sum(bit for m, bit in QUARTIC_BITS.items() if m[v] >= e) for e in range(1, 5)]
    for v in range(3)
]
# the quartics dividing x0^i x1^j x2^k times a power of x3, by 25i + 5j + k:
# none of x0-exponent above i, x1-exponent above j or x2-exponent above k
_DIVIDES = [
    ((1 << len(QUARTICS)) - 1) ^ (a0 | a1 | a2)
    for a0, a1, a2 in itertools.product(*[(*masks, 0) for masks in _AT_LEAST])
]
# one cell object per (grid index, at-cap flags, bound), shared across calls
_QUARTIC_CELLS = {}


def quartic_cell(base, free, bound):
    """The one `Cell` object (base, free, bound, sum(base)) of `quartic_cells`:
    the same object that `quartic_cells` gives, before or after, for a cell
    with these values.  base is an (i, j, k) sequence inside the 5 x 5 x 5
    grid and free a sequence of distinct coordinates among 0, 1, 2."""
    i, j, k = base
    key = (25 * i + 5 * j + k, 0 in free, 1 in free, 2 in free, bound)
    cell = _QUARTIC_CELLS.get(key)
    if cell is None:
        cell = _QUARTIC_CELLS[key] = Cell((i, j, k), _FREE[key[1:4]], bound, i + j + k)
    return cell


def quartic_bits(quartics):
    """The 35-bit set of exponent 4-tuples of quartic monomials: bit n stands
    for QUARTICS[n].  A monomial that is not a quartic is a ValueError naming it."""
    try:
        return functools.reduce(operator.or_, map(QUARTIC_BITS.__getitem__, quartics), 0)
    except KeyError as exc:
        raise ValueError(f"not a quartic monomial: {exc.args[0]}") from None


def quartics_of_bits(bits):
    """The quartics of a 35-bit set, largest first in grevlex."""
    return tuple([m for m, bit in reversed(QUARTIC_BITS.items()) if bits & bit])


def cells_of_bits(bits):
    """tuple(staircase_cells(quartics)) for the 35-bit set of the quartics.

    Its caps count the `_AT_LEAST` masks it meets, and a grid point's bound
    is read off the highest bit it shares with the point's `_DIVIDES` mask.
    A point with bound 0 ends its row, a row covered at its first point ends
    its plane, and a plane covered at its first point ends the walk.  Equal
    cells, in a call or across calls, are one object, `quartic_cell`'s.
    """
    c0, c1, c2 = [
        (bits & m1 > 0) + (bits & m2 > 0) + (bits & m3 > 0) + (bits & m4 > 0)
        for m1, m2, m3, m4 in _AT_LEAST
    ]
    cells = []
    for i in range(c0 + 1):
        for j in range(c1 + 1):
            for k in range(c2 + 1):
                index = 25 * i + 5 * j + k
                bound = _BOUNDS[(bits & _DIVIDES[index]).bit_length()]
                if not bound:
                    break
                key = (index, i == c0, j == c1, k == c2, bound)
                cell = _QUARTIC_CELLS.get(key)
                if cell is None:
                    free = _FREE[key[1:4]]
                    cell = _QUARTIC_CELLS[key] = Cell((i, j, k), free, bound, i + j + k)
                cells.append(cell)
            if not (bound or k):
                break
        if not (bound or j or k):
            break
    return tuple(cells)


def quartic_cells(quartics):
    """`cells_of_bits` of the `quartic_bits` of quartic exponent 4-tuples."""
    return cells_of_bits(quartic_bits(quartics))


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


@functools.cache
def _cell_term(f, lower, bound):
    """3! times a cell's monomial count in degree d, for large d, as 4
    coefficients; it depends only on the cell's shape (f free coordinates,
    lower degree, x3 bound), and each shape's is kept."""
    term = _binomial_term(f, f - lower)
    if bound != math.inf:
        term = [a - b for a, b in zip(term, _binomial_term(f, f - lower - bound))]
    return tuple(term)


def cells_hilbert_numerator(cells):
    """3! times the Hilbert polynomial, in d, of S/<lead_x> from the staircase
    cells of lead_x, as 4 integer coefficients, low degree first.

    The cells are a Stanley decomposition of S/<lead_x>.  A cell with f free
    coordinates, lower degree l and x3 bound b holds
    C(d - l + f, f) - C(d - l - b + f, f) monomials of degree d for large d
    (no second term when b is math.inf), a polynomial in d; 3! times it has
    integer coefficients.  Each cell's term is `Cell.hilbert_term`, kept on
    the cell, and the terms are added as integers.
    """
    a0 = a1 = a2 = a3 = 0
    for cell in cells:
        t0, t1, t2, t3 = cell.hilbert_term
        a0 += t0
        a1 += t1
        a2 += t2
        a3 += t3
    return a0, a1, a2, a3


def cells_hilbert_polynomial(cells):
    """Hilbert polynomial, in d, of S/<lead_x> from the staircase cells of lead_x:
    `cells_hilbert_numerator` divided by 3!."""
    return UnivariateRationalPoly([Fraction(c, 6) for c in cells_hilbert_numerator(cells)])
