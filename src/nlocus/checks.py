"""The acceptance checks, shared by `nlocus verify` and the test suite.

Each check takes (points, spec, workers), raises AssertionError (or the
error of the layer it runs: a StructuralError, or the ValueError of an
inadmissible spec) with a message naming the fixed point, d or weight
spec at fault, and returns the value it verified so that tests can pin
it.  CHECKS lists them in the order `nlocus verify` runs them.
"""

from __future__ import annotations

import itertools
import math
import random

from . import fixpoints as fx
from . import localization as loc
from .formula import closed_form
from .ideals import (
    Ideal,
    hilbert_polynomial,
    kbase,
    reduce_gb,
    saturate_t,
    set_t_zero,
    staircase_cells,
    staircase_runs,
)
from .poly import Polynomial, mono_divides, monomials_of_degree, parse, render_monomial
from .torus import (
    DEFAULT_WEIGHTS,
    FALLBACK_WEIGHTS,
    char_add,
    elem_sym,
    shared_products,
)

QUARTIC_DEGREE = 38475  # deg NL(W,4)


def _require(ok, message):
    if not ok:
        raise AssertionError(message)


def euler_census(points, spec, workers):
    """The stratum counts, checked against the census and the blow-up Euler count."""
    counts = fx.stratum_counts(points)
    _require(counts == fx.CENSUS, f"counts {counts} != {fx.CENSUS}")
    _require(
        sum(counts) == fx.euler_characteristic_oracle(),
        "census disagrees with the blow-up Euler count",
    )
    return counts


def rank_invariants(points, spec, workers):
    """16 tangent characters of degree 0, 2 pencil rows of degree 2, 19
    quartics of degree 4 and 4d standard monomials for d = 4..10 at every
    fixed point.

    The degrees are what make the Bott sums spec-independent under the
    shift of `localization`: adding c to every weight must leave each
    tangent weight and move each degree-d fiber weight by c*d.

    The points share few distinct staircase cells (401 among the 525
    points' 13,617), so each distinct cell's degree-d monomials are counted
    once for every d, and a point's count is the sum over its cells.
    """
    ds = range(4, 11)
    cell_counts = {}  # cell -> its number of degree-d monomials, for d in ds
    for fp in points:
        if len(fp.tangent) != loc.DIM:
            raise AssertionError(
                f"{fp.tag}{fp.provenance}: {len(fp.tangent)} tangent characters"
                f" != {loc.DIM}"
            )
        for kind, rows, degree in (
            ("tangent character", fp.tangent, 0),
            ("pencil row", fp.pencil_chars, 2),
            ("quartic row", fp.quartics, 4),
        ):
            if any(map(degree.__ne__, map(sum, rows))):
                row = next(row for row in rows if sum(row) != degree)
                raise AssertionError(
                    f"{fp.tag}{fp.provenance}: {kind} {row} has degree"
                    f" {sum(row)} != {degree}"
                )
        if len(fp.quartics) != 19:
            raise AssertionError(f"{fp.tag}{fp.provenance}: rank != 19")
        for cell in fp.cells:
            if cell not in cell_counts:
                cell_counts[cell] = [
                    sum(count for _, _, count in staircase_runs([cell], d)) for d in ds
                ]
        # the row of zeros gives a point without cells the counts 0
        totals = map(sum, zip([0] * len(ds), *map(cell_counts.__getitem__, fp.cells)))
        for d, n in zip(ds, totals):
            if n != 4 * d:
                raise AssertionError(
                    f"{fp.tag}{fp.provenance}: kbase({d}) = {n} != {4 * d}"
                )


def hilbert_oracles(points, spec, workers):
    """hilbert_polynomial is 4t on the three orbit representatives."""
    # <x1^2, x2^2>, <x1*x2, x1^2, x2^3> and <x0^2, x0*x1, x0*x2^2, x1^4>
    for gens in (
        ((0, 2, 0, 0), (0, 0, 2, 0)),
        ((0, 1, 1, 0), (0, 2, 0, 0), (0, 0, 3, 0)),
        ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 2, 0), (0, 4, 0, 0)),
    ):
        hp = hilbert_polynomial(gens)
        _require(
            hp.coefficients == (0, 4),
            f"<{', '.join(map(render_monomial, gens))}>: {hp} != 4*d",
        )


def localization_self_test(points, spec, workers):
    """Bott's formula on c_16(T) and on 1: the sum of c_16(T)/c_16(T) over
    the fixed points is their number, and the sum of 1/c_16(T) is 0."""
    total = loc.localization_self_test(points, spec)
    _require(total == len(points), f"sum of ones = {total} != {len(points)}")
    return total


def d4_target(points, spec, workers):
    """deg NL(W,4) is QUARTIC_DEGREE."""
    degree = loc.degree_nl(4, spec, points, workers).degree
    _require(degree == QUARTIC_DEGREE, f"d=4 degree {degree} != {QUARTIC_DEGREE}")
    return degree


def d5_cross_check(points, spec, workers):
    """deg NL(W,5) equals the published closed form at d = 5."""
    degree = loc.degree_nl(5, spec, points, workers).degree
    expected = closed_form()(5)
    _require(degree == expected, f"d=5 degree {degree} != {expected}")
    return degree


def _alternate_spec(spec):
    """FALLBACK_WEIGHTS, or DEFAULT_WEIGHTS when spec is a*FALLBACK_WEIGHTS + c.

    Every Bott summand is unchanged when the weights w become a*w + c with
    a != 0: the shift by c (see `localization`) and the scaling by a, since
    each summand has degree 0 in the weights.  Such a spec is exactly one
    whose difference vector (w1 - w0, w2 - w0, w3 - w0) is parallel to
    FALLBACK_WEIGHTS' own, and comparing the two would check nothing.
    """
    u, v = ([w - s.values[0] for w in s.values[1:]] for s in (spec, FALLBACK_WEIGHTS))
    pairs = itertools.combinations(range(3), 2)
    parallel = all(u[i] * v[j] == u[j] * v[i] for i, j in pairs)
    return DEFAULT_WEIGHTS if parallel else FALLBACK_WEIGHTS


def spec_independence(points, spec, workers):
    """The degrees for d = 4..6 are the same under a second admissible spec,
    one that is not an affine image of spec (`_alternate_spec`)."""
    alternate = loc.admissible_spec(points, _alternate_spec(spec))
    ours = loc.degree_range(4, 6, spec, points, workers)
    theirs = loc.degree_range(4, 6, alternate, points, workers)
    for a, b in zip(ours, theirs):
        _require(
            a.degree == b.degree,
            f"d={a.d}: {a.degree} under {spec.values} != {b.degree} under"
            f" {alternate.values}",
        )
    return [r.degree for r in ours]


def _deformations(pencil, e):
    """(other generator, deformed generator) for each monomial presentation of e.

    A presentation deforms the pencil generator q for which q*x^e is a
    genuine quadric monomial m', giving the Polynomial q + t*m'.
    """
    out = []
    for j, qj in enumerate(pencil):
        shift = char_add(e, qj)
        if all(v >= 0 for v in shift):
            out.append((pencil[1 - j], Polynomial({qj + (0,): 1, shift + (1,): 1})))
    return out


def deformation_ideal(other, deformed):
    """The deformed pencil <x^other, deformed> over Q[t].

    Saturating this ideal in t gives the flat limit that `fixpoints.e1_points`
    writes down in closed form (the oracle route).
    """
    return Ideal([Polynomial.monomial(other + (0,)), deformed])


def saturation_limit(other, deformed):
    """The flat limit by Buchberger: saturate in t, set t = 0, reduce, take cubics.

    A flat limit keeps the Hilbert function of the deformed pencil, 4d in
    every degree d >= 2, which is checked for d = 2..5.  A saturation that
    misses an element gives a larger count in the degree of that element,
    and every limit here is generated in degrees 2 to 4.
    """
    gb = reduce_gb(set_t_zero(saturate_t(deformation_ideal(other, deformed))))
    for g in gb.basis:
        if not g.is_monomial():
            raise AssertionError(f"t=0 limit deforming to {deformed} is not monomial: {g}")
    cells = staircase_cells([m[:4] for m in gb.leading_terms])
    for d in range(2, 6):
        n = sum(count for _, _, count in staircase_runs(cells, d))
        if n != 4 * d:
            raise AssertionError(
                f"t=0 limit deforming to {deformed} has {n}"
                f" standard monomials of degree {d}, not {4 * d}"
            )
    cubics = [
        m[:4]
        for m in monomials_of_degree(3)
        if any(mono_divides(lt, m) for lt in gb.leading_terms)
    ]
    return fx._sort_monos(cubics)


def algebra_kernel(points, spec, workers):
    """kbase, the E1 flat limits against saturation, the Kronecker kernel.

    Every presentation of every E1 direction is taken to its flat limit by
    Buchberger saturation of its deformed pencil, which must have the
    Hilbert function of a flat limit and give the 8 cubics that
    `fixpoints.e1_points` writes down in closed form for that direction.
    `torus.shared_products`, the kernel of every Bott sum, is checked
    through `elem_sym` against brute force and `elem_sym_dp`, and directly
    on sequences that share prefixes as the fixed points of a sum do.
    Returns the number of presentations checked.
    """
    _require(
        len(kbase(reduce_gb(Ideal([parse("x0^2"), parse("x1^2")])), 5)) == 20,
        "kbase(<x0^2,x1^2>, 5) != 20",
    )
    pairs = fx.enumerate_pairs()
    _, zs = fx.split_strata(pairs)
    checked = 0
    for z in zs:
        pair = pairs[z.pair_index]
        for record in fx.e1_points(z):
            for other, deformed in _deformations((pair.q1, pair.q2), record.direction):
                oracle = saturation_limit(other, deformed)
                if record.limit_cubics != oracle:
                    raise AssertionError(
                        f"E1 direction {record.direction} over pair {z.pair_index},"
                        f" deformed {deformed}:"
                        f" limit {record.limit_cubics} != saturation {oracle}"
                    )
                checked += 1
    rng = random.Random(17)
    for n in range(1, 13):
        values = [rng.randint(0, 9) for _ in range(n)]
        for k in range(n + 1):
            brute = sum(math.prod(c) for c in itertools.combinations(values, k))
            got = elem_sym(k, values)
            if got != brute:
                raise AssertionError(f"elem_sym({k}, {values}) = {got} != {brute}")
    # production size, e_16 of 200 values: 200 copies of 977 put e_16 in the
    # top bit of the derived width
    for values in ([977] * 200, [rng.randint(0, 1000) for _ in range(200)]):
        got, want = elem_sym(loc.DIM, values), elem_sym_dp(loc.DIM, values)
        if got != want:
            raise AssertionError(
                f"elem_sym({loc.DIM}, {len(values)} values in [{min(values)},"
                f" {max(values)}]) = {got} != {want}"
            )
    # sequence 1 reuses the prefix [0, 1], 2 pops back to [0], 3 shares
    # nothing, and the last has the largest sum, 200 copies of 977 again: the
    # width comes from it, and e_16 sits in its top bit
    weights = [[rng.randint(0, 1000) for _ in range(n)] for n in (40, 30, 30, 50)]
    weights += [[977] * 100, [977] * 100]
    seqs = [[0, 1, 2], [0, 1, 3], [0, 2], [4], [4, 5]]
    shared = [0, 2, 1, 0, 1]
    got = shared_products(loc.DIM, seqs, shared, weights)
    for i, seq in enumerate(seqs):
        values = [v for c in seq for v in weights[c]]
        want = (elem_sym_dp(loc.DIM, values), elem_sym_dp(loc.DIM - 1, values))
        if got[i] != want:
            raise AssertionError(
                f"shared_products sequence {i} {seq}, {shared[i]} indices shared:"
                f" (e_16, e_15) = {got[i]} != {want}"
            )
    return checked


def elem_sym_dp(k, values):
    """k-th elementary symmetric function by truncated product accumulation."""
    coeffs = [1] + [0] * k
    for v in values:
        for i in range(k, 0, -1):
            coeffs[i] += v * coeffs[i - 1]
    return coeffs[k]


CHECKS = (
    ("euler-census", euler_census),
    ("rank-invariants", rank_invariants),
    ("hilbert-oracles", hilbert_oracles),
    ("localization-self-test", localization_self_test),
    ("d4-target", d4_target),
    ("d5-cross-check", d5_cross_check),
    ("spec-independence", spec_independence),
    ("algebra-kernel", algebra_kernel),
)
