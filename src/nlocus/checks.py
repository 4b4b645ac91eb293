"""The acceptance checks, shared by `nlocus verify` and the test suite.

Each check takes the run's `localization.Bott`, its points, spec and
workers, raises AssertionError (or the error of the layer it runs: a
StructuralError, or the ValueError of an inadmissible spec) with a message
naming the fixed point, d or weight spec at fault, and returns the value
it verified so that tests can pin it.  CHECKS lists them in the order
`nlocus verify` runs them.

`localization-self-test` reads the run's denominators, `Bott.denominators`
of its spec, and raises a StructuralError when the sum of 1/c_16(T) is
not 0.  `d4-target`, `d5-cross-check` and `spec-independence` read
the run's one pass over d = 4..6, `Bott.degrees`; `spec-independence`
takes one more under a second spec.  Both passes share one route, which
reads the fiber rank count that `rank-invariants` takes over d = 4..10
once it has passed.
"""

import itertools
import math
import random
from fractions import Fraction
from operator import attrgetter

from . import fixpoints as fx
from . import localization as loc
from .formula import closed_form
from .limits import e1_limit, packed, unpack
from .ideals import hilbert_polynomial, quartic_bits, quartics_of_bits, standard_monomials
from .poly import monomial_gcd, render_monomial
from .torus import (
    DEFAULT_WEIGHTS,
    FALLBACK_WEIGHTS,
    elem_sym,
    shared_products,
    visit_schedule,
)

QUARTIC_DEGREE = 38475  # deg NL(W,4)


def _require(ok, message):
    if not ok:
        raise AssertionError(message)


def euler_census(bott):
    """The stratum counts, checked against the census and the blow-up Euler count."""
    counts = fx.stratum_counts(bott.points)
    _require(counts == fx.CENSUS, f"counts {counts} != {fx.CENSUS}")
    _require(
        sum(counts) == fx.euler_characteristic_oracle(),
        "census disagrees with the blow-up Euler count",
    )
    return counts


# (the kind of row in a message, its FixedPoint field, the degree of every row)
_ROW_KINDS = (
    ("tangent character", "tangent", 0),
    ("pencil row", "pencil_chars", 2),
    ("quartic row", "quartics", 4),
)


def _row_fault(fp):
    """The first row fault of fp, as a message, or None: a tangent count
    other than 16, a row of the wrong degree, or a quartic count other than 19."""
    if len(fp.tangent) != loc.DIM:
        return f"{fp.tag}{fp.provenance}: {len(fp.tangent)} tangent characters != {loc.DIM}"
    for kind, field, degree in _ROW_KINDS:
        rows = getattr(fp, field)
        if any(map(degree.__ne__, map(sum, rows))):
            row = next(row for row in rows if sum(row) != degree)
            return f"{fp.tag}{fp.provenance}: {kind} {row} has degree {sum(row)} != {degree}"
    if len(fp.quartics) != 19:
        return f"{fp.tag}{fp.provenance}: rank != 19"
    return None


def rank_invariants(bott):
    """16 tangent characters of degree 0, 2 pencil rows of degree 2, 19
    distinct quartics of degree 4 and 4d standard monomials for d = 4..10
    at every fixed point, whose quartics hold every quartic multiple of its
    pencil.

    The degrees are what make the Bott sums spec-independent under the
    shift of `localization`: adding c to every weight must leave each
    tangent weight and move each degree-d fiber weight by c*d.

    Every point's rows are checked first, so a row fault at any point is
    reported before any rank fault.  Each kind's degree is checked once
    over the distinct rows of all the points (a loaded cache shares one
    tuple per distinct row); only when that or a count fails are the points
    walked in list order, so the fault named is the first point's.  The
    ranks are the Bott sums' own count, `Bott.ranks`, over d = 4..10: one
    count per distinct cell, kept for the route, and a fault names the
    first failing d and its first point.  The certificate, last, reads each
    point's quartic bit set: fewer than 19 bits, a repeated row at a point
    whose cells were loaded rather than derived from its rows, is `rank !=
    19`, and a pencil multiple missing from it names the first point and
    its largest missing quartic.
    """
    points = bott.points
    counts_hold = all(len(fp.tangent) == loc.DIM and len(fp.quartics) == 19 for fp in points)
    degrees_hold = all(
        all(map(degree.__eq__, map(sum, set().union(*map(attrgetter(field), points)))))
        for _, field, degree in _ROW_KINDS
    )
    if not (counts_hold and degrees_hold):
        raise AssertionError(next(filter(None, map(_row_fault, points))))
    bott.ranks(range(4, 11))
    for fp in points:
        try:
            quartics = quartic_bits(fp.quartics)
            missing = fx.quartic_span(fx.QUADRIC_MULTIPLES, fp.pencil_chars) & ~quartics
        except (KeyError, ValueError):  # a row of its degree with a negative exponent
            raise AssertionError(f"{fp.tag}{fp.provenance}: a row is not a monomial") from None
        if quartics.bit_count() != 19:
            raise AssertionError(f"{fp.tag}{fp.provenance}: rank != 19")
        if missing:
            m = render_monomial(quartics_of_bits(missing)[0])
            raise AssertionError(
                f"{fp.tag}{fp.provenance}: pencil multiple {m} not in its quartics"
            )


def hilbert_oracles(bott):
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


def localization_self_test(bott):
    """Bott's formula on the class 1: the sum of 1/c_16(T) over the fixed
    points is the integral of 1 over the 16-dimensional space, which is 0.
    It runs over the common denominator of the Bott sums, as the sum of the
    `Bott.denominators` scales; a nonzero sum raises StructuralError giving
    it.  Returns the number of points.

    Bott's formula on c_16(T) itself, the count of the points, holds by
    construction and is not checked: scales[p] * dens[p] is the common
    denominator at every point, so that sum is the number of points for
    any tangent data.
    """
    common, _, scales = bott.denominators(bott.spec)
    vanishing = Fraction(sum(scales), common)
    if vanishing:
        raise fx.StructuralError(
            f"sum of 1/c_16(T) over {len(bott.points)} fixed points is"
            f" {vanishing}, not 0, under {bott.spec.values}"
        )
    return len(bott.points)


def d4_target(bott):
    """deg NL(W,4) is QUARTIC_DEGREE."""
    degree = bott.degrees[0].degree
    _require(degree == QUARTIC_DEGREE, f"d=4 degree {degree} != {QUARTIC_DEGREE}")
    return degree


def d5_cross_check(bott):
    """deg NL(W,5) equals the published closed form at d = 5."""
    degree = bott.degrees[1].degree
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


def spec_independence(bott):
    """The degrees for d = 4..6 are the same under a second admissible spec,
    one that is not an affine image of the run's (`_alternate_spec`).

    The second spec's pass comes first: an inadmissible second spec raises
    the ValueError of `localization.Bott.denominators`, naming it, the
    first point in list order that it kills and the character, whatever
    the run's own pass would do on such points.
    """
    alternate = _alternate_spec(bott.spec)
    theirs = bott.degree_range(4, 6, alternate)
    for a, b in zip(bott.degrees, theirs):
        _require(
            a.degree == b.degree,
            f"d={a.d}: {a.degree} under {bott.spec.values} != {b.degree} under"
            f" {alternate.values}",
        )
    return [r.degree for r in bott.degrees]


def algebra_kernel(bott):
    """The fiber staircase, the E1 flat limits by `e1_limit`, the Kronecker kernel.

    Every presentation of every E1 direction, taken to its flat limit by the
    run rule on its e-strings (no elimination, no Groebner basis), must give
    4d standard monomials for d = 2..5 and the 8 cubics that
    `fixpoints.e1_points` writes down for it; a failure names the direction,
    its pair and d.  `torus.shared_products`, the kernel of every Bott sum,
    is checked through `elem_sym` against brute force and `elem_sym_dp`, and
    directly on sequences that share prefixes as the fixed points of a sum
    do and apply repeated long cells through their coefficients, also at
    the width edge.  Returns the number of presentations checked.
    """
    _require(
        len(standard_monomials(((2, 0, 0, 0), (0, 2, 0, 0)), 5)) == 20,
        "standard_monomials(<x0^2, x1^2>, 5) != 20",
    )
    pairs = fx.enumerate_pairs()
    # only the pairs with a common plane, so that no G2 point is built
    _, zs = fx.split_strata([pair for pair in pairs if any(monomial_gcd(pair.q1, pair.q2))])
    checked = 0
    for z in zs:
        pair = pairs[z.pair_index]
        for record in fx.e1_points(z):
            where = f"E1 direction {record.direction} over pair {z.pair_index}"
            want = packed(record.limit_cubics)
            for other, q, mp in fx._deformations((pair.q1, pair.q2), record.direction):
                try:
                    cubics = e1_limit(other, q, mp)[3]
                except AssertionError as exc:
                    raise AssertionError(f"{where}: {exc}") from None
                if cubics != want:
                    raise AssertionError(
                        f"{where}, d=3: limit cubics {record.limit_cubics}"
                        f" != e-string limit {fx._sort_monos(unpack(cubics))}"
                    )
                checked += 1
    rng = random.Random(17)
    for n in range(1, 13):
        values = [rng.randint(0, 9) for _ in range(n)]
        for k in range(n + 1):
            brute = sum(map(math.prod, itertools.combinations(values, k)))
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
    # sequence 1 reuses the prefix [0, 1], 2 pops back to [0] and applies
    # cell 2 again (cell 2 goes in through its coefficients both times), 3
    # shares nothing, and the last two have the largest sum, 200 copies of
    # 977 again: the width comes from them, e_16 sits in its top bit, and
    # both 100-value cells go in through their coefficients
    weights = [[rng.randint(0, 1000) for _ in range(n)] for n in (40, 30, 30, 50)]
    weights += [[977] * 100, [977] * 100]
    seqs = [[0, 1, 2], [0, 1, 3], [0, 2], [4], [4, 5], [5, 4]]
    concatenated = [[v for c in seq for v in weights[c]] for seq in seqs]
    largest = max(map(sum, concatenated))
    got = list(shared_products(loc.DIM, visit_schedule(seqs), weights, largest))
    for i, (seq, values) in enumerate(zip(seqs, concatenated)):
        *_, e15, e16 = elem_sym_coefficients(loc.DIM, values)
        want = (e16, e15)
        if got[i] != want:
            raise AssertionError(
                f"shared_products sequence {i} {seq} after {seqs[i - 1] if i else []}:"
                f" (e_16, e_15) = {got[i]} != {want}"
            )
    return checked


def elem_sym_coefficients(k, values):
    """e_0..e_k of values, by truncated product accumulation: each value
    takes e_i to e_i + v*e_(i-1), in place from i = k down."""
    coeffs = [1] + [0] * k
    for v in values:
        for i in range(k, 0, -1):
            coeffs[i] += v * coeffs[i - 1]
    return coeffs


def elem_sym_dp(k, values):
    """e_k of values, by `elem_sym_coefficients`."""
    return elem_sym_coefficients(k, values)[k]


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
