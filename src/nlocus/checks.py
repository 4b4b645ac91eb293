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
from .poly import mono_divides, monomials_of_degree, parse
from .torus import DEFAULT_WEIGHTS, FALLBACK_WEIGHTS, elem_sym

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
    """19 quartics and 4d standard monomials for d = 4..10 at every fixed point."""
    for fp in points:
        _require(len(fp.quartics) == 19, f"{fp.tag}{fp.provenance}: rank != 19")
        cells = staircase_cells(fp.quartics)
        for d in range(4, 11):
            n = sum(count for _, _, count in staircase_runs(cells, d))
            _require(
                n == 4 * d, f"{fp.tag}{fp.provenance}: kbase({d}) = {n} != {4 * d}"
            )


def hilbert_oracles(points, spec, workers):
    """hilbert_polynomial is 4t on the three orbit representatives."""
    for gens in (
        ("x1^2", "x2^2"),
        ("x1*x2", "x1^2", "x2^3"),
        ("x0^2", "x0*x1", "x0*x2^2", "x1^4"),
    ):
        hp = hilbert_polynomial([parse(g).lm()[:4] for g in gens])
        _require(hp.coefficients == (0, 4), f"<{', '.join(gens)}>: {hp} != 4*t")


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


def spec_independence(points, spec, workers):
    """The degrees for d = 4..6 are the same under a second admissible spec."""
    alternate = loc.admissible_spec(
        points, FALLBACK_WEIGHTS if spec != FALLBACK_WEIGHTS else DEFAULT_WEIGHTS
    )
    ours = loc.degree_range(4, 6, spec, points, workers)
    theirs = loc.degree_range(4, 6, alternate, points, workers)
    for a, b in zip(ours, theirs):
        _require(
            a.degree == b.degree,
            f"d={a.d}: {a.degree} under {spec.values} != {b.degree} under"
            f" {alternate.values}",
        )
    return [r.degree for r in ours]


def saturation_limit(other, deformed):
    """The flat limit by Buchberger: saturate in t, set t = 0, reduce, take cubics."""
    gb = reduce_gb(set_t_zero(saturate_t(fx.deformation_ideal(other, deformed))))
    target = fx._t_polynomial(*deformed)
    for g in gb.basis:
        _require(g.is_monomial(), f"t=0 limit deforming to {target} is not monomial: {g}")
    cubics = [
        m[:4]
        for m in monomials_of_degree(3)
        if any(mono_divides(lt, m) for lt in gb.leading_terms)
    ]
    _require(len(cubics) == 8, f"t=0 limit deforming to {target} has {len(cubics)} cubics")
    return fx._sort_monos(cubics)


def algebra_kernel(points, spec, workers):
    """kbase, the E1 flat limits against saturation, elem_sym.

    Every presentation of every E1 direction is taken to its limit both by
    `fixpoints._limit_cubics` (linear algebra over Q[t]) and by Buchberger
    saturation.  Returns the number of presentations checked.
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
        for e, _ in z.normal.entries():
            for other, deformed in fx._deformations((pair.q1, pair.q2), e):
                ours = fx._limit_cubics(other, deformed)
                oracle = saturation_limit(other, deformed)
                _require(
                    ours == oracle,
                    f"E1 direction {e} over pair {z.pair_index},"
                    f" deformed {fx._t_polynomial(*deformed)}:"
                    f" limit {ours} != saturation {oracle}",
                )
                checked += 1
    rng = random.Random(17)
    for n in range(1, 13):
        values = [rng.randint(-9, 9) for _ in range(n)]
        for k in range(n + 1):
            brute = sum(math.prod(c) for c in itertools.combinations(values, k))
            got = elem_sym(k, values)
            _require(got == brute, f"elem_sym({k}, {values}) = {got} != {brute}")
    # production size, e_16 of 200 values: 200 copies of 977 put e_16 in the
    # top bit of the derived width, and mixed signs take the sign split
    for values in ([977] * 200, [rng.randint(-1000, 1000) for _ in range(200)]):
        got, want = elem_sym(loc.DIM, values), elem_sym_dp(loc.DIM, values)
        _require(
            got == want,
            f"elem_sym({loc.DIM}, {len(values)} values in [{min(values)},"
            f" {max(values)}]) = {got} != {want}",
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
