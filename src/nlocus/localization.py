"""Bott localization sums over the fixed points.

For d >= 5 the degree of the locus of degree-d surfaces containing an
elliptic quartic is the sum over fixed points of

    e_16(weights of the degree-d standard monomials) / prod(tangent weights),

all specialized at an admissible integer weight vector.  For d = 4 the
forgetful map contracts a pair of pencils, and the count becomes one quarter
of the sum of Pluecker-weight times e_15 over the same denominators.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from fractions import Fraction

from .fixpoints import StructuralError
from .ideals import standard_monomials
from .torus import CharBag, WeightSpec, check_generic, elem_sym, specialize

DIM = 16  # dimension of the blown-up parameter space


@dataclass(frozen=True)
class DegreeResult:
    d: int
    degree: int
    spec: WeightSpec
    fixpoint_count: int

    def to_json(self):
        return {
            "d": self.d,
            "degree": str(self.degree),
            "spec": list(self.spec.values),
            "fixpointCount": self.fixpoint_count,
        }


def _fiber(fp, d):
    """Degree-d standard monomials at a fixed point, checked to number 4d.

    This is the fiber of the rank-4d quotient bundle: the degree-d monomials
    surviving modulo the quartic system.  A size other than 4d means the
    4-regularity of the limit ideal failed, which is a structural bug.
    """
    if d < 4:
        raise ValueError(f"fiber weights need d >= 4, got {d}")
    std = standard_monomials(fp.quartics, d)
    if len(std) != 4 * d:
        raise StructuralError(
            f"fiber rank {len(std)} != {4 * d} at {fp.tag}{fp.provenance}, d={d}"
        )
    return std


def ed_weights(fp, d):
    """Characters of the degree-d standard monomials: the rank-4d fiber."""
    return CharBag(_fiber(fp, d))


def _fiber_values(fp, d, values):
    """Specialized weights of the degree-d fiber, unsorted."""
    w0, w1, w2, w3 = values
    std = _fiber(fp, d)
    return [a0 * w0 + a1 * w1 + a2 * w2 + a3 * w3 for a0, a1, a2, a3 in std]


def _tangent_denominator(fp, spec):
    den = 1
    for c in fp.tangent_chars():
        v = specialize(c, spec)
        if v == 0:
            raise ValueError(
                f"weight spec {spec.values} kills a tangent character at"
                f" {fp.tag}{fp.provenance}; run check_generic first"
            )
        den *= v
    return den


def _numerator(fp, d, spec):
    """Bott numerator: c_16 of the fiber for d >= 5, Pi * c_15 of it for d = 4."""
    values = _fiber_values(fp, d, spec.values)
    if d > 4:
        return elem_sym(DIM, values)
    plucker = -(
        specialize(fp.pencil_chars[0], spec) + specialize(fp.pencil_chars[1], spec)
    )
    return plucker * elem_sym(DIM - 1, values)


def contribution(fp, d, spec):
    """One Bott summand for d >= 4: the numerator over c_16 of the tangent."""
    return Fraction(_numerator(fp, d, spec), _tangent_denominator(fp, spec))


def _sum_chunk(args):
    points, ds, spec = args
    totals = {d: Fraction(0) for d in ds}
    for fp in points:
        den = _tangent_denominator(fp, spec)
        for d in ds:
            totals[d] += Fraction(_numerator(fp, d, spec), den)
    return totals


def _localize(points, ds, spec, workers):
    """Exact Bott sums for each degree in ds (4 means the Pluecker-twisted sum)."""
    if workers <= 1 or len(points) < 2 * workers:
        return _sum_chunk((points, ds, spec))
    chunk = (len(points) + workers - 1) // workers
    jobs = [
        (points[i : i + chunk], ds, spec) for i in range(0, len(points), chunk)
    ]
    with multiprocessing.Pool(workers) as pool:
        parts = pool.map(_sum_chunk, jobs)
    totals = {d: Fraction(0) for d in ds}
    for part in parts:
        for d, v in part.items():
            totals[d] += v
    return totals


def degree_range(dmin, dmax, spec, points, workers=1):
    """Checked DegreeResults for every d in dmin..dmax (d >= 4), one localization pass.

    Every sum must be a non-negative integer.  At d = 4 the Pluecker-twisted
    sum must also be divisible by 4, and the degree is its quarter.
    """
    if dmin < 4:
        raise ValueError(f"degree_range needs dmin >= 4, got {dmin}")
    ds = list(range(dmin, dmax + 1))
    totals = _localize(points, ds, spec, workers)
    results = []
    for d in ds:
        degree, rest = divmod(totals[d], 4 if d == 4 else 1)
        if rest or degree < 0:
            raise StructuralError(
                f"localization sum for d={d} is {totals[d]}, not a non-negative"
                f" integer{' divisible by 4' if d == 4 else ''}"
            )
        results.append(DegreeResult(d, degree, spec, len(points)))
    return results


def degree_nl(d, spec, points, workers=1):
    """Degree of the locus of degree-d surfaces containing an elliptic quartic."""
    return degree_range(d, d, spec, points, workers)[0]


def localization_self_test(points, spec):
    """Sum of c_16(T)/c_16(T) over the fixed points: must equal their number."""
    total = Fraction(0)
    for fp in points:
        den = _tangent_denominator(fp, spec)
        total += Fraction(den, den)
    return total


def admissible_spec(points, preferred, strict=False, seed=0):
    """Validate a spec against every tangent bag, with documented fallbacks.

    With strict=True an inadmissible preferred spec raises instead of
    falling back (used when the spec was given explicitly on the CLI).
    """
    from .torus import find_admissible

    bags = [fp.tangent for fp in points]
    if check_generic(preferred, bags):
        return preferred
    if strict:
        raise ValueError(
            f"weight spec {preferred.values} is not admissible: some tangent"
            " character specializes to zero"
        )
    return find_admissible(bags, preferred=preferred, seed=seed)
