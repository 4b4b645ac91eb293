"""Acceptance suite: every criterion exact, one line printed per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
checks come from `nlocus.checks`, which `nlocus verify` runs too.
"""

import re

import pytest

from nlocus import checks
from nlocus import fixpoints as fx
from nlocus import localization as loc
from nlocus.formula import (
    DIVISOR,
    INTERPOLATION_DEGREE_BOUND,
    closed_form,
    compare,
    inner_polynomial,
    interpolate,
)
from nlocus.poly import render_monomial
from nlocus.torus import WeightSpec, char_add


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_quartic_surface_headline(points, weights):
    assert checks.d4_target(loc.Bott(points, weights)) == 38475
    report(1, "degree --d 4 returns exactly 38475")


def test_criterion_2_formula_reproduction(points, weights):
    results = loc.Bott(points, weights).degree_range(5, 53)
    assert len(results) == 49  # over-determined: 33 nodes already suffice
    fitted = interpolate([(r.d, r.degree) for r in results])
    assert fitted.degree() == INTERPOLATION_DEGREE_BOUND
    target = closed_form()
    outcome = compare(fitted, target)
    assert outcome.equal, str(outcome)
    assert checks.d5_cross_check(loc.Bott(points, weights)) == results[0].degree
    # leading inner coefficient and divisor, recovered from the fit itself
    inner = inner_polynomial(fitted)
    assert inner is not None
    assert inner.coefficients[-1] == 106984881
    assert DIVISOR == 2**27 * 3**9 * 5**2 * 7**2 * 11 * 13
    report(2, "interpolation at d=5..53 equals the closed form, coefficientwise")


def test_criterion_3_fixed_point_census(points, weights):
    counts = checks.euler_census(loc.Bott(points, weights))
    assert counts == (21, 180, 324)
    assert sum(counts) == 525 == fx.euler_characteristic_oracle() == 45 + 24 * 8 + 36 * 8
    report(3, "census (21, 180, 324), total 525, matches the Euler oracle")


def test_criterion_4_rank_invariants(points, weights):
    checks.rank_invariants(loc.Bott(points, weights))
    report(
        4, "every quartic system has 19 independent quartics and fiber rank 4d, d=4..10"
    )


def test_rank_invariants_names_a_point_with_a_repeated_tangent_character(points, weights):
    fp = points[400]
    bad = fp._replace(tangent=tuple(sorted(fp.tangent + fp.tangent[:1])))
    message = f"{fp.tag}{fp.provenance}: 17 tangent characters != 16"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        checks.rank_invariants(loc.Bott([bad], weights))


@pytest.mark.parametrize(
    "field, kind, degree",
    [
        ("tangent", "tangent character", 0),
        ("pencil_chars", "pencil row", 2),
        ("quartics", "quartic row", 4),
    ],
)
def test_rank_invariants_names_a_point_with_a_row_of_the_wrong_degree(
    points, weights, field, kind, degree
):
    fp = points[300]
    rows = getattr(fp, field)
    row = (rows[0][0] + 1,) + rows[0][1:]
    bad = fp._replace(**{field: (row,) + rows[1:]})
    message = f"{fp.tag}{fp.provenance}: {kind} {row} has degree {degree + 1} != {degree}"
    # alone, and among the 524 good points, which fault nothing
    for altered in ([bad], [*points[:300], bad, *points[301:]]):
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            checks.rank_invariants(loc.Bott(altered, weights))


@pytest.mark.parametrize(
    "field, kind, degree",
    [
        ("tangent", "tangent character", 0),
        ("pencil_chars", "pencil row", 2),
        ("quartics", "quartic row", 4),
    ],
)
@pytest.mark.parametrize("first, second", [(150, 450), (300, 301)])
def test_rank_invariants_names_the_first_point_of_a_shared_bad_row(
    points, weights, field, kind, degree, first, second
):
    # one bad row tuple at two points, as a loaded cache shares it: the
    # distinct rows hold it once, and the first point in list order is named
    fp = points[first]
    rows = getattr(fp, field)
    row = (rows[0][0] + 1,) + rows[0][1:]
    altered = list(points)
    for i in (first, second):
        altered[i] = points[i]._replace(**{field: (row,) + getattr(points[i], field)[1:]})
    message = f"{fp.tag}{fp.provenance}: {kind} {row} has degree {degree + 1} != {degree}"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        checks.rank_invariants(loc.Bott(altered, weights))


def test_rank_invariants_names_a_loaded_point_with_a_repeated_quartic(
    tmp_path, points, weights
):
    # G2E1(10, 7) of a loaded cache with quartic 1 replaced by quartic 0: 19
    # rows of degree 4 and the loaded cells of its 19 distinct quartics, so
    # its fiber ranks and pencil multiples pass, and only its quartic bit
    # set, 18 bits, shows the rank
    path = tmp_path / "fixpoints.json"
    fx.save_cache(points, path)
    loaded = fx.load_cache(path)
    i = next(i for i, fp in enumerate(loaded) if f"{fp.tag}{fp.provenance}" == "G2E1(10, 7)")
    fp = loaded[i]
    bad = fp._replace(quartics=fp.quartics[:1] + fp.quartics[:1] + fp.quartics[2:])
    bad.cells = fp.cells
    altered = [*loaded[:i], bad, *loaded[i + 1 :]]
    message = "G2E1(10, 7): rank != 19"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        checks.rank_invariants(loc.Bott(altered, weights))


def _repeated_quartic(fp):
    """fp with its 19th quartic replaced by a copy of its first: 18 distinct."""
    return fp._replace(quartics=fp.quartics[:18] + fp.quartics[:1])


def test_rank_invariants_names_a_point_with_a_repeated_quartic(points, weights):
    # the 300 good points before it have counted the cells it shares with them
    altered = points[:300] + [_repeated_quartic(points[300])] + points[301:]
    message = "fiber rank 17 != 16 at E2(11, 0), d=4"
    with pytest.raises(fx.StructuralError, match=f"^{re.escape(message)}$"):
        checks.rank_invariants(loc.Bott(altered, weights))


def test_rank_invariants_reports_a_row_fault_before_any_rank_fault(points, weights):
    # the rank fault is at an earlier point than the row fault
    fp = points[400]
    bad = fp._replace(tangent=tuple(sorted(fp.tangent + fp.tangent[:1])))
    altered = points[:300] + [_repeated_quartic(points[300])] + points[301:400]
    altered += [bad] + points[401:]
    message = f"{fp.tag}{fp.provenance}: 17 tangent characters != 16"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        checks.rank_invariants(loc.Bott(altered, weights))


@pytest.mark.parametrize("first, second", [(300, 400), (400, 300)])
def test_rank_invariants_names_the_first_bad_point_in_list_order(
    points, weights, first, second
):
    good = [fp for i, fp in enumerate(points) if i not in (first, second)]
    altered = good[:200] + [_repeated_quartic(points[first])]
    altered += good[200:350] + [_repeated_quartic(points[second])] + good[350:]
    fp = points[first]
    message = f"fiber rank 17 != 16 at {fp.tag}{fp.provenance}, d=4"
    with pytest.raises(fx.StructuralError, match=f"^{re.escape(message)}$"):
        checks.rank_invariants(loc.Bott(altered, weights))


def test_rank_invariants_names_a_point_whose_quartics_miss_a_pencil_multiple(
    points, weights
):
    # the pencils of G2(1,) and E2(11, 0) swapped: each point's limit ideal no
    # longer contains its pencil, and the first one in list order is named
    a, b = points[0], points[300]
    pencil = {char_add(p, q) for p in b.pencil_chars for q in fx.QUADRICS}
    missing = pencil - set(a.quartics)
    assert missing and a.pencil_chars != b.pencil_chars
    altered = [a._replace(pencil_chars=b.pencil_chars), *points[1:300]]
    altered += [b._replace(pencil_chars=a.pencil_chars), *points[301:]]
    quartic = render_monomial(fx._sort_monos(missing)[0])
    message = f"{a.tag}{a.provenance}: pencil multiple {quartic} not in its quartics"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        checks.rank_invariants(loc.Bott(altered, weights))


@pytest.mark.parametrize(
    "field, row", [("pencil_chars", (3, -1, 0, 0)), ("quartics", (5, -1, 0, 0))]
)
def test_rank_invariants_names_a_point_with_a_row_that_is_not_a_monomial(
    points, weights, field, row
):
    # the row has its degree, so only the pencil check, last, sees it
    fp = points[0]
    bad = fp._replace(**{field: (row, *getattr(fp, field)[1:])})
    bad.cells = fp.cells
    message = f"{fp.tag}{fp.provenance}: a row is not a monomial"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        checks.rank_invariants(loc.Bott([bad, *points[1:]], weights))


def test_criterion_5_hilbert_polynomial_oracle(points, weights):
    checks.hilbert_oracles(loc.Bott(points, weights))
    report(5, "hilbert_polynomial returns 4t on the three orbit representatives")


def test_criterion_6_localization_self_test(points, weights, unshared_sum):
    assert checks.localization_self_test(loc.Bott(points, weights)) == 525
    raw = unshared_sum(4, weights, True)
    assert raw % 4 == 0
    assert raw == 153900
    report(6, "sum of 1/c_16(T) over the 525 fixed points is 0; raw d=4 sum divisible by 4")


def test_criterion_7_spec_independence(points, weights):
    assert checks.spec_independence(loc.Bott(points, weights))[0] == 38475
    report(7, "degrees for d=4..6 agree for weight specs (0,1,5,18) and (0,1,7,23)")


def test_criterion_8_algebra_kernel(points, weights):
    assert checks.algebra_kernel(loc.Bott(points, weights)) == 252
    report(
        8,
        "20 standard monomials of <x0^2, x1^2> at d=5; e-string elimination gives"
        " the closed-form E1 limit on all 252 presentations; shared_products exact",
    )


@pytest.mark.parametrize(
    "values, alternate",
    [
        ((1, 2, 8, 24), (0, 1, 5, 18)),  # (0, 1, 7, 23) + 1
        ((0, 2, 14, 46), (0, 1, 5, 18)),  # 2 * (0, 1, 7, 23)
        ((-1, 1, 13, 45), (0, 1, 5, 18)),  # 2 * (0, 1, 7, 23) - 1
        ((0, 1, 5, 18), (0, 1, 7, 23)),
    ],
)
def test_spec_independence_never_compares_an_affine_image(
    monkeypatch, points, values, alternate
):
    # a*w + c (a != 0) leaves every Bott summand as it is, so a spec must be
    # compared with a spec outside its affine class; the second spec's pass
    # comes first
    compared = []
    real = loc._localize

    def recording(bott, ds, spec):
        compared.append((spec.values, list(ds)))
        return real(bott, ds, spec)

    monkeypatch.setattr(loc, "_localize", recording)
    assert checks.spec_independence(loc.Bott(points, WeightSpec(values)))[0] == 38475
    assert compared == [(alternate, [4, 5, 6]), (values, [4, 5, 6])]


def test_spec_independence_fails_on_inadmissible_alternate(points, weights):
    # (0, 7, -1, 0) specializes to 0 under the alternate spec (0, 1, 7, 23)
    # but not under the main spec (0, 1, 5, 18)
    bad = list(points)
    fp = bad[200]
    bad[200] = fp._replace(tangent=tuple(sorted(fp.tangent + ((0, 7, -1, 0),))))
    bott = loc.Bott(bad, weights)
    with pytest.raises(ValueError) as info:
        checks.spec_independence(bott)
    message = str(info.value)
    assert "(0, 1, 7, 23) is not admissible" in message
    assert f"(0, 7, -1, 0) at {fp.tag}{fp.provenance}" in message
