import random
from fractions import Fraction

import pytest

from nlocus.formula import (
    DIVISOR,
    INNER_COEFFS,
    UnivariateRationalPoly,
    closed_form,
    compare,
    inner_polynomial,
    interpolate,
)


def test_interpolate_line_through_three_points():
    p = interpolate([(0, 1), (1, 3), (2, 5)])
    assert p.coefficients == (1, 2)  # 2d + 1


def test_interpolate_rejects_degenerate_nodes():
    with pytest.raises(ValueError):
        interpolate([(1, 1)])
    with pytest.raises(ValueError):
        interpolate([(1, 1), (1, 2), (2, 3)])


def test_interpolate_is_exact_on_random_nodes():
    rng = random.Random(13)
    for _ in range(20):
        xs = rng.sample(range(-30, 30), rng.randint(2, 8))
        nodes = [(x, rng.randint(-10**12, 10**12)) for x in xs]
        p = interpolate(nodes)
        for x, v in nodes:
            assert p(x) == v


def test_interpolate_recovers_polynomial():
    target = UnivariateRationalPoly([Fraction(1, 3), 0, -7, Fraction(5, 2)])
    nodes = [(d, target(d)) for d in range(4)]
    assert interpolate(nodes).coefficients == target.coefficients


def test_closed_form_shape():
    cf = closed_form()
    assert cf.degree() == 32
    assert len(INNER_COEFFS) == 30
    assert cf.coefficients[-1] == Fraction(106984881, 6 * DIVISOR)
    assert cf(4) == 0  # the binomial factor vanishes; 38475 is NOT this value
    assert cf(3) == 0 and cf(2) == 0


def test_closed_form_factors_back_to_inner_polynomial():
    inner = inner_polynomial(closed_form())
    assert inner is not None
    assert inner.coefficients == tuple(Fraction(c) for c in reversed(INNER_COEFFS))
    assert inner.coefficients[0] == 136886449647246114816000
    assert inner_polynomial(UnivariateRationalPoly([1, 1])) is None


def test_closed_form_is_integer_valued():
    cf = closed_form()
    for d in range(5, 101):
        value = cf(d)
        assert value.denominator == 1
        assert value > 0


def test_closed_form_divisible_by_shifted_binomial():
    cf = closed_form()
    for root in (2, 3, 4):
        q, rem = cf.divmod(UnivariateRationalPoly([-root, 1]))
        assert not rem.coefficients
        cf = q


def test_compare():
    p = UnivariateRationalPoly([1, 2])
    assert compare(p, p).equal
    report = compare(UnivariateRationalPoly([1, 2]), UnivariateRationalPoly([0, 2]))
    assert not report.equal
    assert report.first_mismatch == 0
    assert "degree 0" in str(report)


def test_poly_str_and_eval():
    p = UnivariateRationalPoly([-1, 0, Fraction(3, 2)])
    assert str(p) == "3/2*d^2-1"
    assert p(2) == 5
    assert UnivariateRationalPoly([-1, 0, Fraction(3, 2), 0, Fraction(0)]) == p
    assert UnivariateRationalPoly([0, 0]).coefficients == ()
    assert UnivariateRationalPoly([]).degree() == -1
    assert str(UnivariateRationalPoly([])) == "0"


def test_divmod_round_trip():
    a = UnivariateRationalPoly([1, 2, 3, 4])
    b = UnivariateRationalPoly([5, 6])
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree() < b.degree()
