import random
from fractions import Fraction

import pytest

from nlocus.poly import (
    ParseError,
    Polynomial,
    mono_key,
    monomial_gcd,
    monomials_of_degree,
    parse,
    render,
)


def mono(text):
    return parse(text).lm()


def test_parse_basic():
    p = parse("x0^2+x1*x2")
    assert len(p) == 2
    assert p.degree() == 2


def test_parse_cancellation():
    assert not parse("x0^2*x1 - x0^2*x1")
    assert render(parse("x0^2*x1 - x0^2*x1")) == "0"


def test_parse_mixed_t():
    p = parse("x1^2 + t*x0*x2")
    assert len(p) == 2
    terms = dict(p.terms)
    assert terms[(1, 0, 1, 0, 1)] == 1  # t-degree 1 in the second term
    assert terms[(0, 2, 0, 0, 0)] == 1


def test_parse_rational_coefficients():
    p = parse("1/2*x0 - 3*x1 + 2/4*x0")
    assert p == parse("x0 - 3*x1")


def test_parse_implicit_multiplication():
    assert parse("2x0x1^2") == parse("2*x0*x1^2")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x0^2 + x5")
    assert "x5" in str(err.value)
    with pytest.raises(ParseError):
        parse("x0 + ")
    with pytest.raises(ParseError):
        parse("x0 @ x1")
    with pytest.raises(ParseError):
        parse("x0^")


@pytest.mark.parametrize("text", ["_", "é", "x0 + _y", "²", "x0^²"])
def test_parse_rejects_a_stray_character_with_a_position(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert isinstance(err.value.pos, int)


@pytest.mark.parametrize(
    "text, pos",
    [("1" * 5000, 0), ("x0^" + "9" * 5000, 3), ("3/" + "7" * 5000, 2)],
    ids=["coefficient", "exponent", "denominator"],
)
def test_parse_rejects_a_number_too_long_for_int(text, pos):
    # Python refuses to convert a string of more than 4300 digits to an int
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.pos == pos
    assert str(err.value) == f"number of 5000 digits is too long (at position {pos})"


def test_render_round_trip_examples():
    for text in ("x0^2+x1*x2", "x1^2+x0*x2*t", "0", "-x0+2*x1", "3/7*t^4"):
        p = parse(text)
        assert parse(render(p)) == p


def _random_poly(rng, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        m = [0] * 5
        for _ in range(rng.randint(0, maxdeg)):
            m[rng.randrange(5)] += 1
        terms[tuple(m)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(terms)


def test_render_round_trip_random():
    rng = random.Random(1)
    for _ in range(200):
        p = _random_poly(rng)
        assert parse(render(p)) == p


def test_ring_laws_random():
    rng = random.Random(2)
    for _ in range(60):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + parse("-1") * a == Polynomial()


def test_product_degree_additive_on_homogeneous():
    a = parse("x0^2+x1*x2")
    b = parse("x0*x3 - x2^2")
    assert (a * b).degree() == 4


def test_mul_examples():
    assert parse("x0+x1") * parse("x0-x1") == parse("x0^2-x1^2")
    p = parse("x0^2") * parse("x0+x1+x2+x3")
    assert len(p) == 4
    assert p.degree() == 3


def test_pencil_times_quadrics_has_19_distinct_quartics():
    # brute-force oracle: distinct products of <x0^2, x1^2> with quadric monomials
    quadrics = monomials_of_degree(2)
    products = set()
    for q in (mono("x0^2"), mono("x1^2")):
        for m in quadrics:
            products.add(tuple(x + y for x, y in zip(q, m)))
    assert len(products) == 19


def test_monomial_gcd():
    assert monomial_gcd(mono("x0*x1"), mono("x0*x2")) == mono("x0")
    assert monomial_gcd(mono("x0^2"), mono("x0*x1")) == mono("x0")
    assert monomial_gcd(mono("x0*x1"), mono("x2*x3")) == (0, 0, 0, 0, 0)


def test_monomials_of_degree_counts():
    assert monomials_of_degree(0) == [(0, 0, 0, 0, 0)]
    assert len(monomials_of_degree(2)) == 10
    assert len(monomials_of_degree(4)) == 35
    with pytest.raises(ValueError):
        monomials_of_degree(-1)


def test_monomials_of_degree_sorted_strictly():
    monos = monomials_of_degree(3)
    keys = [mono_key(m) for m in monos]
    assert keys == sorted(keys, reverse=True)
    assert len(set(keys)) == len(keys)


def test_grevlex_order_spot_checks():
    # graded first: any cubic beats any quadric
    assert mono_key(mono("x3^3")) > mono_key(mono("x0^2"))
    # same degree: reverse-lex ties break on the cheapest variable
    assert mono_key(mono("x0^2")) > mono_key(mono("x0*x1"))
    assert mono_key(mono("x0*x1")) > mono_key(mono("x1^2"))
    # t is the cheapest variable
    assert mono_key(mono("x3")) > mono_key(mono("t"))


def test_canonical_form_unique():
    a = parse("x0*x1 + x2^2")
    b = parse("x2^2 + x0*x1")
    assert render(a) == render(b)
    assert hash(a) == hash(b)
