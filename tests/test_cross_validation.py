"""Dual-route checks against an external computer-algebra system and the
published generator shapes.  sympy is an optional test-only oracle; these
tests skip when it is absent."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from nlocus.ideals import Ideal, kbase, normal_form, reduce_gb
from nlocus.poly import Polynomial, monomials_of_degree, parse

sympy = pytest.importorskip("sympy")

SYMS = sympy.symbols("x0 x1 x2 x3 t")


def to_sympy(p):
    expr = 0
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in zip(SYMS, m):
            term *= v**e
        expr += term
    return expr


def sympy_gb(gens):
    G = sympy.groebner([to_sympy(g) for g in gens], *SYMS, order="grevlex", domain="QQ")
    return sorted(str(sympy.expand(g)) for g in G.exprs)


def our_gb(gens):
    G = reduce_gb(Ideal(gens))
    return sorted(str(sympy.expand(to_sympy(g))) for g in G.basis)


def test_reduce_gb_matches_sympy_on_fixed_cases():
    cases = [
        ["x0*x1 + t*x2^2", "x0*x2"],
        ["x0^2 + x1*x2", "x1^2 - x0*x3", "x2^3"],
        ["x0*x1 - x2*x3", "x0*x2 + x3^2"],
        ["x0^2", "x0*x1", "x0*x2^2", "x1^4"],
    ]
    for texts in cases:
        gens = [parse(t_) for t_ in texts]
        assert our_gb(gens) == sympy_gb(gens)


def _random_x_homogeneous(rng):
    degree = rng.randint(1, 3)
    monos = [m for m in monomials_of_degree(degree)]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        m = list(rng.choice(monos))
        m[4] = rng.randint(0, 1)
        terms[tuple(m)] = Fraction(rng.choice([-2, -1, 1, 2, 3]))
    return Polynomial(terms)


def test_reduce_gb_matches_sympy_randomized():
    rng = random.Random(23)
    produced = 0
    while produced < 25:
        gens = [_random_x_homogeneous(rng) for _ in range(rng.randint(2, 3))]
        if not all(gens):
            continue
        produced += 1
        assert our_gb(gens) == sympy_gb(gens)


def test_e1_saturation_sympy_membership():
    """Saturation generators verified against sympy's division: some t-power
    multiple of each lies back in the deformation ideal."""
    from conftest import deformation_ideal
    from nlocus.ideals import saturate_t, set_t_zero

    I = deformation_ideal((2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 2, 0))
    sat = saturate_t(I)

    x0, x1, x2, x3, t = SYMS
    gens = [x0**2, x0 * x1 + t * x2**2]
    sympy_ideal = sympy.groebner(gens, *SYMS, order="grevlex", domain="QQ")
    for g in reduce_gb(sat).basis:
        expr = sympy.expand(to_sympy(g))
        for power in range(4):
            if sympy_ideal.reduce(expr * t**power)[1] == 0:
                break
        else:
            raise AssertionError(f"no t-power multiple of {g} lies in the ideal")

    limit = set_t_zero(sat)
    limit_strs = sorted(str(sympy.expand(to_sympy(g))) for g in reduce_gb(limit).basis)
    assert "x2**4" in limit_strs


# -- published generator shapes ----------------------------------------------


def test_e2_quartics_are_degree_four_part_of_four_generators(cascade):
    """Every E2 system is <L^2, L*l1, L*f, g> in degree 4, as published."""
    for fp in cascade.e2:
        w = cascade.ws[fp.provenance[0]]
        plane = Polynomial.monomial(w.plane + (0,))
        line = Polynomial.monomial(w.line + (0,))
        doublet = Polynomial.monomial(w.doublet + (0,))
        extra_char = next(
            m for m in fp.quartics if m[w.plane.index(1)] == 0
        )
        four_gens = Ideal(
            [plane * plane, plane * line, plane * doublet,
             Polynomial.monomial(extra_char + (0,))]
        )
        span = set()
        for g in four_gens:
            gdeg = sum(g.lm()[:4])
            for m in monomials_of_degree(4 - gdeg):
                span.add((g * Polynomial.monomial(m)).lm()[:4])
        assert span == set(fp.quartics)


def test_z_tangent_plus_normal_is_pair_tangent(cascade):
    for z in cascade.zs:
        pair = cascade.pairs[z.pair_index]
        assert z.tangent_z + z.normal == pair.tangent


def test_w_tangent_plus_normal_is_record_tangent(cascade):
    seen = 0
    for zi, record in cascade.records:
        z = cascade.zs[zi]
        for w in cascade.ws:
            if w.provenance == (zi, record.direction_index):
                assert w.tangent_w + w.normal == Counter(record.tangent)
                seen += 1
    assert seen == 36


def test_normal_form_consistent_with_sympy():
    gens = [parse("x0*x1 + t*x2^2"), parse("x0*x2")]
    G = reduce_gb(Ideal(gens))
    sG = sympy.groebner(
        [to_sympy(g) for g in gens], *SYMS, order="grevlex", domain="QQ"
    )
    rng = random.Random(29)
    for _ in range(20):
        p = _random_x_homogeneous(rng)
        if not p:
            continue
        ours = sympy.expand(to_sympy(normal_form(p, G)))
        theirs = sympy.expand(sG.reduce(to_sympy(p))[1])
        assert ours == theirs


def test_kbase_counts_match_sympy_quotient_dimension(points):
    """Fiber ranks recomputed from sympy's linear algebra at a few points."""
    rng = random.Random(31)
    sample = rng.sample(points, 4)
    quartic_monos = monomials_of_degree(4)
    for fp in sample:
        rows = []
        for q in fp.quartics:
            row = [0] * len(quartic_monos)
            row[quartic_monos.index(q + (0,))] = 1
            rows.append(row)
        rank = sympy.Matrix(rows).rank()
        assert rank == 19
        G = reduce_gb(Ideal([Polynomial.monomial(q + (0,)) for q in fp.quartics]))
        assert len(kbase(G, 4)) == 35 - 19
