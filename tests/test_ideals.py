import functools
import math
import random
import re
from fractions import Fraction

import pytest

from nlocus import checks, gbcore, ideals, limits, poly
from nlocus import fixpoints as fx
from nlocus import localization as loc
from nlocus.formula import UnivariateRationalPoly
from nlocus.ideals import (
    Ideal,
    cells_hilbert_numerator,
    cells_hilbert_polynomial,
    hilbert_polynomial,
    kbase,
    normal_form,
    reduce_gb,
    saturate_t,
    set_t_zero,
    standard_monomials,
)
from nlocus.poly import (
    Polynomial,
    mono_divides,
    mono_key,
    monomials_of_degree,
    parse,
    render,
    render_monomial,
)

from conftest import deformation_ideal


def ideal(*texts):
    return Ideal([parse(t) for t in texts])


def gb(*texts):
    return reduce_gb(ideal(*texts))


def exponents(*texts):
    """The exponent 4-tuples of monomials in x0..x3."""
    return [parse(t).lm()[:4] for t in texts]


def test_ideal_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Ideal([])
    with pytest.raises(ValueError):
        Ideal([parse("0")])
    with pytest.raises(ValueError):
        Ideal([parse("x0 + x1^2")])  # not homogeneous in the x-grading


def test_reduce_gb_monomial_ideal_is_itself():
    G = gb("x0^2", "x1^2")
    assert sorted(render(g) for g in G.basis) == ["x0^2", "x1^2"]


def test_reduce_gb_closed_orbit_ideal_is_itself():
    G = gb("x0^2", "x0*x1", "x0*x2^2", "x1^4")
    assert sorted(render(g) for g in G.basis) == ["x0*x1", "x0*x2^2", "x0^2", "x1^4"]


def test_reduce_gb_hand_buchberger_example():
    # S-polynomial chase done by hand for <x0*x1 + t*x2^2, x0*x2>
    G = gb("x0*x1 + t*x2^2", "x0*x2")
    assert sorted(render(g) for g in G.basis) == ["x0*x2", "x0^2*x1", "x2^2*t+x0*x1"]


def test_reduce_gb_membership():
    G = gb("x0*x1 + t*x2^2", "x0*x2")
    assert not normal_form(parse("x0^2*x1"), G)


def test_normal_form_examples():
    G = gb("x0^2", "x1^2")
    assert not normal_form(parse("x0^3"), G)
    assert normal_form(parse("x0*x1*x2 + x0^2"), G) == parse("x0*x1*x2")


def test_normal_form_of_generator_combinations():
    rng = random.Random(11)
    gens = [parse("x0*x1 + t*x2^2"), parse("x0*x2"), parse("x1^3")]
    G = reduce_gb(Ideal(gens))
    monos = monomials_of_degree(2)
    for _ in range(20):
        member = Polynomial()
        for g in gens:
            m = monos[rng.randrange(len(monos))]
            member = member + g * Polynomial.monomial(m, rng.randint(-3, 3))
        assert not normal_form(member, G)


def test_normal_form_quartics_against_orbit_ideal():
    G = gb("x0^2", "x0*x1", "x0*x2^2", "x1^4")
    survivors = [m for m in monomials_of_degree(4) if normal_form(Polynomial.monomial(m), G)]
    assert len(survivors) == 16
    assert len(kbase(G, 4)) == 16


def test_kbase_pencil_counts_and_members():
    G = gb("x0^2", "x1^2")
    kb5 = kbase(G, 5)
    assert len(kb5) == 20
    assert parse("x0*x1*x2^3").lm() in kb5
    assert parse("x0*x3^4").lm() in kb5
    assert len(kbase(G, 4)) == 16


def test_kbase_irrelevant_ideal_empty():
    G = gb("x0", "x1", "x2", "x3")
    assert kbase(G, 1) == []


def test_kbase_errors_on_negative_degree():
    with pytest.raises(ValueError):
        kbase(gb("x0"), -1)


def test_kbase_matches_naive_filter():
    # staircase enumeration vs the obvious divisibility filter
    samples = [
        gb("x0^2", "x1^2"),
        gb("x0^2", "x0*x1", "x0*x2^2", "x1^4"),
        gb("x0*x1", "x2*x3"),
        gb("x0^3", "x1*x2"),
    ]
    for G in samples:
        for d in range(0, 9):
            naive = [
                m
                for m in monomials_of_degree(d)
                if not any(mono_divides(lt, m) for lt in G.leading_terms)
            ]
            assert kbase(G, d) == naive


def test_standard_monomials_free_directions():
    # <x1^4>: complement grows cubically, staircase must handle 3 free axes
    # all C(d+3, 3) monomials of degree d, less the x1^4 multiples
    assert len(standard_monomials([(0, 4, 0, 0)], 3)) == math.comb(6, 3)
    assert len(standard_monomials([(0, 4, 0, 0)], 6)) == math.comb(9, 3) - math.comb(5, 3)


# -- cell-walk oracle for the staircase cells ---------------------------------


def staircase_walk(lead_x, degrees):
    """Standard monomials of each degree by a walk over every cell of the capped grid.

    The cell table is built once from the generators and every cell is
    visited at every degree: the enumeration that staircase_cells replaced.
    """
    if any(not any(g) for g in lead_x):
        return {d: [] for d in degrees}
    if not lead_x:
        return {
            d: [
                (a0, a1, a2, d - a0 - a1 - a2)
                for a0 in range(d + 1)
                for a1 in range(d - a0 + 1)
                for a2 in range(d - a0 - a1 + 1)
            ]
            for d in degrees
        }
    caps = tuple(max(g[v] for g in lead_x) for v in range(3))
    table = {}
    for i in range(caps[0] + 1):
        for j in range(caps[1] + 1):
            for k in range(caps[2] + 1):
                table[i, j, k] = min(
                    (g[3] for g in lead_x if g[0] <= i and g[1] <= j and g[2] <= k),
                    default=None,
                )
    return {d: _walk(caps, table, d) for d in degrees}


def _walk(caps, table, d):
    out = []
    for (i, j, k), bound in table.items():
        if bound == 0:
            continue
        base = [i, j, k]
        free = [v for v, cap in enumerate(caps) if base[v] == cap]
        lower = i + j + k
        t_hi = d - lower
        if bound is not None:
            t_hi = min(t_hi, bound - 1)
        if t_hi < 0:
            continue
        if not free:
            a3 = d - lower
            if a3 <= t_hi:
                out.append((i, j, k, a3))
        elif len(free) == 1:
            f = free[0]
            others = lower - base[f]
            for a3 in range(t_hi + 1):
                v = base.copy()
                v[f] = d - a3 - others
                out.append((v[0], v[1], v[2], a3))
        elif len(free) == 2:
            f1, f2 = free
            others = lower - base[f1] - base[f2]
            for a3 in range(t_hi + 1):
                s = d - a3 - others
                for v1 in range(base[f1], s - base[f2] + 1):
                    v = base.copy()
                    v[f1] = v1
                    v[f2] = s - v1
                    out.append((v[0], v[1], v[2], a3))
        else:
            for a3 in range(t_hi + 1):
                s = d - a3
                for v0 in range(base[0], s - base[1] - base[2] + 1):
                    for v1 in range(base[1], s - v0 - base[2] + 1):
                        out.append((v0, v1, s - v0 - v1, a3))
    return out


def brute_standard_monomials(lead_x, d):
    return [
        m[:4]
        for m in monomials_of_degree(d)
        if not any(all(g[v] <= m[v] for v in range(4)) for g in lead_x)
    ]


def test_standard_monomials_match_cell_walk_on_every_fixed_point(points):
    # every cell is in its polynomial regime by d = 8
    degrees = [*range(4, 13), 60]
    for fp in points:
        walked = staircase_walk(fp.quartics, degrees)
        for d in degrees:
            assert standard_monomials(fp.quartics, d) == walked[d], (fp.tag, fp.provenance, d)


def test_standard_monomials_match_cell_walk_on_small_ideals():
    for lead_x in (
        [],
        [(0, 0, 0, 0)],
        [(0, 4, 0, 0)],
        [(0, 0, 0, 3)],
        [(1, 0, 0, 0), (0, 2, 1, 0)],
        [(2, 0, 0, 1), (0, 0, 3, 0), (1, 1, 1, 1)],
    ):
        walked = staircase_walk(lead_x, range(9))
        for d in range(9):
            got = sorted(standard_monomials(lead_x, d))
            assert got == sorted(walked[d]) == sorted(brute_standard_monomials(lead_x, d))


def _random_monomial_ideals(count, seed):
    """Seeded generator lists: 1 to 8 exponent 4-tuples in 0..4, with repeats
    and generators free of x0..x2, then the empty list and the unit ideal."""
    rng = random.Random(seed)
    for _ in range(count):
        gens = [tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.3:
            gens.append(rng.choice(gens))
        if rng.random() < 0.3:
            gens.insert(rng.randrange(len(gens) + 1), (0, 0, 0, rng.randint(0, 4)))
        yield gens
    yield []
    yield [(0, 0, 0, 0)]


def test_standard_monomials_match_brute_force_on_random_ideals():
    ideals_seen = 0
    for lead_x in _random_monomial_ideals(400, seed=22):
        ideals_seen += 1
        for d in range(9):
            got = standard_monomials(lead_x, d)
            assert len(got) == len(set(got)), (lead_x, d)
            assert sorted(got) == sorted(brute_standard_monomials(lead_x, d)), (lead_x, d)
    assert ideals_seen == 402


def test_standard_monomials_against_brute_force(points):
    for fp in points[::25]:
        for d in (4, 5, 6):
            got = standard_monomials(fp.quartics, d)
            assert len(got) == len(set(got)) == 4 * d
            assert set(got) == set(brute_standard_monomials(fp.quartics, d))


def test_quartic_cells_are_the_staircase_cells_shared(points):
    quartics = [m[:4] for m in monomials_of_degree(4)]
    rng = random.Random(32)
    systems = [fp.quartics for fp in points] + [(), quartics]
    systems += [rng.sample(quartics, rng.randint(1, 35)) for _ in range(200)]
    shared = {}
    for system in systems:
        cells = ideals.quartic_cells(system)
        assert cells == tuple(ideals.staircase_cells(system)), system
        for cell in cells:
            assert shared.setdefault(cell, cell) is cell, (system, cell)


def test_cells_of_bits_are_the_staircase_cells_on_random_quartic_sets():
    # random sets reach covered rows and planes that no cascade system has;
    # each is the AND of 1 to 4 uniform sets, so about 17, 9, 4 or 2 quartics
    rng = random.Random(50)
    sets = [0, (1 << 35) - 1]
    for _ in range(1000):
        uniform = [rng.getrandbits(35) for _ in range(rng.randint(1, 4))]
        sets.append(functools.reduce(int.__and__, uniform))
    for bits in sets:
        # cells are tuples, so this compares every base, free, bound and lower
        walked = tuple(ideals.staircase_cells(ideals.quartics_of_bits(bits)))
        assert ideals.cells_of_bits(bits) == walked, bin(bits)


@pytest.mark.parametrize("m", [(1, 1, 1, 0), (0, 0, 0, 5), (5, -1, 0, 0), (4, 0, 0, 0, 0)])
def test_quartic_cells_reject_a_monomial_that_is_not_a_quartic(m):
    with pytest.raises(ValueError, match=re.escape(f"not a quartic monomial: {m}")):
        ideals.quartic_cells([(0, 0, 0, 4), m])


def test_quartic_cell_is_the_object_quartic_cells_gives(points):
    for fp in points[::50]:
        for cell in ideals.quartic_cells(fp.quartics):
            assert ideals.quartic_cell(list(cell.base), list(cell.free), cell.bound) is cell
    # a cell made first by quartic_cell is the one quartic_cells gives later
    cell = ideals.quartic_cell((0, 0, 0), (0, 1, 2), math.inf)
    assert cell == ((0, 0, 0), (0, 1, 2), math.inf, 0)
    assert ideals.quartic_cells(()) == (cell,) and ideals.quartic_cells(())[0] is cell


def test_the_quartic_bit_order_is_increasing_grevlex_with_x3_non_increasing():
    # `cells_of_bits` reads a set's least x3-exponent off its highest bit,
    # and `quartics_of_bits` reads the set from its highest bit down
    quartics = [m[:4] for m in sorted(monomials_of_degree(4), key=mono_key)]
    assert list(ideals.QUARTICS) == quartics and len(quartics) == 35
    x3 = [m[3] for m in ideals.QUARTICS]
    assert x3 == sorted(x3, reverse=True)


def test_the_divides_masks_built_from_the_at_least_masks_are_their_definition():
    # `_DIVIDES` is read off the `_AT_LEAST` masks; at each of the 125 grid
    # points it must be the quartics with m0 <= i, m1 <= j and m2 <= k
    grid = [(i, j, k) for i in range(5) for j in range(5) for k in range(5)]
    assert len(ideals._DIVIDES) == len(grid) == 125
    for i, j, k in grid:
        want = {m for m in ideals.QUARTICS if m[0] <= i and m[1] <= j and m[2] <= k}
        assert ideals._DIVIDES[25 * i + 5 * j + k] == ideals.quartic_bits(want), (i, j, k)


def test_each_point_is_rebuilt_from_its_quartic_bits(points):
    for fp in points:
        bits = ideals.quartic_bits(fp.quartics)
        assert bits.bit_count() == 19
        assert ideals.quartics_of_bits(bits) == fp.quartics
        assert ideals.cells_of_bits(bits) == fp.cells


def test_kept_values_are_cached_properties_that_keep_an_assigned_value(points, weights):
    # the cascade and the loader assign a point's cells before its first
    # read, and a first read that raises keeps nothing
    kept = ((ideals.Cell, "hilbert_term"), (fx.FixedPoint, "cells"), (loc.Bott, "degrees"))
    for cls, name in kept:
        assert isinstance(vars(cls)[name], functools.cached_property), (cls, name)
    fp = points[300]
    given = fp._replace()
    given.cells = wrong = fp.cells[:-1]
    assert given.cells is wrong
    cell = ideals.Cell((0, 0, 0), (), 1, 0)
    cell.hilbert_term = (1, 2, 3, 4)
    assert cell.hilbert_term == (1, 2, 3, 4)
    bott = loc.Bott(points, weights)
    bott.degrees = []
    assert bott.degrees == []
    bad = fp._replace(quartics=fp.quartics[:18] + ((5, 0, 0, 0),))
    broken = ideals.Cell((0, 0, 0), (), None, 0)  # no bound to subtract
    for obj, name, error in ((bad, "cells", ValueError), (broken, "hilbert_term", TypeError)):
        for _ in range(2):
            with pytest.raises(error):
                getattr(obj, name)
        assert name not in vars(obj)


def test_set_t_zero():
    assert [render(g) for g in set_t_zero(ideal("x0 + t*x1")).generators] == ["x0"]
    assert [render(g) for g in set_t_zero(ideal("t*x0", "x1^2")).generators] == ["x1^2"]
    with pytest.raises(ValueError):
        set_t_zero(ideal("t*x0"))


def test_saturate_t_trivial_cases():
    S = saturate_t(ideal("t*x0"))
    assert [render(g) for g in S.generators] == ["x0"]
    S = saturate_t(ideal("x0*x1 + t*x2^2"))
    assert _canonical(S) == _canonical(ideal("x0*x1 + t*x2^2"))


def _canonical(I):
    return tuple(sorted(render(g) for g in reduce_gb(I).basis))


def cubic_multiples(other, q, mp):
    """The deformed pencil times x0..x3: 8 cubic generators whose saturation
    agrees with the pencil's in every degree >= 3.

    The engine tests take these larger inputs rather than the pencil itself.
    """
    pencil = deformation_ideal(other, q, mp)
    return Ideal(g * Polynomial.monomial(x + (0,)) for g in pencil for x in fx.LINEARS)


def e1_deformation_ideals():
    """All 216 E1 deformation ideals, first presentation per direction, as cubics."""
    pairs = fx.enumerate_pairs()
    _, zs = fx.split_strata(pairs)
    out = []
    for z in zs:
        pair = pairs[z.pair_index]
        for e in sorted(z.normal):
            out.append(cubic_multiples(*checks._deformations((pair.q1, pair.q2), e)[0]))
    return out


def colon_chain_saturate(I):
    """I : t^infinity by iterating the colon I : t until its reduced basis
    stops changing; each colon is a w-elimination on the intersection I & <t>."""

    def colon_t(gens):
        mixed = [{(1,) + m: c for m, c in g.terms.items()} for g in gens]
        mixed.append({(0, 0, 0, 0, 0, 1): Fraction(1), (1, 0, 0, 0, 0, 1): Fraction(-1)})
        return [
            # an element of I & <t>: every term is divisible by t
            Polynomial({m[1:5] + (m[5] - 1,): c for m, c in g.items()})
            for g in gbcore.groebner(mixed, gbcore.key6)
            if all(m[0] == 0 for m in g)
        ]

    def signature(gens):
        return gbcore.groebner([g.terms for g in gens], mono_key)

    current = list(I.generators)
    before = signature(current)
    while True:
        current = colon_t(current)
        after = signature(current)
        if after == before:
            return Ideal(current)
        before = after


def test_saturate_t_deformation_ideal_oracle():
    """saturate_t output is characterized by: contains I, idempotent, and
    t-power multiples of its generators land back in I; it also equals the
    colon chain's."""
    deformation = e1_deformation_ideals()
    assert len(deformation) == 216
    rng = random.Random(3)
    sample = rng.sample(deformation, 12)
    for I in sample:
        J = saturate_t(I)
        GI, GJ = reduce_gb(I), reduce_gb(J)
        # the colon chain gives the same ideal
        assert _canonical(colon_chain_saturate(I)) == _canonical(J)
        # contains I
        for g in I.generators:
            assert not normal_form(g, GJ)
        # idempotent
        assert _canonical(saturate_t(J)) == _canonical(J)
        # every generator multiplied by some t-power lies in I
        t = parse("t")
        for g in J.generators:
            h = g
            for _ in range(8):
                if not normal_form(h, GI):
                    break
                h = h * t
            else:
                raise AssertionError(f"{render(g)} never re-enters the ideal")


@pytest.mark.parametrize(
    "gens, expected",
    [
        (("t^2*x0",), ("x0",)),
        (("t^2*x0", "x1 + t*x2"), ("x0", "x1 + t*x2")),
        (("t*x0", "t*x1 - x2"), ("x0", "t*x1 - x2")),
        (("t",), ("1",)),
    ],
)
def test_saturate_t_matches_colon_chain_on_hand_cases(gens, expected):
    I = ideal(*gens)
    got = _canonical(saturate_t(I))
    assert got == _canonical(colon_chain_saturate(I)) == _canonical(ideal(*expected))


def test_saturate_t_is_one_groebner_basis(monkeypatch):
    calls = []
    original = gbcore.groebner

    def counting(gens, key):
        calls.append(key)
        return original(gens, key)

    monkeypatch.setattr(gbcore, "groebner", counting)
    saturate_t(e1_deformation_ideals()[0])
    assert calls == [gbcore.key6]


def test_algebra_kernel_runs_every_saturation(monkeypatch):
    """Criterion 8 takes all 252 presentations to their flat limits by
    e-string elimination: no saturation and no Groebner basis."""
    calls = {"saturate_t": 0, "groebner": 0, "e1_limit": 0}
    saturate, groebner, limit = ideals.saturate_t, gbcore.groebner, checks.e1_limit

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)

        return counted

    monkeypatch.setattr(ideals, "saturate_t", counting("saturate_t", saturate))
    monkeypatch.setattr(gbcore, "groebner", counting("groebner", groebner))
    monkeypatch.setattr(checks, "e1_limit", counting("e1_limit", limit))
    assert checks.algebra_kernel(None) == 252
    assert calls == {"saturate_t": 0, "groebner": 0, "e1_limit": 252}


def test_every_check_runs_without_buchberger(monkeypatch, points, weights):
    """No `nlocus verify` check builds a Polynomial, parses one or runs
    Buchberger: those stay the tests' oracles."""

    def refuse(*args, **kwargs):
        raise AssertionError("Buchberger or a Polynomial in a verify check")

    monkeypatch.setattr(gbcore, "groebner", refuse)
    monkeypatch.setattr(poly, "parse", refuse)
    monkeypatch.setattr(Polynomial, "__init__", refuse)
    bott = loc.Bott(points, weights)
    for _, check in checks.CHECKS:
        check(bott)


def _saturation_without(text):
    """saturate_t, with the element text dropped from the saturation."""
    dropped = parse(text)

    def without(I):
        J = saturate_t(I)
        assert dropped in J.generators
        return Ideal(g for g in J if g != dropped)

    return without


def _unpacked(limit):
    """An `e1_limit` result as {d: frozenset of exponent 4-tuples}, the
    shape of the saturation oracle, through `limits.unpack`."""
    return {d: limits.unpack(bits) for d, bits in limit.items()}


# x0*x1 + t*x3^2 in the pencil <x0^2, x0*x1>
E1_PENCIL = (2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 0, 2)


def test_saturation_limit_needs_every_element_of_the_saturation(saturation_limit):
    # The saturation is x0^2, x0*x1 + t*x3^2, x0*x3^2 and one quartic, x3^4,
    # the kind of element a Buchberger engine that skips a needed S-pair
    # loses.  Without it the t=0 limit keeps its 8 cubics but has 17
    # standard monomials of degree 4, where the flat limit has 16.
    want = _unpacked(limits.e1_limit(*E1_PENCIL))
    assert saturation_limit(*E1_PENCIL) == want
    broken = saturation_limit(*E1_PENCIL, saturate=_saturation_without("x3^4"))
    assert broken[3] == want[3]
    assert want[4] - broken[4] == {(0, 0, 0, 4)} and broken[4] < want[4]
    assert len(monomials_of_degree(4)) - len(broken[4]) == 17


def test_saturation_limit_checks_the_quadrics(saturation_limit):
    # without the pencil generator x0^2 the limit has 9 standard quadrics,
    # where the flat limit of a pencil has 8
    want = _unpacked(limits.e1_limit(*E1_PENCIL))
    broken = saturation_limit(*E1_PENCIL, saturate=_saturation_without("x0^2"))
    assert want[2] - broken[2] == {(2, 0, 0, 0)} and broken[2] < want[2]
    assert len(monomials_of_degree(2)) - len(broken[2]) == 9


def _first_z():
    pairs = fx.enumerate_pairs()
    return fx.split_strata(pairs)[1][0]


def test_algebra_kernel_names_a_swapped_extra_cubic(monkeypatch):
    """A record given another direction's extra cubic fails criterion 8,
    which names the direction, its pair, d and both cubic lists."""
    z, e1_points = _first_z(), fx.e1_points
    a, b = e1_points(z)[:2]
    (extra_a,) = set(a.limit_cubics) - set(b.limit_cubics)
    (extra_b,) = set(b.limit_cubics) - set(a.limit_cubics)
    swapped = fx._sort_monos(set(a.limit_cubics) - {extra_a} | {extra_b})

    def corrupted(z_point):
        records = e1_points(z_point)
        if z_point == z:
            records[0] = records[0]._replace(limit_cubics=swapped)
        return records

    monkeypatch.setattr(fx, "e1_points", corrupted)
    message = (
        f"E1 direction {a.direction} over pair {z.pair_index}, d=3:"
        f" limit cubics {swapped} != e-string limit {a.limit_cubics}"
    )
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        checks.algebra_kernel(None)


def test_e1_limit_of_a_pencil_with_a_common_factor(monkeypatch):
    # <x0^2, x0*x1 + t*x0*x2> = x0*<x0, x1 + t*x2>: its 8 cubic multiples span
    # only 7 dimensions, leaving 13 standard cubics where a flat limit of a
    # pencil of quadrics has 12
    pencil = (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)
    message = "<x0^2, x0*x1 + t*x0*x2>, d=3: 13 standard monomials != 12"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        limits.e1_limit(*pencil)
    # in criterion 8 the failure also names the direction and its pair
    z = _first_z()
    direction = fx.e1_points(z)[0].direction
    monkeypatch.setattr(checks, "_deformations", lambda pair, e: [pencil])
    message = f"E1 direction {direction} over pair {z.pair_index}: {message}"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        checks.algebra_kernel(None)


def _echelon_lows(units, lows, pe):
    """The lowest positions of the span of the unit vectors at units and the
    edges from p to p + pe, by Fraction elimination, as brute force."""
    order = 1 if pe > 0 else -1  # p + pe is one position further along
    pivots = {}
    for row in [{p: 1} for p in units] + [{p: 1, p + pe: 1} for p in lows]:
        row = {k: Fraction(v) for k, v in row.items()}
        while row:
            low = min(row, key=lambda p: order * p)
            if low not in pivots:
                pivots[low] = row
                break
            f = row[low] / pivots[low][low]
            for k, v in pivots[low].items():
                row[k] = row.get(k, 0) - f * v
            row = {k: v for k, v in row.items() if v}
    return set(pivots)


@pytest.mark.parametrize(
    "units, lows, pe, want",
    [
        ((), (0, 1, 2), 1, {0, 1, 2}),  # a run without a unit
        ((1,), (0, 1, 2), 1, {0, 1, 2, 3}),  # a unit inside the run
        ((3,), (0, 1, 2), 1, {0, 1, 2, 3}),  # a unit at its top
        ((0,), (0, 1, 2), 1, {0, 1, 2, 3}),  # a unit at its bottom
        ((3, 9), (0, 1, 5, 6), 1, {0, 1, 3, 5, 6, 9}),  # units just off two runs
        ((7, 8), (0, 1, 5, 6), 1, {0, 1, 5, 6, 7, 8}),  # a unit at one run's top
        ((-24,), (0, -8, -16), -8, {0, -8, -16, -24}),  # negative pe, unit at the top
        ((), (0, -8, -16), -8, {0, -8, -16}),  # negative pe, no unit
        ((-8, 40), (0, -8, 64), -8, {0, -8, -16, 40, 64}),  # negative pe, a unit inside
    ],
)
def test_run_rule_on_hand_built_runs(units, lows, pe, want):
    # bit p + 32 stands for position p, so every position, and every top of
    # an edge, is a non-negative bit
    bits = [sum(1 << p + 32 for p in positions) for positions in (units, lows)]
    got = limits._pivots(*bits, pe)
    got = {p - 32 for p in range(got.bit_length()) if got >> p & 1}
    assert got == want == _echelon_lows(units, lows, pe)


def test_e1_limit_matches_saturation_beyond_the_cascade(saturation_limit):
    """On 40 seeded deformed pencils of quadric monomials outside criterion
    8's 252, the run rule is Buchberger saturation when every degree has
    4d standard monomials, and otherwise the count error at the first d
    that has not."""
    quadrics = [m[:4] for m in monomials_of_degree(2)]
    pairs = fx.enumerate_pairs()
    _, zs = fx.split_strata(pairs)
    cascade = {
        presentation
        for z in zs
        for record in fx.e1_points(z)
        for presentation in checks._deformations(
            (pairs[z.pair_index].q1, pairs[z.pair_index].q2), record.direction
        )
    }
    rng, outcomes = random.Random(33), set()
    while len(outcomes) < 40:
        pencil = tuple(rng.sample(quadrics, 3))
        if pencil in cascade or pencil in {p for p, _ in outcomes}:
            continue
        want = saturation_limit(*pencil)
        counts = {d: math.comb(d + 3, 3) - len(want[d]) for d in want}
        bad = [d for d, n in counts.items() if n != 4 * d]
        if not bad:
            assert _unpacked(limits.e1_limit(*pencil)) == want, pencil
        else:
            other, q, mp = map(render_monomial, pencil)
            message = (
                f"<{other}, {q} + t*{mp}>, d={bad[0]}:"
                f" {counts[bad[0]]} standard monomials != {4 * bad[0]}"
            )
            with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
                limits.e1_limit(*pencil)
        outcomes.add((pencil, bool(bad)))
    assert {bad for _, bad in outcomes} == {False, True}
    assert any(limits._pack(mp) < limits._pack(q) for (_, q, mp), _ in outcomes)


def all_deformation_ideals():
    """The 252 deformed pencils of criterion 8, every presentation of every E1
    direction, as cubics."""
    pairs = fx.enumerate_pairs()
    _, zs = fx.split_strata(pairs)
    out = []
    for z in zs:
        pair = pairs[z.pair_index]
        for record in fx.e1_points(z):
            for presentation in checks._deformations((pair.q1, pair.q2), record.direction):
                out.append(cubic_multiples(*presentation))
    return out


def elimination_input(I):
    """The generators of I + <1 - s*t> that saturate_t hands to groebner under key6."""
    gens = [{(0,) + m: c for m, c in g.terms.items()} for g in I.generators]
    gens.append({(0, 0, 0, 0, 0, 0): Fraction(1), (1, 0, 0, 0, 0, 1): Fraction(-1)})
    return gens


def test_groebner_ignores_generator_order_duplicates_and_scaling():
    deformation = all_deformation_ideals()
    assert len(deformation) == 252
    sample = random.Random(13).sample(deformation, 12)
    cases = [([g.terms for g in I.generators], mono_key) for I in sample]
    cases += [(elimination_input(I), gbcore.key6) for I in sample]
    rng = random.Random(5)
    for gens, key in cases:
        want = gbcore.groebner(gens, key)
        assert want and all(g[max(g, key=key)] == 1 for g in want)
        assert gbcore.groebner(rng.sample(gens, len(gens)), key) == want
        i = rng.randrange(len(gens))
        assert gbcore.groebner(gens + [gens[i]], key) == want
        scaled = list(gens)
        scaled[i] = {m: Fraction(3, 2) * c for m, c in gens[i].items()}
        assert gbcore.groebner(scaled, key) == want


def test_reduce_gb_where_one_s_pair_repeats_another():
    # All three pairs of the generators have lcm x0*x1*x2.  S(0,1) = 0, and
    # S(0,2) = x2*(x0*x1) - x0*(x1*x2 - x3^2) = x0*x3^2 is a new element.
    # S(1,2) = x0*x3^2 as well, which then reduces to zero: the pair is
    # redundant, and the basis must not gain a second copy of x0*x3^2.
    G = gb("x0*x1", "x0*x2", "x1*x2 - x3^2")
    assert sorted(render(g) for g in G.basis) == ["x0*x1", "x0*x2", "x0*x3^2", "x1*x2-x3^2"]
    assert [render_monomial(m) for m in G.leading_terms] == [
        "x1*x2", "x0*x2", "x0*x1", "x0*x3^2",
    ]


def test_gbcore_normal_form_does_not_need_a_monic_basis():
    f = parse("x1^3 + x0*x1*x2").terms
    # lt(3*x0*x2 - 6*x1^2) = x1^2: x1^3 - x1*(x1^2 - x0*x2/2) leaves 3/2*x0*x1*x2
    g = parse("3*x0*x2 - 6*x1^2").terms
    monic = {m: c / -6 for m, c in g.items()}
    want = {parse("x0*x1*x2").lm(): Fraction(3, 2)}
    assert gbcore.normal_form(f, [g], mono_key) == want
    assert gbcore.normal_form(f, [monic], mono_key) == want
    # and against a whole reduced basis with each element rescaled
    G = [g.terms for g in reduce_gb(e1_deformation_ideals()[0]).basis]
    scaled = [{m: Fraction(k + 2, 3) * c for m, c in g.items()} for k, g in enumerate(G)]
    for text in ("x0^2*x1*x2", "x1^3*x3 + 2*t*x2^4", "x0*x3^3 - t^2*x1^2*x2^2"):
        f = parse(text).terms
        assert gbcore.normal_form(f, scaled, mono_key) == gbcore.normal_form(
            f, G, mono_key
        )


def test_saturate_t_limit_matches_hand_computation():
    # deform x0*x1 -> x0*x1 + t*x2^2 inside the pencil <x0^2, x0*x1>
    gens = []
    for pg in (parse("x0^2"), parse("x0*x1 + t*x2^2")):
        for v in ("x0", "x1", "x2", "x3"):
            gens.append(pg * parse(v))
    limit = set_t_zero(saturate_t(Ideal(gens)))
    expected = {
        "x0^3", "x0^2*x1", "x0^2*x2", "x0^2*x3",
        "x0*x1^2", "x0*x1*x2", "x0*x1*x3", "x0*x2^2", "x2^4",
    }
    assert {render(g) for g in reduce_gb(limit).basis} == expected


def test_hilbert_polynomial_curves():
    assert hilbert_polynomial(exponents("x0^2", "x1^2")).coefficients == (0, 4)
    assert hilbert_polynomial(exponents("x1^2", "x2^2")).coefficients == (0, 4)
    assert hilbert_polynomial(exponents("x1*x2", "x1^2", "x2^3")).coefficients == (0, 4)
    assert hilbert_polynomial(
        exponents("x0^2", "x0*x1", "x0*x2^2", "x1^4")
    ).coefficients == (0, 4)
    assert str(hilbert_polynomial(exponents("x0^2", "x1^2"))) == "4*d"


def test_hilbert_polynomial_other_shapes():
    assert hilbert_polynomial(exponents("x0", "x1")).coefficients == (1, 1)  # a line
    plane = hilbert_polynomial(exponents("x0"))
    assert plane.coefficients == (Fraction(1), Fraction(3, 2), Fraction(1, 2))
    assert hilbert_polynomial(exponents("x0", "x1", "x2", "x3")).coefficients == ()
    assert hilbert_polynomial(exponents("x0", "x1", "x2", "x3"))(10) == 0
    shapes = {
        "1": (),  # the unit ideal
        "x0 x1 x2 x3": (),  # the irrelevant ideal
        "x2": (1, Fraction(3, 2), Fraction(1, 2)),  # a plane
        "x1 x3": (1, 1),  # a line
        # one cell, free in x3 only (bound math.inf): a point
        "x0 x1 x2": (1,),
        # cells free in x3 and in some of x0..x2, next to bounded ones
        "x0^2 x0*x1 x1^2": (1, 3),  # a double line
        # one cell free in x0, x1, x2 with a finite x3 bound
        "x3^3": (1, Fraction(3, 2), Fraction(3, 2)),  # a cubic surface
        # <x0^2, x1^2>, the first curve above, with a repeated generator
        # and generators divisible by others
        "x1^2 x0^2 x1^2 x0^3*x2 x0^2*x3": (0, 4),
    }
    for gens, coefficients in shapes.items():
        lead_x = exponents(*gens.split())
        assert hilbert_polynomial(lead_x).coefficients == coefficients, gens
        assert hilbert_polynomial(lead_x) == series_hilbert_polynomial(lead_x), gens


def test_hilbert_polynomial_matches_kbase_counts():
    for G in (gb("x0^2", "x1^2"), gb("x0*x1", "x2*x3"), gb("x0^2", "x0*x1", "x0*x2^2", "x1^4")):
        hp = hilbert_polynomial([m[:4] for m in G.leading_terms])
        for d in range(5, 11):
            assert hp(d) == len(kbase(G, d))


def test_hilbert_polynomial_rejects_t():
    with pytest.raises(ValueError, match="exponent 4-tuple"):
        hilbert_polynomial([(0, 2, 0, 0), (1, 0, 0, 0, 1)])  # t*x0 as a 5-tuple


def test_hilbert_poly_repr():
    assert str(hilbert_polynomial(exponents("x0", "x1"))) == "d+1"
    assert str(hilbert_polynomial(exponents("x0", "x1", "x2", "x3"))) == "0"


# -- Hilbert-series oracle for hilbert_polynomial -----------------------------


def _minimalize(gens):
    gens = sorted(set(gens), key=lambda g: (sum(g), g))
    keep = []
    for g in gens:
        if not any(mono_divides(h, g) for h in keep):
            keep.append(g)
    return keep


def _series_numerator(gens):
    """Hilbert series numerator of S/<gens> over (1-u)^4, as an int list.

    Pivots on a variable v: K(I) = K(I + <x_v>) + u * K(I : x_v), down to
    ideals generated by pure powers.
    """
    gens = _minimalize(gens)
    if not gens:
        return [1]
    if gens[0] == (0, 0, 0, 0):
        return [0]
    if all(sum(1 for e in g if e) == 1 for g in gens):
        num = [1]
        for g in gens:
            shifted = [0] * sum(g) + num
            num = [a - b for a, b in zip(num + [0] * (len(shifted) - len(num)), shifted)]
        return num
    counts = [sum(1 for g in gens if sum(1 for e in g if e) > 1 and g[v]) for v in range(4)]
    v = counts.index(max(counts))
    pivot = tuple(1 if i == v else 0 for i in range(4))
    plus = [g for g in gens if g[v] == 0] + [pivot]
    colon = [tuple(e - 1 if i == v and e else e for i, e in enumerate(g)) for g in gens]
    n_plus = _series_numerator(plus)
    n_colon = [0] + _series_numerator(colon)
    width = max(len(n_plus), len(n_colon))
    n_plus += [0] * (width - len(n_plus))
    n_colon += [0] * (width - len(n_colon))
    return [a + b for a, b in zip(n_plus, n_colon)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def series_hilbert_polynomial(lead_x):
    """Hilbert polynomial of S/<lead_x> from its Hilbert series numerator.

    The recursion hilbert_polynomial used before it read the staircase cells.
    """
    num = _series_numerator(lead_x)
    e = 4
    while e and sum(num) == 0:
        quotient = []
        acc = 0
        for c in num[:-1]:
            acc += c
            quotient.append(acc)
        num = quotient or [0]
        e -= 1
    if e == 0 or not any(num):
        return UnivariateRationalPoly([])
    # HF(t) = sum_j num[j] * C(t - j + e - 1, e - 1) for large t
    coeffs = [Fraction(0)] * e
    fact = 1
    for i in range(2, e):
        fact *= i
    for j, q in enumerate(num):
        if not q:
            continue
        term = [Fraction(q, fact)]
        for i in range(e - 1):
            term = _poly_mul(term, [Fraction(e - 1 - j - i), Fraction(1)])
        for k, c in enumerate(term):
            coeffs[k] += c
    return UnivariateRationalPoly(coeffs)


def test_hilbert_polynomial_matches_series_oracle_on_the_cascade(cascade):
    systems = [fp.quartics for fp in cascade.points]
    systems += [record.limit_cubics for _, record in cascade.records]
    assert len(systems) == 525 + 216
    for lead_x in systems:
        assert hilbert_polynomial(lead_x) == series_hilbert_polynomial(lead_x), lead_x


def test_hilbert_polynomial_matches_series_oracle_on_random_ideals():
    rng = random.Random(5)
    for _ in range(600):
        lead_x = [
            tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(4))
            for _ in range(rng.randint(1, 7))
        ]
        assert hilbert_polynomial(lead_x) == series_hilbert_polynomial(lead_x), lead_x


def _six_times(hp):
    """3! times the coefficients of a Hilbert polynomial, 4 of them, low degree first."""
    coeffs = [6 * c for c in hp.coefficients] + [0] * (4 - len(hp.coefficients))
    assert all(c.denominator == 1 for c in map(Fraction, coeffs)), hp
    return tuple(map(int, coeffs))


def test_integer_hilbert_terms_on_the_cascade(points):
    for fp in points:
        got = cells_hilbert_numerator(fp.cells)
        assert all(type(c) is int for c in got)
        assert got == _six_times(cells_hilbert_polynomial(fp.cells)) == (0, 24, 0, 0)
        assert got == _six_times(series_hilbert_polynomial(fp.quartics)), fp.provenance


def test_integer_hilbert_terms_on_random_ideals():
    for lead_x in _random_monomial_ideals(300, seed=35):
        cells = ideals.staircase_cells(lead_x)
        got = cells_hilbert_numerator(cells)
        assert all(type(c) is int for c in got)
        assert got == _six_times(cells_hilbert_polynomial(cells)), lead_x
        if lead_x:
            assert got == _six_times(series_hilbert_polynomial(lead_x)), lead_x
