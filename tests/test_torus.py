import itertools
import math
import random
from collections import Counter

import pytest

from nlocus import torus
from nlocus.checks import elem_sym_dp
from nlocus.poly import monomials_of_degree, parse
from nlocus.torus import (
    DEFAULT_WEIGHTS,
    WeightSpec,
    blowup_tangent,
    char_sub,
    check_generic,
    elem_sym,
    grass_tangent,
    kronecker_width,
    shared_products,
    specialize,
    visit_schedule,
)


def mono(text):
    return parse(text).lm()[:4]


def bag(*texts):
    return Counter(mono(t) for t in texts)


QUADRIC_BAG = Counter(m[:4] for m in monomials_of_degree(2))
LINEAR_BAG = Counter(m[:4] for m in monomials_of_degree(1))


def test_grass_tangent_pencil_point():
    tangent = grass_tangent(bag("x0^2", "x1^2"), QUADRIC_BAG)
    assert tangent.total() == 16
    assert all(k > 0 for k in tangent.values())
    # the fraction x0*x1/x0^2
    assert char_sub(mono("x0*x1"), mono("x0^2")) in tangent
    # the fraction x3^2/x1^2
    assert (0, -2, 0, 2) in tangent


def test_grass_tangent_takes_lists_and_counters_alike():
    sub = [mono("x0^2"), mono("x1^2")]
    assert grass_tangent(sub, list(QUADRIC_BAG)) == grass_tangent(Counter(sub), QUADRIC_BAG)
    # a repeated character counts twice, from a list or a Counter
    x0, x1 = (1, 0, 0, 0), (0, 1, 0, 0)
    twice = grass_tangent([x0], [x0, x1, x1])
    assert twice == Counter({(-1, 1, 0, 0): 2})
    assert twice == grass_tangent(Counter([x0]), Counter({x0: 1, x1: 2}))


def test_grass_tangent_trivial_cases():
    assert grass_tangent(QUADRIC_BAG, QUADRIC_BAG).total() == 0
    p3 = grass_tangent(bag("x0"), LINEAR_BAG)
    assert p3.total() == 3
    assert sorted(p3.items()) == [((-1, 0, 0, 1), 1), ((-1, 0, 1, 0), 1), ((-1, 1, 0, 0), 1)]


def test_grass_tangent_requires_containment():
    with pytest.raises(ValueError):
        grass_tangent(bag("x0"), QUADRIC_BAG)


def test_grass_tangent_size_and_linearity_random():
    rng = random.Random(5)
    chars = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(8)]
    for _ in range(30):
        ambient_list = rng.sample(chars, rng.randint(2, 6))
        k = rng.randint(1, len(ambient_list) - 1)
        sub_list = rng.sample(ambient_list, k)
        sub, ambient = Counter(sub_list), Counter(ambient_list)
        tangent = grass_tangent(sub, ambient)
        ns, na = sub.total(), ambient.total()
        assert tangent.total() == ns * (na - ns)
        total = [0, 0, 0, 0]
        for c, m in tangent.items():
            for i in range(4):
                total[i] += m * c[i]
        quot = ambient - sub
        expect = [0, 0, 0, 0]
        for c, m in quot.items():
            for i in range(4):
                expect[i] += ns * m * c[i]
        for c, m in sub.items():
            for i in range(4):
                expect[i] -= (na - ns) * m * c[i]
        assert total == expect


def test_blowup_tangent_rank_one_normal():
    base = bag("x0", "x1")
    e = (1, -1, 0, 0)
    nml = Counter([e])
    out = blowup_tangent(base.elements(), nml.elements(), e)
    assert Counter(out) == base + Counter([e])
    assert out == tuple(sorted(out))


def test_blowup_tangent_sizes_and_multiset_equation():
    rng = random.Random(6)
    base = Counter([tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(7)])
    nml_chars = set()
    while len(nml_chars) < 9:
        nml_chars.add(tuple(rng.randint(-3, 3) for _ in range(4)))
    nml = Counter(sorted(nml_chars))
    e = sorted(nml_chars)[0]
    out = blowup_tangent(base.elements(), nml.elements(), e)
    assert len(out) == base.total() + nml.total()
    shifted = Counter([char_sub(n, e) for n in nml_chars if n != e])
    assert Counter(out) == shifted + base + Counter([e])
    assert out == tuple(sorted(out))


def test_blowup_tangent_takes_one_copy_of_a_repeated_direction():
    # a normal character of multiplicity 2 leaves one fiber line of character 0
    e, n = (1, -1, 0, 0), (0, 1, -1, 0)
    out = blowup_tangent([], [e, n, e], e)
    assert out == tuple(sorted([(0, 0, 0, 0), char_sub(n, e), e]))


def test_blowup_tangent_requires_membership():
    with pytest.raises(ValueError):
        blowup_tangent(bag("x0"), bag("x1", "x2"), (5, 5, 5, 5))


# -- dual-route check against the appendix-style fraction arithmetic --------


def frac_reduce(num, den):
    """Reduce a (numerator multiset, denominator monomial) fraction pair."""
    common = den
    for m in num:
        common = tuple(min(a, b) for a, b in zip(common, m))
        if not any(common):
            break
    return [tuple(a - b for a, b in zip(m, common)) for m in num], tuple(
        a - b for a, b in zip(den, common)
    )


def frac_sum(f, g):
    (na, da), (nb, db) = f, g
    num = [tuple(x + y for x, y in zip(m, db)) for m in na]
    num += [tuple(x + y for x, y in zip(m, da)) for m in nb]
    return frac_reduce(num, tuple(x + y for x, y in zip(da, db)))


def frac_sub(f, g):
    """Subtraction on multisets: every numerator term of g must cancel."""
    (na, da), (nb, db) = f, g
    left = [tuple(x + y for x, y in zip(m, db)) for m in na]
    for m in nb:
        shifted = tuple(x + y for x, y in zip(m, da))
        left.remove(shifted)
    return frac_reduce(left, tuple(x + y for x, y in zip(da, db)))


def frac_div(f, g):
    """Division by a single-monomial fraction g = ([m], d): multiply by d/m."""
    (na, da), (nb, db) = f, g
    assert len(nb) == 1
    num = [tuple(x + y for x, y in zip(m, db)) for m in na]
    return frac_reduce(num, tuple(x + y for x, y in zip(da, nb[0])))


def frac_tgrass(sub_monos, ambient_monos):
    out = None
    rest = list(ambient_monos)
    for m in sub_monos:
        rest.remove(m)
    for s in sub_monos:
        piece = frac_reduce(list(rest), s[:4])
        out = piece if out is None else frac_sum(out, piece)
    return out


def frac_to_bag(f):
    num, den = f
    return Counter([tuple(a - b for a, b in zip(m, den)) for m in num])


def test_blowup_tangent_matches_fraction_arithmetic():
    """Re-derive an E1 tangent bag with the literal fraction operations."""
    q1, q2 = mono("x0^2"), mono("x0*x1")
    quadrics = [m[:4] for m in monomials_of_degree(2)]
    linears = [m[:4] for m in monomials_of_degree(1)]
    big = frac_tgrass([q1, q2], quadrics)
    tg_z = frac_sum(
        frac_tgrass([mono("x0"), mono("x1")], linears),
        frac_tgrass([mono("x0")], linears),
    )
    nml = frac_sub(big, tg_z)
    assert frac_to_bag(nml).total() == 9

    # direction x2^2/(x0*x1): exceptional piece (nml - exc)/exc + tg_z + exc
    e = (-1, -1, 2, 0)
    exc_num = None
    for m in nml[0]:
        if tuple(a - b for a, b in zip(m, nml[1])) == e:
            exc_num = m
    assert exc_num is not None
    exc = frac_reduce([exc_num], nml[1])
    fiber = frac_div(frac_sub(nml, ([exc_num], nml[1])), exc)
    tangent = frac_sum(frac_sum(fiber, tg_z), exc)

    base = grass_tangent(bag("x0", "x1"), LINEAR_BAG) + grass_tangent(
        bag("x0"), LINEAR_BAG
    )
    normal = grass_tangent(bag("x0^2", "x0*x1"), QUADRIC_BAG) - base
    assert frac_to_bag(tangent) == Counter(blowup_tangent(base.elements(), normal.elements(), e))


# ---------------------------------------------------------------------------


def test_specialize():
    spec = DEFAULT_WEIGHTS
    assert spec.values == (0, 1, 5, 18)
    assert specialize((1, 1, 0, 0), spec) == 1
    assert specialize((0, 0, 0, 0), spec) == 0
    assert specialize((-2, 0, 0, 2), spec) == 36


def test_weight_spec_rejects_duplicates():
    with pytest.raises(ValueError, match="pairwise distinct"):
        WeightSpec((0, 1, 1, 5))
    with pytest.raises(ValueError, match="exactly 4 values"):
        WeightSpec((0, 1, 2))


@pytest.mark.parametrize(
    "values, bad", [((0, 1.9, 5, 18), "1.9"), (("0", "1", "5", "18"), "'0'")]
)
def test_weight_spec_rejects_a_value_that_is_not_an_integer(values, bad):
    # neither truncated (1.9 is not 1) nor parsed from text
    with pytest.raises(ValueError, match=f"must be integers, got {bad}$"):
        WeightSpec(values)


def test_elem_sym_small():
    assert elem_sym(0, [7, 8, 9]) == 1
    assert elem_sym(2, [1, 2, 3]) == 11
    with pytest.raises(ValueError):
        elem_sym(4, [1, 2, 3])
    with pytest.raises(ValueError):
        elem_sym(-1, [1])


def test_elem_sym_top_is_product():
    values = [3, 2, 5, 7, 1, 4, 6, 3, 2, 9, 5, 8, 1, 4, 10, 11]
    prod = 1
    for v in values:
        prod *= v
    assert elem_sym(16, values) == prod


def test_elem_sym_matches_brute_force():
    rng = random.Random(9)
    for n in range(1, 13):
        values = [rng.randint(0, 9) for _ in range(n)]
        for k in range(n + 1):
            brute = 0
            for combo in itertools.combinations(values, k):
                term = 1
                for v in combo:
                    term *= v
                brute += term
            assert elem_sym(k, values) == brute


def test_elem_sym_matches_dp_oracle_on_random_values():
    rng = random.Random(23)
    for n in (1, 2, 15, 16, 17, 40, 116, 220):
        for spread in (1, 9, 1000, 10**4):
            values = [rng.randint(0, spread) for _ in range(n)]
            for k in {0, 1, min(15, n), min(16, n), n}:
                assert elem_sym(k, values) == elem_sym_dp(k, values), (n, spread, k)


def test_elem_sym_edge_cases():
    assert elem_sym(0, []) == 1
    for k in (0, 1, 16, 30):
        assert elem_sym(k, [0] * 30) == (1 if k == 0 else 0)
    for v in (0, 1, 10**4):
        assert elem_sym(0, [v]) == 1
        assert elem_sym(1, [v]) == v
    # every value at the largest magnitude
    assert elem_sym(16, [10**4] * 16) == 10**64
    assert elem_sym(15, [10**4] * 16) == 16 * 10**60


def test_elem_sym_equal_values_near_the_width_bound():
    # e_k of n equal values is C(n, k) * M^k, the closest to s^k / k! there
    # is; at (200, 16, 977) it needs the top bit of the derived width
    for n, k, m in ((200, 16, 977), (200, 16, 10**4), (1000, 5, 3), (64, 16, 1)):
        assert elem_sym(k, [m] * n) == math.comb(n, k) * m**k


def test_elem_sym_sum_below_k():
    # s = sum < k: the width comes from s^s / s!, and e_j = 0 for j > s
    values = [0] * 20 + [1, 1, 1]
    for k in range(24):
        assert elem_sym(k, values) == math.comb(3, k)
    assert elem_sym(16, [0] * 15 + [2]) == 0
    assert elem_sym(2, [0] * 15 + [2, 1]) == 2
    mixed = [0] * 10 + [1, 1, 2]
    for k in range(14):
        assert elem_sym(k, mixed) == elem_sym_dp(k, mixed)


def test_elem_sym_full_and_empty_degree():
    rng = random.Random(31)
    for n in (1, 5, 16, 17):
        values = [rng.randint(1, 50) for _ in range(n)]
        assert elem_sym(n, values) == math.prod(values)
        assert elem_sym(0, values) == 1
    assert elem_sym(0, [5, 7, 10**30]) == 1
    assert elem_sym(0, [1] * 40) == 1


def test_elem_sym_rejects_a_negative_value():
    # the width bound needs non-negative values; the Bott sums shift the
    # spec so that no fiber weight is negative
    rng = random.Random(37)
    values = [rng.randint(1, 1000) for _ in range(199)] + [-(10**12)]
    rng.shuffle(values)
    for k in (0, 1, 16, 200):
        with pytest.raises(ValueError, match="non-negative values, got -1000000000000"):
            elem_sym(k, values)
    with pytest.raises(ValueError, match="got -1$"):
        elem_sym(1, [-1])


def test_elem_sym_values_near_ten_to_the_thirty():
    rng = random.Random(41)
    big = 10**30
    values = [big + rng.randint(-(10**6), 10**6) for _ in range(40)]
    for k in (15, 16):
        assert elem_sym(k, values) == elem_sym_dp(k, values), k


def _shared_against_dp(monkeypatch, seqs, weights, k=16):
    """shared_products of seqs against elem_sym_dp of each concatenation;
    returns the lengths of the lists it derived coefficients of, in order."""
    derived = []
    derive = torus._coefficients

    def recording(k, values):
        derived.append(len(values))
        return derive(k, values)

    with monkeypatch.context() as m:
        m.setattr(torus, "_coefficients", recording)
        got = list(shared_products(k, visit_schedule(seqs), weights))
    for (ek, ek1), seq in zip(got, seqs):
        values = [v for c in seq for v in weights[c]]
        assert (ek, ek1) == (elem_sym_dp(k, values), elem_sym_dp(k - 1, values)), seq
    return derived


def test_visit_schedule_shares_prefixes_and_finds_the_repeated_indices():
    seqs = [[0, 1, 2], [0, 1, 3], [0, 2], [4], [4, 5], [5, 4], [5, 4]]
    steps, repeated = visit_schedule(seqs)
    assert steps == [
        (0, (0, 1, 2)),
        (2, (3,)),
        (1, (2,)),
        (0, (4,)),
        (1, (5,)),
        (0, (5, 4)),
        (2, ()),
    ]
    # 0 and 1 sit in shared prefixes after their first application
    assert repeated == (2, 4, 5)
    assert visit_schedule([]) == ([], ())
    assert visit_schedule([[3, 3]]) == ([(0, (3, 3))], (3,))


def test_shared_products_applies_a_repeated_long_cell_through_its_coefficients(monkeypatch):
    # cell 0 has k weights and cell 1 has k + 1; each is applied twice, and
    # only the longer one takes the coefficients
    rng = random.Random(43)
    weights = [[rng.randint(0, 1000) for _ in range(n)] for n in (16, 17)]
    assert _shared_against_dp(monkeypatch, [[0, 1], [1], [1, 0]], weights) == [17]
    assert _shared_against_dp(monkeypatch, [[0], [1], [0, 1], [1, 0]], weights) == [17]
    # a cell applied once, however long, is never derived
    longer = [w * 10 for w in weights]  # 160 and 170 weights
    assert _shared_against_dp(monkeypatch, [[0, 1]], longer) == []


def _weight_steps_of(monkeypatch, seqs, weights, long_cell):
    """Runs shared_products on seqs, its results against elem_sym_dp; returns
    how many weight steps multiplied by a weight of weights[long_cell]."""
    steps = Counter()

    class Weight(int):
        def __mul__(self, other):
            steps["long"] += 1
            return int.__mul__(self, other)

    derive = torus._coefficients
    counted = [list(w) for w in weights]
    counted[long_cell] = [Weight(v) for v in weights[long_cell]]
    with monkeypatch.context() as m:
        # the derivation at the list's own width is not a weight step
        m.setattr(torus, "_coefficients", lambda k, values: derive(k, [*map(int, values)]))
        got = list(shared_products(16, visit_schedule(seqs), counted))
    for (e16, e15), seq in zip(got, seqs):
        values = [v for c in seq for v in weights[c]]
        assert (e16, e15) == (elem_sym_dp(16, values), elem_sym_dp(15, values)), seq
    return steps["long"]


def test_a_repeated_long_cell_enters_through_its_coefficients_from_the_first(monkeypatch):
    # cell 0 is applied by the first and the third sequence, which are not
    # adjacent: none of its 40 weights ever multiplies the running product
    rng = random.Random(53)
    weights = [[rng.randint(0, 1000) for _ in range(n)] for n in (40, 12, 25)]
    seqs = [[0, 1], [2], [2, 0], [1]]
    assert _shared_against_dp(monkeypatch, seqs, weights) == [40]
    assert _weight_steps_of(monkeypatch, seqs, weights, 0) == 0
    # applied once, the same cell goes in weight by weight
    assert _weight_steps_of(monkeypatch, [[0, 1], [2]], weights, 0) == 40


def test_a_repeated_long_cell_at_the_width_edge_in_sequences_not_adjacent(monkeypatch):
    # the two 100-value cells of 977 first meet in sequence 0 and again in
    # sequence 2, after a sequence that shares nothing; their 200 copies of
    # 977 put e_16 in the top bit of the width
    weights = [[977] * 100, [977] * 100, [3, 1, 4, 1, 5]]
    seqs = [[0, 1], [2], [1, 0]]
    assert _shared_against_dp(monkeypatch, seqs, weights) == [100, 100]
    for long_cell in (0, 1):
        assert _weight_steps_of(monkeypatch, seqs, weights, long_cell) == 0
    e16 = list(shared_products(16, visit_schedule(seqs), weights))[2][0]
    assert e16.bit_length() == kronecker_width(16, 200 * 977)


def test_shared_products_coefficients_at_the_width_edge(monkeypatch):
    # both cells re-applied on the sequences with the largest sum: 200
    # copies of 977 put e_16 in the top bit of the width
    weights = [[977] * 100, [977] * 100]
    assert _shared_against_dp(monkeypatch, [[0, 1], [1, 0]], weights) == [100, 100]
    e16 = list(shared_products(16, visit_schedule([[0, 1], [1, 0]]), weights))[1][0]
    assert e16.bit_length() == kronecker_width(16, 200 * 977)


def test_shared_products_all_zero_long_cell(monkeypatch):
    # the repeated long cells are derived once per call, before the first
    # visit, in the order of their indices
    rng = random.Random(47)
    weights = [[0] * 30, [rng.randint(0, 50) for _ in range(20)]]
    assert _shared_against_dp(monkeypatch, [[0, 1], [1, 0], [0]], weights) == [30, 20]
    # a cell applied twice in one sequence takes its coefficients
    assert _shared_against_dp(monkeypatch, [[0, 0]], weights) == [30]


def test_check_generic():
    bags = [((0, -2, 0, 2), (1, -2, 1, 0))]
    assert check_generic(DEFAULT_WEIGHTS, bags)
    # equal weight gaps kill x0*x2/x1^2
    assert not check_generic(WeightSpec((0, 1, 2, 3)), bags)


def test_check_generic_all_fixed_points(points):
    bags = [fp.tangent for fp in points]
    assert check_generic(DEFAULT_WEIGHTS, bags)
    assert not check_generic(WeightSpec((0, 1, 2, 3)), bags)
