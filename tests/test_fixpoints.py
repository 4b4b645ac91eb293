import copy
import functools
import gc
import hashlib
import json
import math
import operator
import random
import re
import tracemalloc
import zlib
from collections import Counter
from pathlib import Path

import pytest

from nlocus import fixpoints as fx
from nlocus import gbcore, ideals
from nlocus.ideals import hilbert_polynomial, packed_counts, staircase_cells, standard_monomials
from nlocus.limits import e1_limit, unpack
from nlocus.poly import Polynomial, monomial_gcd, parse
from nlocus.torus import char_add, char_sub

from conftest import deformation_ideal, tear_writes

# sha256 of cache_bytes(enumerate_all()); a serializer that changes the file
# must update it and fixpoints.CACHE_FINGERPRINT
CACHE_SHA256 = "420a59c1bceb8a28fcc563d120d0ab508a7575ee8d9e23b26f647f8c8ffbd734"
# sha256 of the schema-3 cache file, the records of `point_to_json` with every
# row written out, which a loader of schema 4 must reject naming the schema
SCHEMA_3_SHA256 = "2a4eb76e6f62e264f924c439045f6544270b15ca3d64f31704f56c8bc31ba286"


def mono(text):
    """The x-exponent 4-tuple of a monomial in x0..x3."""
    return parse(text).lm()[:4]


def test_enumerate_pairs_census():
    pairs = fx.enumerate_pairs()
    assert len(pairs) == 45
    assert all(p.tangent.total() == 16 for p in pairs)
    assert all(k > 0 for p in pairs for k in p.tangent.values())


def test_pencil_x0sq_x1sq_tangent_contains_paper_fraction():
    pairs = fx.enumerate_pairs()
    target = [p for p in pairs if {p.q1, p.q2} == {mono("x0^2"), mono("x1^2")}]
    assert len(target) == 1
    tangent = target[0].tangent
    assert char_sub(mono("x0*x1"), mono("x0^2")) in tangent


def test_split_strata_counts(cascade):
    assert len(cascade.g2) == 21
    assert len(cascade.zs) == 24


def test_coprime_pair_goes_to_g2(cascade):
    coprime = [
        fp
        for fp in cascade.g2
        if {cascade.pairs[fp.provenance[0]].q1, cascade.pairs[fp.provenance[0]].q2}
        == {mono("x0*x1"), mono("x2*x3")}
    ]
    assert len(coprime) == 1


def test_common_factor_pair_goes_to_z(cascade):
    zs = [
        z
        for z in cascade.zs
        if {cascade.pairs[z.pair_index].q1, cascade.pairs[z.pair_index].q2}
        == {mono("x0^2"), mono("x0*x1")}
    ]
    assert len(zs) == 1
    z = zs[0]
    assert z.plane == mono("x0")
    assert {z.l1, z.l2} == {mono("x0"), mono("x1")}
    assert z.tangent_z.total() == 7
    assert z.normal.total() == 9


def test_y_incidence_count(cascade):
    assert sum(1 for z in cascade.zs if z.is_y_incident()) == 12


def test_e1_record_census(cascade):
    assert len(cascade.records) == 216
    for _, record in cascade.records:
        assert len(record.limit_cubics) == 8
        assert Counter(record.tangent).total() == 16
        assert all(k > 0 for k in Counter(record.tangent).values())


def test_classification_census(cascade):
    assert len(cascade.g2e1) == 180
    assert len(cascade.ws) == 36
    for w in cascade.ws:
        assert w.tangent_w.total() == 7
        assert w.normal.total() == 9
        assert all(k > 0 for k in w.normal.values())


def test_degenerate_directions_only_over_y(cascade):
    degenerate = {}
    for zi, _ in ((w.provenance[0], w) for w in cascade.ws):
        degenerate[zi] = degenerate.get(zi, 0) + 1
    assert all(cascade.zs[zi].is_y_incident() for zi in degenerate)
    assert all(count == 3 for count in degenerate.values())
    assert len(degenerate) == 12


def test_limit_cubics_hand_examples(cascade):
    z_index = next(
        i
        for i, z in enumerate(cascade.zs)
        if {cascade.pairs[z.pair_index].q1, cascade.pairs[z.pair_index].q2}
        == {mono("x0^2"), mono("x0*x1")}
    )
    z = cascade.zs[z_index]
    records = {r.direction: r for r in fx.e1_points(z)}
    # direction x1^2/x0^2 keeps the curve: limit <x0^2, x0*x1, x1^3> cubics
    curve = records[(-2, 2, 0, 0)]
    assert set(curve.limit_cubics) == {
        mono("x0^3"), mono("x0^2*x1"), mono("x0^2*x2"), mono("x0^2*x3"),
        mono("x0*x1^2"), mono("x0*x1*x2"), mono("x0*x1*x3"), mono("x1^3"),
    }
    # direction x2^2/(x0*x1) degenerates to x0 * (quadrics through the doublet)
    degen = records[(-1, -1, 2, 0)]
    assert set(degen.limit_cubics) == {
        mono("x0^3"), mono("x0^2*x1"), mono("x0^2*x2"), mono("x0^2*x3"),
        mono("x0*x1^2"), mono("x0*x1*x2"), mono("x0*x1*x3"), mono("x0*x2^2"),
    }


def test_w_points_carry_plane_line_doublet(cascade):
    shapes = set()
    for w in cascade.ws:
        assert sum(w.plane) == 1
        assert sum(w.line) == 1
        assert sum(w.doublet) == 2
        assert w.plane != w.line
        i_p, i_l = w.plane.index(1), w.line.index(1)
        assert all(w.doublet[i] == 0 for i in (i_p, i_l))
        shapes.add((w.plane, w.line, w.doublet))
    # 4 planes x 3 lines x 3 doublets, all distinct
    assert len(shapes) == 36


def test_e2_census_and_shape(cascade):
    assert len(cascade.e2) == 324
    for fp in cascade.e2:
        assert len(fp.quartics) == 19
        w = cascade.ws[fp.provenance[0]]
        i_plane = w.plane.index(1)
        free = [m for m in fp.quartics if m[i_plane] == 0]
        assert len(free) == 1  # exactly one generator away from the plane


def test_e2_pencil_chars(cascade):
    for fp in cascade.e2:
        w = cascade.ws[fp.provenance[0]]
        lp, ll = w.plane, w.line
        assert fp.pencil_chars == (
            tuple(2 * a for a in lp),
            tuple(a + b for a, b in zip(lp, ll)),
        )


def test_full_census_against_euler_oracle(points):
    counts = fx.stratum_counts(points)
    assert counts == (21, 180, 324)
    assert sum(counts) == 525
    assert fx.euler_characteristic_oracle() == 45 + 24 * 8 + 36 * 8 == 525


def test_every_fixed_point_invariants(points):
    seen = set()
    for fp in points:
        assert isinstance(fp.tangent, tuple)
        assert len(fp.tangent) == 16
        assert list(fp.tangent) == sorted(fp.tangent)
        assert len(fp.quartics) == 19
        assert all(sum(m) == 4 for m in fp.quartics)
        key = (fp.tag, fp.quartics, fp.tangent)
        assert key not in seen  # fixed points are distinct
        seen.add(key)


def test_every_fixed_point_hilbert_and_kbase(points):
    for fp in points:
        assert hilbert_polynomial(fp.quartics).coefficients == (0, 4)
        for d in range(4, 11):
            assert len(standard_monomials(fp.quartics, d)) == 4 * d


def test_points_keep_their_staircase_cells_shared(points):
    for fp in points:
        assert [ideals.CELLS[n] for n in fp.cells] == staircase_cells(fp.quartics)
    # 13,617 cells, one object for each of the 401 distinct ones
    assert sum(len(fp.cells) for fp in points) == 13617
    assert len({id(ideals.CELLS[n]) for fp in points for n in fp.cells}) <= 401


# sha256 of the repr of the staircase cells of the 216 E1 limit cubic systems
# and the 525 quartic systems, in cascade order, taken from a walk that
# computes every row of the grid: skipping covered rows must not change a
# cell or the order of the cells
CASCADE_CELLS_SHA256 = "7e687892e073ebe5c7d33a10d763ecf7ede05ad6c6dd4f6e764432ed8dc378cf"


def test_cascade_staircase_cells_are_pinned(cascade):
    systems = [record.limit_cubics for _, record in cascade.records]
    systems += [fp.quartics for fp in cascade.points]
    assert len(systems) == 741
    cells = repr([staircase_cells(s) for s in systems]).encode()
    assert hashlib.sha256(cells).hexdigest() == CASCADE_CELLS_SHA256


def test_cells_are_left_out_of_eq_repr_and_the_cache(points):
    fp = points[0]
    fresh = fp._replace()
    assert "cells" not in vars(fresh)
    assert fp.cells and fresh == fp and hash(fresh) == hash(fp)
    assert repr(fresh) == repr(fp) and "cells" not in repr(fp)
    assert fx.point_to_json(fp) == fx.point_to_json(fresh)
    assert "cells" not in vars(fresh)  # none of the above derived them
    # the cache file stores the cells, which the fresh point derives for it
    assert fx.cache_bytes([fresh]) == fx.cache_bytes([fp])
    assert fresh.cells == fp.cells and vars(fresh)["cells"] is not vars(fp)["cells"]


def test_enumerate_all_validates(points):
    full = fx.enumerate_all()
    assert fx.stratum_counts(full) == (21, 180, 324)
    assert full == points


def test_limit_cubics_match_matrix_oracle(cascade, saturation_limit):
    """limits.e1_limit, the linear algebra of criterion 8, against Buchberger
    saturation, degree by degree for d = 2..5, on all 252 presentations."""
    checked = 0
    for zi, record in cascade.records:
        pair = cascade.pairs[cascade.zs[zi].pair_index]
        for other, q, mp in fx._deformations((pair.q1, pair.q2), record.direction):
            limits = {d: unpack(bits) for d, bits in e1_limit(other, q, mp).items()}
            assert limits == saturation_limit(other, q, mp), (record.direction, other, q)
            assert limits[3] == set(record.limit_cubics)
            checked += 1
    assert checked == 252


def _z_with_direction(cascade, e):
    """The ZPoint of the pencil <x0^2, x0*x1> with e as its only normal direction."""
    z = next(
        z
        for z in cascade.zs
        if {cascade.pairs[z.pair_index].q1, cascade.pairs[z.pair_index].q2}
        == {mono("x0^2"), mono("x0*x1")}
    )
    return z._replace(normal=Counter([e]))


def test_e1_direction_no_generator_admits(cascade):
    # x2*x3/x1^2 takes both x0^2 and x0*x1 to a negative exponent of x1
    e = (0, -2, 1, 1)
    with pytest.raises(
        fx.StructuralError, match=re.escape(f"no pencil generator admits direction {e}")
    ):
        fx.e1_points(_z_with_direction(cascade, e))


def test_e1_direction_extra_cubic_already_in_the_pencil(cascade):
    # x0/x1 is admitted by x0*x1, but its cubic p*l1*l2*x^e = x0^3 is p*l1*x0
    e = (1, -1, 0, 0)
    with pytest.raises(
        fx.StructuralError,
        match=re.escape(f"limit cubic x0^3 of direction {e} is already a cubic"),
    ):
        fx.e1_points(_z_with_direction(cascade, e))


def test_deformation_ideal_is_the_deformed_pencil():
    ((other, q, mp),) = fx._deformations((mono("x0^2"), mono("x0*x1")), (-1, -1, 2, 0))
    assert (other, q, mp) == (mono("x0^2"), mono("x0*x1"), mono("x2^2"))
    gens = deformation_ideal(other, q, mp)
    assert list(gens) == [parse("x0^2"), parse("x0*x1 + t*x2^2")]


def test_enumeration_runs_without_buchberger(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Buchberger called on the fixed-point path")

    def refuse_polynomial(self, *args, **kwargs):
        raise AssertionError("Polynomial built on the fixed-point path")

    def refuse_hilbert(lead_x):
        raise AssertionError("hilbert_polynomial called on the fixed-point path")

    def refuse_rational(*args, **kwargs):
        raise AssertionError("a rational Hilbert polynomial built on the fixed-point path")

    hilbert_calls = Counter()

    def counted_packed_counts(numbers, ds, most):
        hilbert_calls["cells"] += 1
        return packed_counts(numbers, ds, most)

    monkeypatch.setattr(gbcore, "groebner", refuse)
    monkeypatch.setattr(Polynomial, "__init__", refuse_polynomial)
    monkeypatch.setattr(ideals, "hilbert_polynomial", refuse_hilbert)
    monkeypatch.setattr(ideals, "interpolate", refuse_rational)
    monkeypatch.setattr(fx, "packed_counts", counted_packed_counts)
    points = fx.enumerate_all()
    # one 4t check for all the fixed points, in integers, read off the cells
    # the points keep; the E1 limits are classified by their common plane,
    # with no Hilbert polynomial of their own
    assert not hasattr(fx, "hilbert_polynomial")
    assert not hasattr(fx, "UnivariateRationalPoly")
    assert not hasattr(fx, "interpolate")
    assert hilbert_calls == {"cells": 1}
    assert fx.stratum_counts(points) == (21, 180, 324)
    assert hashlib.sha256(fx.cache_bytes(points)).hexdigest() == CACHE_SHA256


def _common_factor(monos):
    return functools.reduce(monomial_gcd, monos)


def test_common_plane_is_trivial_exactly_when_the_cubics_are_4t(cascade):
    degrees = Counter()
    for zi, record in cascade.records:
        plane = _common_factor(record.limit_cubics)
        is_4t = hilbert_polynomial(record.limit_cubics).coefficients == (0, 4)
        assert (not any(plane)) == is_4t, (zi, record.direction_index)
        degrees[sum(plane)] += 1
    assert degrees == {0: 180, 1: 36}


# 7 cubics with no common factor whose products with the linear forms are
# 19 quartics, like a G2E1 limit's, but whose Hilbert polynomial is 3d + 4
NOT_4T_CUBICS = tuple(
    mono(m) for m in ("x0^3", "x0^2*x1", "x0*x1^2", "x1^3", "x0^2*x2", "x0*x1*x2", "x1^2*x2")
)


def test_a_g2e1_limit_that_is_not_4t_fails_naming_its_point(monkeypatch, cascade):
    assert not any(_common_factor(NOT_4T_CUBICS))
    assert len({char_add(c, x) for c in NOT_4T_CUBICS for x in fx.LINEARS}) == 19
    assert str(hilbert_polynomial(NOT_4T_CUBICS)) == "3*d+4"
    zi, direction = cascade.g2e1[57].provenance
    real = fx.e1_points

    def mutated(z):
        records = real(z)
        if z == cascade.zs[zi]:
            records[direction] = records[direction]._replace(limit_cubics=NOT_4T_CUBICS)
        return records

    monkeypatch.setattr(fx, "e1_points", mutated)
    message = f"fiber rank 31 != 36 at G2E1{(zi, direction)}, d=9"
    with pytest.raises(fx.StructuralError, match=f"^{re.escape(message)}$"):
        fx.enumerate_all()


def test_the_4t_check_reads_past_every_cell(points):
    """The 4t check's degrees are derived from the cells: a cell at base
    (4, 4, 4) with no free coordinate and bound 1 holds one monomial, in
    degree 12 only, and leaves a point's Hilbert polynomial 4t; unbounded,
    it adds one monomial in every degree from 12 on, and the point fails."""
    fp = points[300]
    fx.check_4t(points)
    for bound, counts in ((1, [1] + [0] * 48), (math.inf, [1] * 49)):
        extra = ideals.quartic_cell((4, 4, 4), (), bound)
        cell = ideals.CELLS[extra]
        assert ideals.monomial_counts(cell, range(61)) == [0] * 12 + counts
        assert ideals.polynomial_from([cell]) == 12 + (bound if bound != math.inf else 0)
        given = fp._replace()
        given.cells = (*fp.cells, extra)
        tampered = points[:300] + [given] + points[301:]
        if bound == math.inf:
            message = "fiber rank 49 != 48 at E2(11, 0), d=12"
            with pytest.raises(fx.StructuralError, match=f"^{re.escape(message)}$"):
                fx.check_4t(tampered)
        else:
            fx.check_4t(tampered)


@pytest.mark.parametrize(
    "factor, cubics",
    [("x0^2", ("x0^3", "x0^2*x1", "x0^2*x2", "x0^2*x3")), ("x1^2*x2", ("x1^2*x2",))],
)
def test_limit_cubics_with_a_common_factor_of_degree_2_or_more_fail(
    cascade, factor, cubics
):
    zi, record = cascade.records[100]
    degenerate = record._replace(limit_cubics=tuple(map(mono, cubics)))
    message = (
        f"E1 limit ({zi}, {record.direction_index}), direction {record.direction}:"
        f" the limit cubics share {factor}, of degree {sum(mono(factor))}, not a plane"
    )
    with pytest.raises(fx.StructuralError, match=f"^{re.escape(message)}$"):
        fx.classify_e1(degenerate, cascade.zs[zi], zi)


def _outside(bits):
    """The bit of the largest quartic that is not in the 35-bit set bits."""
    return next(bit for _, bit in reversed(ideals.QUARTIC_BITS.items()) if not bits & bit)


def test_a_corrupted_multiples_table_fails_each_rank_check(monkeypatch, cascade):
    """Each quartic system is the OR of the quadric or cubic multiples tables:
    one more quartic in a table entry fails the G2 and G2E1 rank-19 checks
    and the W rank-18 check, and the extra quartic of an E2 point put into
    the W base fails as already there; each with its message."""
    x0sq, x3_4 = mono("x0^2"), ideals.QUARTIC_BITS[mono("x3^4")]
    monkeypatch.setitem(fx.QUADRIC_MULTIPLES, x0sq, fx.QUADRIC_MULTIPLES[x0sq] | x3_4)
    message = "pencil (x0^2, x1^2) spans 20 quartics, expected 19"
    with pytest.raises(fx.StructuralError, match=f"^{re.escape(message)}$"):
        fx.split_strata(cascade.pairs)
    monkeypatch.undo()

    zi, direction = cascade.g2e1[0].provenance
    record = next(r for i, r in cascade.records if (i, r.direction_index) == (zi, direction))
    c = record.limit_cubics[0]
    system = fx.quartic_span(fx.CUBIC_MULTIPLES, record.limit_cubics)
    monkeypatch.setitem(fx.CUBIC_MULTIPLES, c, fx.CUBIC_MULTIPLES[c] | _outside(system))
    message = f"G2E1{(zi, direction)} quartic system has rank 20, expected 19"
    with pytest.raises(fx.StructuralError, match=f"^{re.escape(message)}$"):
        fx.classify_e1(record, cascade.zs[zi], zi)
    monkeypatch.undo()

    w = cascade.ws[0]
    base = fx.quartic_span(fx.CUBIC_MULTIPLES, w.cubic_system)
    c = w.cubic_system[0]
    monkeypatch.setitem(fx.CUBIC_MULTIPLES, c, fx.CUBIC_MULTIPLES[c] | _outside(base))
    message = "W quartic base has rank 19, expected 18"
    with pytest.raises(fx.StructuralError, match=f"^{re.escape(message)}$"):
        fx.e2_points(w, 0)
    monkeypatch.undo()

    # the first point's extra quartic g takes the place of a base quartic
    # that only one cubic gives, so the base keeps rank 18
    g = char_add(sorted(w.normal)[0], char_add(char_add(w.plane, w.line), w.doublet))
    for c in w.cubic_system:
        others = fx.quartic_span(fx.CUBIC_MULTIPLES, [x for x in w.cubic_system if x != c])
        unique = fx.CUBIC_MULTIPLES[c] & ~others
        if unique:
            break
    corrupted = fx.CUBIC_MULTIPLES[c] & ~(unique & -unique) | ideals.QUARTIC_BITS[g]
    monkeypatch.setitem(fx.CUBIC_MULTIPLES, c, corrupted)
    message = f"extra quartic {g} already in the cubic system"
    with pytest.raises(fx.StructuralError, match=f"^{re.escape(message)}$"):
        fx.e2_points(w, 0)


@pytest.mark.parametrize("e", [(-4, 0, 0, 4), (1, 0, 0, 0)])
def test_a_w_direction_with_no_quartic_presentation_fails(cascade, e):
    # g = e + char(plane * line * doublet) has a negative exponent or degree 5
    w = cascade.ws[0]._replace(normal=Counter({e: 1}))
    message = f"direction {e} has no quartic presentation over W"
    with pytest.raises(fx.StructuralError, match=f"^{re.escape(message)}$"):
        fx.e2_points(w, 0)


def _first_degenerate(cascade):
    """The index of the Z point of the first E1 record that lands on W, the
    record, and the place that a StructuralError on it names."""
    zi, record = next(
        (zi, r) for zi, r in cascade.records if any(_common_factor(r.limit_cubics))
    )
    return zi, record, f"E1 limit ({zi}, {record.direction_index}), direction {record.direction}"


def _less_last(normal):
    """A centre point's normal characters without the largest one."""
    return normal - Counter([max(normal)])


def _split_first_z_pair(cascade, **changes):
    """Split the first pencil with a common plane, (x0^2, x0*x1), its fields changed."""
    fx.split_strata([cascade.pairs[cascade.zs[0].pair_index]._replace(**changes)])


def _classify_first_degenerate(cascade, z_changes=None, **changes):
    zi, record, _ = _first_degenerate(cascade)
    fx.classify_e1(record._replace(**changes), cascade.zs[zi]._replace(**z_changes or {}), zi)


def _linears_doubled(cascade, monkeypatch):
    monkeypatch.setattr(fx, "LINEARS", fx.LINEARS + fx.LINEARS[-1:])
    _split_first_z_pair(cascade)


def _quadrics_doubled(cascade, monkeypatch):
    # x2^2 avoids the plane x0 and the line x1 of the first W point
    monkeypatch.setattr(fx, "QUADRICS", fx.QUADRICS + [mono("x2^2")])
    _classify_first_degenerate(cascade)


def _z_normal_doubled(cascade, monkeypatch):
    """The cascade as `enumerate_all` runs it, on pencils whose first pair with
    a common plane has one of its normal characters twice in its tangent."""
    z = cascade.zs[0]
    pairs = list(cascade.pairs)
    pair = pairs[z.pair_index]
    pairs[z.pair_index] = pair._replace(tangent=pair.tangent + Counter([max(z.normal)]))
    monkeypatch.setattr(fx, "enumerate_pairs", lambda: pairs)
    fx.enumerate_all()


def _w_normal_doubled(cascade, monkeypatch):
    """Classify the first E1 record that lands on W, one of the W point's normal
    characters twice in its tangent, and take the E2 points over it."""
    zi, record, _ = _first_degenerate(cascade)
    tangent = tuple(sorted(record.tangent + (max(cascade.ws[0].normal),)))
    fx.e2_points(fx.classify_e1(record._replace(tangent=tangent), cascade.zs[zi], zi), 0)


# each cascade StructuralError that the other tests do not reach: its message
# (a callable of the place it names, for those that name the first E1 record
# that lands on W) and the way to provoke it
CASCADE_ERRORS = {
    "pencil-square-factor": (
        "distinct quadric monomials share a quadratic factor",
        lambda c, mp: _split_first_z_pair(c, q2=c.pairs[c.zs[0].pair_index].q1),
    ),
    "z-tangent-size": ("Z tangent size 10 != 7", _linears_doubled),
    "z-tangent-outside": (
        "Z tangent is not contained in the pencil tangent",
        lambda c, mp: _split_first_z_pair(c, tangent=Counter()),
    ),
    "z-normal-multiplicity": ("normal character with multiplicity > 1 over Z", _z_normal_doubled),
    "e1-tangent-size": (
        "E1 tangent size 15 != 16",
        lambda c, mp: fx.e1_points(c.zs[0]._replace(normal=_less_last(c.zs[0].normal))),
    ),
    "w-tangent-size": (lambda where: f"{where}: W tangent size 8 != 7", _quadrics_doubled),
    "w-tangent-outside": (
        lambda where: f"{where}: W tangent is not contained in the E1 tangent",
        lambda c, mp: _classify_first_degenerate(c, tangent=()),
    ),
    "w-normal-multiplicity": ("normal character with multiplicity > 1 over W", _w_normal_doubled),
    "e2-tangent-size": (
        "E2 tangent size 15 != 16",
        lambda c, mp: fx.e2_points(c.ws[0]._replace(normal=_less_last(c.ws[0].normal)), 0),
    ),
    "plane-not-z": (
        lambda where: f"{where}: common plane of the limit cubics is not the Z plane",
        lambda c, mp: _classify_first_degenerate(c, {"plane": mono("x1")}),
    ),
    "outside-y": (
        lambda where: f"{where}: degenerate limit over a ZPoint outside Y",
        lambda c, mp: _classify_first_degenerate(c, {"l1": mono("x2")}),
    ),
    # the line becomes x2, so x1^2, x1*x3 and x3^2 all avoid it and the plane x0
    "doublet-not-unique": (
        lambda where: f"{where}: doublet is not unique:"
        " [(0, 2, 0, 0), (0, 1, 0, 1), (0, 0, 0, 2)]",
        lambda c, mp: _classify_first_degenerate(c, {"l1": mono("x2"), "l2": mono("x0")}),
    ),
}


@pytest.mark.parametrize("case", sorted(CASCADE_ERRORS))
def test_each_cascade_error_keeps_its_message(monkeypatch, cascade, case):
    message, provoke = CASCADE_ERRORS[case]
    if callable(message):
        message = message(_first_degenerate(cascade)[2])
    with pytest.raises(fx.StructuralError, match=f"^{re.escape(message)}$"):
        provoke(cascade, monkeypatch)


# -- cache -------------------------------------------------------------------


def test_cache_round_trip_runs_without_parsing(monkeypatch, points, tmp_path):
    def refuse(self, *args, **kwargs):
        raise AssertionError("Polynomial built on the cache path")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    path = tmp_path / "cache.json"
    fx.save_cache(points, path)
    assert fx.load_cache(path) == points


def test_cache_bytes_are_pinned(points):
    data = fx.cache_bytes(points)
    assert len(data) == 174_082
    assert hashlib.sha256(data).hexdigest() == CACHE_SHA256


def test_cache_bytes_deterministic(points):
    assert fx.cache_bytes(points) == fx.cache_bytes(list(points))


def test_save_cache_failing_midway_keeps_the_old_file(points, tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    fx.save_cache(points[:3], path)
    assert list(tmp_path.iterdir()) == [path]
    before = path.read_bytes()
    tear_writes(monkeypatch, len(fx.cache_bytes(points)) // 2, OSError("writer killed"))
    with pytest.raises(OSError, match="writer killed"):
        fx.save_cache(points, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_tangent_multiset_totals(cascade):
    # blow-up bookkeeping: each E1/E2 tangent is fiber + base + direction
    for zi, record in cascade.records:
        z = cascade.zs[zi]
        shifted = Counter(
            [char_sub(n, record.direction) for n in z.normal if n != record.direction]
        )
        assert Counter(record.tangent) == shifted + z.tangent_z + Counter([record.direction])


def _blown_up(base, normal, e):
    """The tangent Counter at direction e over a centre: base + (normal - e) / e + e."""
    fiber = normal - Counter([e])
    return base + Counter([char_sub(n, e) for n in fiber.elements()]) + Counter([e])


def test_g2e1_and_e2_tangents_are_the_blowup_formula(cascade):
    for fp in cascade.g2e1:
        z_index, index = fp.provenance
        z = cascade.zs[z_index]
        e = sorted(z.normal)[index]
        assert Counter(fp.tangent) == _blown_up(z.tangent_z, z.normal, e)
        assert fp.tangent == tuple(sorted(fp.tangent))
    for fp in cascade.e2:
        w_index, index = fp.provenance
        w = cascade.ws[w_index]
        e = sorted(w.normal)[index]
        assert Counter(fp.tangent) == _blown_up(w.tangent_w, w.normal, e)
        assert fp.tangent == tuple(sorted(fp.tangent))
        # the extra quartic goes into the W base at its grevlex place
        base = {char_add(c, x) for c in w.cubic_system for x in fx.LINEARS}
        assert fp.quartics == fx._sort_monos(set(fp.quartics))
        assert len(set(fp.quartics) - base) == 1 and base < set(fp.quartics)


def test_enumeration_builds_counters_only_at_the_centres(monkeypatch):
    """Multiset arithmetic with Counter is done at the 45 pencils, 24 Z
    points and 36 W points; a Counter per fixed point would make 525 more."""
    built = []
    real = Counter.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Counter, "__init__", counted)
    fx.enumerate_all()
    assert 0 < len(built) < 525


def test_load_cache_absent_file_is_none(tmp_path):
    assert fx.load_cache(tmp_path / "missing.json") is None


@pytest.fixture(scope="module")
def cascade_document(points):
    return json.loads(fx.cache_bytes(points))


@pytest.fixture
def known_cascade(monkeypatch, cascade_document):
    """Each load error runs the cascade to name what differs; its document is
    a constant, so tests with many such errors hand the loader a copy made once."""
    monkeypatch.setattr(fx, "_cascade_document", lambda: cascade_document)


SCHEMA = f'"schema":{fx.SCHEMA_VERSION}'
MALFORMED_CACHES = {
    "array": "[]",
    "no-points": f"{{{SCHEMA}}}",
    "undecodable": f'{{{SCHEMA},"points":[',
    "no-schema": '{"points":[]}',
    "points-not-list": f'{{{SCHEMA},"points":{{}}}}',
    "record-not-object": f'{{{SCHEMA},"points":[[]]}}',
    "deeply-nested": "[" * 200_000,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CACHES))
def test_load_cache_rejects_malformed_file(tmp_path, case):
    path = tmp_path / "cache.json"
    path.write_text(MALFORMED_CACHES[case])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        fx.load_cache(path)


MALFORMED_RECORDS = {
    "missing-key": ("quartics", None),
    "tag-not-string": ("tag", 7),
    "tag-unknown": ("tag", "X"),
    "tangent-short-row": ("tangent", [[1, -1, 0]]),
    "tangent-long-row": ("tangent", [[1, -1, 0, 0, 1]]),
    "tangent-not-int": ("tangent", [[1, -1, 0, "0"]]),
    "quartic-with-t": ("quartics", [[4, 0, 0, 0], [3, 1, 0, 0, 1]]),
    "quartic-not-int": ("quartics", [[4, 0, 0, 0], [3, 1, 0, "0"]]),
    "quartic-negative": ("quartics", [[4, 0, 0, 0], [5, -1, 0, 0]]),
    "pencil-not-rows": ("pencil", [0, 1]),
    "pencil-one-row": ("pencil", [[2, 0, 0, 0]]),
    "provenance-not-ints": ("provenance", [0.5]),
}


@pytest.mark.usefixtures("known_cascade")
@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_load_cache_names_malformed_record(tmp_path, points, case):
    field, value = MALFORMED_RECORDS[case]
    path = tmp_path / "cache.json"
    fx.save_cache(points, path)
    doc = json.loads(path.read_text())
    if value is None:
        del doc["points"][3][field]
    else:
        doc["points"][3][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}, record 3: .*'{field}'"):
        fx.load_cache(path)


def test_provenance_bounds_are_derived_and_fit_the_cascade(points):
    # a G2 point is one of the C(10, 2) pencils of quadric monomials, a G2E1
    # point a direction over one of the other pencils (the ZPoints), an E2
    # point a direction over a WPoint; a fiber has 16 - 7 = 9 directions
    pairs, directions = math.comb(len(fx.QUADRICS), 2), 16 - 7
    bounds = {
        "G2": (pairs,),
        "G2E1": (pairs - fx.CENSUS[0], directions),
        "E2": (fx.CENSUS[2] // directions, directions),
    }
    assert bounds == {"G2": (45,), "G2E1": (24, 9), "E2": (36, 9)}
    for tag in fx.STRATA:
        provenances = [fp.provenance for fp in points if fp.tag == tag]
        assert len(set(provenances)) == len(provenances)
        assert {len(v) for v in provenances} == {len(bounds[tag])}
        assert all(0 <= v < b for p in provenances for v, b in zip(p, bounds[tag]))
    # every ZPoint and WPoint, and every direction, has a point
    for tag in ("G2E1", "E2"):
        provenances = [fp.provenance for fp in points if fp.tag == tag]
        assert tuple(max(p[i] for p in provenances) + 1 for i in (0, 1)) == bounds[tag]


def _compact(value):
    """value as JSON text in the layout of `cache_bytes`: sorted keys, no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _differs(path, index, key, points):
    """The pattern of the load error for record index differing at key."""
    point = f"{points[index].tag}{points[index].provenance}"
    message = f"{path}, record {index}: {key!r} differs from the cascade's {point}"
    return f"^fixed-point cache {re.escape(message)}$"


def _saved_doc(points, tmp_path):
    path = tmp_path / "cache.json"
    fx.save_cache(points, path)
    return path, json.loads(path.read_text())


def test_load_cache_rejects_a_g2_e2_tag_swap(tmp_path, points):
    # the counts header still matches, and so does every field but the tags
    path, doc = _saved_doc(points, tmp_path)
    first, last = doc["points"][0], doc["points"][-1]
    assert (first["tag"], last["tag"]) == ("G2", "E2")
    first["tag"], last["tag"] = last["tag"], first["tag"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=_differs(path, 0, "tag", points)):
        fx.load_cache(path)


def test_load_cache_rejects_an_e2_data_swap(tmp_path, points):
    # tags, provenances, the counts header and the tables are the cascade's;
    # the data of records 300 and 301 are each other's
    path, doc = _saved_doc(points, tmp_path)
    a, b = doc["points"][300], doc["points"][301]
    assert (a["tag"], b["tag"]) == ("E2", "E2")
    for key in ("tangent", "quartics", "pencil", "cells"):
        a[key], b[key] = b[key], a[key]
    path.write_bytes(_compact(doc) + b"\n")
    message = f"{path}, record 300: 'cells' differs from the cascade's E2(11, 0)"
    with pytest.raises(ValueError, match=f"^fixed-point cache {re.escape(message)}$"):
        fx.load_cache(path)


def test_load_cache_rejects_a_reformatted_file(tmp_path, points):
    path, doc = _saved_doc(points, tmp_path)
    path.write_text(json.dumps(doc, indent=1))
    message = f"{path}: its values are the cascade's, its bytes are not"
    with pytest.raises(ValueError, match=f"^fixed-point cache {re.escape(message)}$"):
        fx.load_cache(path)


def test_cache_fingerprint_is_derived():
    data = fx.cache_bytes(fx.enumerate_all())
    assert (len(data), zlib.crc32(data)) == fx.CACHE_FINGERPRINT
    assert hashlib.sha256(data).hexdigest() == CACHE_SHA256


def test_a_cache_hit_enumerates_nothing(monkeypatch, points, tmp_path):
    path = tmp_path / "cache.json"
    fx.save_cache(points, path)
    data = path.read_bytes()

    def refuse():
        raise AssertionError("the cascade ran on a cache hit")

    monkeypatch.setattr(fx, "enumerate_all", refuse)
    assert fx.load_cache(path) == points
    assert fx.load_or_enumerate(path) == points
    assert path.read_bytes() == data


def test_cache_bytes_encodes_record_by_record(points):
    """The encoder's peak of traced memory stays within 5 times the file's
    size; one json.dumps of the whole document takes about 18 times.  The
    points' cells are derived first, as in `test_save_cache_writes_chunk_by_chunk`."""
    for fp in points:
        fp.cells
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        data = fx.cache_bytes(points)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(data).hexdigest() == CACHE_SHA256
    assert peak < 5 * len(data), (peak, len(data))


def _encoded_record_by_record(points):
    """The cache document built value by value, each record a `json.dumps` of
    its tag, its provenance and its rows' and cells' indices in the sorted
    tables of the distinct rows and cells: the encoder `cache_bytes`
    replaced, kept as its oracle."""
    compact = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    rows = sorted({row for fp in points for row in fp.tangent + fp.quartics + fp.pencil_chars})
    cells = sorted({ideals.CELLS[n] for fp in points for n in fp.cells})
    row_at = {row: n for n, row in enumerate(rows)}
    cell_at = {cell: n for n, cell in enumerate(cells)}
    distinct = {
        "cells": [[c.base, c.free, None if c.bound == math.inf else c.bound] for c in cells],
        "rows": rows,
    }
    records = [
        {
            "cells": [cell_at[ideals.CELLS[n]] for n in fp.cells],
            "pencil": [row_at[row] for row in fp.pencil_chars],
            "provenance": fp.provenance,
            "quartics": [row_at[row] for row in fp.quartics],
            "tag": fp.tag,
            "tangent": [row_at[row] for row in fp.tangent],
        }
        for fp in points
    ]
    counts = compact(dict(zip(fx.STRATA, fx.stratum_counts(points))))
    return (
        f'{{"counts":{counts},"distinct":{compact(distinct)}'
        f',"points":[{",".join(map(compact, records))}],"schema":{fx.SCHEMA_VERSION}}}\n'
    ).encode()


# one point of each tag, with one- and two-entry provenances, zero, negative
# and large entries, an empty tangent, an empty quartic system (one cell with
# no x3 bound) and rows and cells shared between keys and points
SYNTHETIC_POINTS = [
    fx.FixedPoint("G2", ((-1, 1, 0, 0), (0, 0, 0, 0)), ((4, 0, 0, 0),), ((2, 0, 0, 0),), (0,)),
    fx.FixedPoint(
        "G2E1",
        ((-12, 0, 7, 5), (2**70, -(2**70), 0, 0)),
        ((0, 0, 0, 4), (1, 1, 1, 1)),
        ((0, 0, 1, 1), (4, 0, 0, 0)),
        (23, 8),
    ),
    fx.FixedPoint("E2", (), (), ((0, 0, 0, 0), (0, 0, 0, 0)), (0, 0)),
    fx.FixedPoint("G2", ((-1, 1, 0, 0),), ((4, 0, 0, 0),), ((2, 0, 0, 0),), (-3,)),
]


@pytest.mark.parametrize("which", ["cascade", "synthetic", "empty"])
def test_cache_bytes_are_the_record_by_record_encoding(points, which):
    some = {"cascade": points, "synthetic": SYNTHETIC_POINTS, "empty": []}[which]
    assert fx.cache_bytes(some) == _encoded_record_by_record(some)


@pytest.mark.parametrize("which", ["cascade", "synthetic", "empty"])
def test_the_point_reader_gives_back_the_points_and_their_shared_cells(points, which):
    some = {"cascade": points, "synthetic": SYNTHETIC_POINTS, "empty": []}[which]
    doc = json.loads(fx.cache_bytes(some), object_hook=fx._point_reader())
    assert doc["points"] == some
    for got, fp in zip(doc["points"], some):
        assert got.cells == fp.cells == ideals.quartic_cells(fp.quartics)
        assert all(map(operator.is_, got.cells, ideals.quartic_cells(fp.quartics)))


def test_a_cache_load_never_holds_the_whole_document_and_all_points(tmp_path, points):
    """Each record gives way to its point, so the load's peak of traced
    memory stays below the parsed document plus half the points."""
    path = tmp_path / "cache.json"
    fx.save_cache(points, path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        document = json.loads(path.read_bytes())
        document_size = tracemalloc.get_traced_memory()[0] - base
        del document
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        loaded = fx.load_cache(path)
        size, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert loaded == points
    assert peak < document_size + size / 2, (peak, document_size, size)


def test_loaded_points_share_one_tuple_per_distinct_row(tmp_path, points):
    path = tmp_path / "cache.json"
    fx.save_cache(points, path)
    loaded = fx.load_cache(path)
    assert loaded == points
    rows = [row for fp in loaded for row in (*fp.tangent, *fp.quartics, *fp.pencil_chars)]
    assert len(rows) == 525 * (16 + 19 + 2) == 19_425
    assert len(set(rows)) == len({id(row) for row in rows}) == 275


def test_save_cache_writes_chunk_by_chunk(tmp_path, points):
    """The writer's peak of traced memory stays below half the file's size;
    building the whole document first takes about twice the file's size.
    The points' cells, which the file stores, are derived first: they stay
    with the points, not with the writer."""
    path = tmp_path / "cache.json"
    for fp in points:
        fp.cells
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fx.save_cache(points, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == CACHE_SHA256
    assert peak < len(data) / 2, (peak, len(data))


@pytest.mark.parametrize("enabled", [True, False])
def test_load_cache_restores_the_collector_state(tmp_path, points, enabled):
    """load_cache pauses the cyclic collector while it reads the file, and
    leaves it as it was after a hit, a missing file and a load error."""
    path, bad = tmp_path / "cache.json", tmp_path / "bad.json"
    fx.save_cache(points, path)
    bad.write_bytes(b"{")
    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert fx.load_cache(path) == points
        assert gc.isenabled() is enabled
        assert fx.load_cache(tmp_path / "missing.json") is None
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="is unreadable"):
            fx.load_cache(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_enumerate_all_pauses_the_collector_and_restores_its_state(monkeypatch, enabled):
    """The cascade runs with the cyclic collector paused, and leaves it as it
    was, also when the cascade raises."""
    seen = []
    real = fx.split_strata

    def recording(pairs):
        seen.append(gc.isenabled())
        if len(seen) > 1:
            raise fx.StructuralError("split failed")
        return real(pairs)

    monkeypatch.setattr(fx, "split_strata", recording)
    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert len(fx.enumerate_all()) == 525
        assert gc.isenabled() is enabled
        with pytest.raises(fx.StructuralError, match="^split failed$"):
            fx.enumerate_all()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert seen == [False, False]


@pytest.mark.usefixtures("known_cascade")
@pytest.mark.parametrize("schema", [-1, 1, 2])
def test_a_cache_of_another_schema_is_an_error_left_untouched(
    tmp_path, cascade_document, schema
):
    path = tmp_path / "cache.json"
    data = _compact(dict(cascade_document, schema=schema)) + b"\n"
    path.write_bytes(data)
    message = f"{path}: header 'schema' differs from the cascade's"
    for load in (fx.load_cache, fx.load_or_enumerate):
        with pytest.raises(ValueError, match=f"^fixed-point cache {re.escape(message)}$"):
            load(path)
    assert path.read_bytes() == data


@pytest.mark.usefixtures("known_cascade")
def test_a_schema_3_cache_is_an_error_naming_the_schema_left_untouched(tmp_path, points):
    """A file of schema 3 writes every row of every record out, as
    `point_to_json` gives it, and has no tables: it is rejected by its schema,
    the one header key that tells the formats apart."""
    doc = {
        "counts": dict(zip(fx.STRATA, fx.stratum_counts(points))),
        "points": [fx.point_to_json(fp) for fp in points],
        "schema": 3,
    }
    data = _compact(doc) + b"\n"
    assert len(data) == 240_168 and hashlib.sha256(data).hexdigest() == SCHEMA_3_SHA256
    path = tmp_path / "cache.json"
    path.write_bytes(data)
    message = f"{path}: header 'schema' differs from the cascade's"
    for load in (fx.load_cache, fx.load_or_enumerate):
        with pytest.raises(ValueError, match=f"^fixed-point cache {re.escape(message)}$"):
            load(path)
    assert path.read_bytes() == data


@pytest.mark.usefixtures("known_cascade")
@pytest.mark.parametrize(
    "records, index",
    [(lambda r: [*r, 7], 525), (lambda r: [*r, {}], 525), (lambda r: r[:-1], 524)],
    ids=["extra-int", "extra-object", "missing-last"],
)
def test_load_cache_names_a_surplus_or_missing_record(
    tmp_path, cascade_document, records, index
):
    path = tmp_path / "cache.json"
    doc = dict(cascade_document, points=records(cascade_document["points"]))
    path.write_bytes(_compact(doc) + b"\n")
    message = f"{path}, record {index}: the cascade has 525 records"
    with pytest.raises(ValueError, match=f"^fixed-point cache {re.escape(message)}$"):
        fx.load_cache(path)


def _corrupt_record(rng, record, other):
    """Change one field of a cache record in place, taking foreign values from
    another record: its tag, its provenance, or an index of its cells,
    tangent, quartics or pencil (dropped, repeated, moved, foreign or bumped).
    Returns the key of the field and the kind of change, such as "index drop"."""
    key = rng.choice(("tag", "provenance", "cells", "tangent", "quartics", "pencil"))
    value = record[key]
    if key == "tag":
        record[key] = rng.choice([*fx.STRATA, "X", 7])
        return key, "tag"
    if key == "provenance":
        bumped = [*value[:-1], value[-1] + rng.choice((-1, 1, 9))]
        variants = {
            "bumped": bumped,
            "longer": [*value, 0],
            "shorter": value[:-1],
            "out-of-range": [999, 999],
            "foreign": other[key],
        }
        kind = rng.choice(list(variants))
        record[key] = variants[kind]
        return key, f"provenance {kind}"
    indices, i, j = list(value), *rng.sample(range(len(value)), 2)
    kind = rng.choice(("drop", "repeat", "move", "foreign", "bumped"))
    if kind == "drop":
        del indices[i]
    elif kind == "repeat":
        indices[j] = indices[i]
    elif kind == "move":
        indices.insert(j, indices.pop(i))
    elif kind == "foreign":
        indices[i] = rng.choice(other[key])
    else:
        indices[i] += rng.choice((-2, -1, 1, 2))
    record[key] = indices
    return key, f"index {kind}"


def _corrupt_table(rng, distinct):
    """A copy of a cache file's tables with one entry changed: one integer of
    a row, a row dropped, or the bound of a cell.  Returns it and the kind of
    change, such as "row drop"."""
    distinct = copy.deepcopy(distinct)
    rows, cells = distinct["rows"], distinct["cells"]
    kind = rng.choice(("row integer", "row drop", "cell bound"))
    if kind == "row integer":
        rng.choice(rows)[rng.randrange(4)] += rng.choice((-1, 1))
    elif kind == "row drop":
        del rows[rng.randrange(len(rows))]
    else:
        cell = rng.choice(cells)
        cell[2] = rng.choice([b for b in (None, 1, 2, 3, 4) if b != cell[2]])
    return distinct, kind


@pytest.mark.usefixtures("known_cascade")
def test_seeded_one_field_corruptions_never_load(tmp_path, points, cascade_document):
    """150 seeded one-field changes of the cascade's file, to tags,
    provenances, the indices of the records, the counts header and the tables
    of distinct rows and cells: each is a load error that names the path and
    the record and key, or the header key.  Every kind of change is drawn at
    least once."""
    data, doc = fx.cache_bytes(points), cascade_document
    texts = [_compact(record) for record in doc["points"]]
    distinct = doc["distinct"]

    def file_bytes(counts, distinct, texts):
        header = b"" if counts is None else b'"counts":' + _compact(counts) + b","
        header += b'"distinct":' + _compact(distinct) + b","
        return b"{" + header + b'"points":[' + b",".join(texts) + b'],"schema":4}\n'

    assert file_bytes(doc["counts"], distinct, texts) == data
    rng, path, wrong, cases = random.Random(23), tmp_path / "cache.json", [], 0
    drawn = set()
    while cases < 150:
        draw = rng.random()
        if draw < 0.08:
            tag = rng.choice(fx.STRATA)
            others = {k: v for k, v in doc["counts"].items() if k != tag}
            bumped = {**others, tag: doc["counts"][tag] + rng.choice((-1, 1))}
            forms = {"bumped": bumped, "short": others, "number": 525, "absent": None}
            form = rng.choice(list(forms))
            path.write_bytes(file_bytes(forms[form], distinct, texts))
            where = f"{path}: header 'counts' differs"
            drawn.add(f"header {form}")
        elif draw < 0.16:
            changed, kind = _corrupt_table(rng, distinct)
            path.write_bytes(file_bytes(doc["counts"], changed, texts))
            where = f"{path}: header 'distinct' differs"
            drawn.add(f"table {kind}")
        else:
            index = rng.randrange(len(texts))
            record = copy.deepcopy(doc["points"][index])
            key, kind = _corrupt_record(rng, record, rng.choice(doc["points"]))
            if record == doc["points"][index]:
                continue  # equal rows moved or swapped in, the same tag, ...
            texts_now = [*texts[:index], _compact(record), *texts[index + 1 :]]
            path.write_bytes(file_bytes(doc["counts"], distinct, texts_now))
            where = f"{path}, record {index}: {key!r} differs"
            drawn |= {key, kind}
        cases += 1
        try:
            fx.load_cache(path)
        except ValueError as exc:
            if not str(exc).startswith(f"fixed-point cache {where}"):
                wrong.append(f"case {cases}: {exc}")
        else:
            wrong.append(f"case {cases} loaded: {where}")
    assert wrong == []
    provenances = ("bumped", "longer", "shorter", "out-of-range", "foreign")
    assert drawn == {
        *(f"header {form}" for form in ("bumped", "short", "number", "absent")),
        *(f"table {kind}" for kind in ("row integer", "row drop", "cell bound")),
        *("tag", "provenance", "cells", "tangent", "quartics", "pencil"),
        *(f"index {kind}" for kind in ("drop", "repeat", "move", "foreign", "bumped")),
        *(f"provenance {kind}" for kind in provenances),
    }
