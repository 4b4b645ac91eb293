import copy
import dataclasses
import functools
import hashlib
import json
import math
import random
import re
import zlib
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from nlocus import checks
from nlocus import fixpoints as fx
from nlocus import gbcore, ideals
from nlocus.ideals import (
    cells_hilbert_polynomial,
    hilbert_polynomial,
    staircase_cells,
    standard_monomials,
)
from nlocus.poly import Polynomial, monomial_gcd, monomials_of_degree, parse, render
from nlocus.torus import char_add, char_sub

# sha256 of cache_bytes(enumerate_all()) in schema 3; its points equal those
# of the schema-2 file (tangent rows with multiplicities, expanded and sorted)
# and of the schema-1 file, whose quartics were polynomial text
CACHE_SHA256 = "2a4eb76e6f62e264f924c439045f6544270b15ca3d64f31704f56c8bc31ba286"


LINEAR_FORMS = [parse(x) for x in ("x0", "x1", "x2", "x3")]


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
        assert record.tangent.total() == 16
        assert all(k > 0 for k in record.tangent.values())


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
        assert list(fp.cells) == staircase_cells(fp.quartics)
    # 13,617 cells, one object for each of the 401 distinct ones
    assert sum(len(fp.cells) for fp in points) == 13617
    assert len({id(cell) for fp in points for cell in fp.cells}) <= 401


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
    fresh = dataclasses.replace(fp)
    assert "cells" not in vars(fresh)
    assert fp.cells and fresh == fp and hash(fresh) == hash(fp)
    assert repr(fresh) == repr(fp) and "cells" not in repr(fp)
    assert fx.point_to_json(fp) == fx.point_to_json(fresh)
    assert "cells" not in vars(fresh)  # none of the above derived them


def test_enumerate_all_validates(points):
    full = fx.enumerate_all()
    assert fx.stratum_counts(full) == (21, 180, 324)
    assert full == points


# -- independent matrix oracle for the flat limits ---------------------------


def _rref(rows):
    rows = [list(r) for r in rows]
    pivot_cols = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivot_cols


def _kernel_combo(rows):
    """A nonzero rational combination of the rows summing to zero, or None."""
    n = len(rows)
    augmented = [list(rows[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    reduced, _ = _rref(augmented)
    width = len(rows[0])
    for row in reduced:
        if not any(row[:width]):
            return row[width:]
    return None


def matrix_limit(ideal_gens):
    """Flat limit at t=0 of the degree-3 slice, by Gauss reduction over Q[t].

    Vectors live in Q[t]^20 over the cubic monomial basis; whenever the t=0
    evaluations are dependent, the dependency (which is divisible by t) is
    divided by t and replaces one participating vector.
    """
    basis = [m[:4] for m in monomials_of_degree(3)]
    index = {m: i for i, m in enumerate(basis)}
    vecs = []
    for g in ideal_gens:
        col = [dict() for _ in range(len(basis))]
        for m, c in g.terms.items():
            col[index[m[:4]]][m[4]] = c
        vecs.append(col)

    def value_at_zero(col):
        return tuple(entry.get(0, Fraction(0)) for entry in col)

    for _ in range(200):
        combo = _kernel_combo([value_at_zero(col) for col in vecs])
        if combo is None:
            space, _ = _rref([value_at_zero(col) for col in vecs])
            return space
        new = [dict() for _ in range(len(basis))]
        for coeff, col in zip(combo, vecs):
            if not coeff:
                continue
            for j, entry in enumerate(col):
                for td, c in entry.items():
                    new[j][td] = new[j].get(td, Fraction(0)) + coeff * c
        shifted = []
        for entry in new:
            assert not entry.get(0)  # the combination is divisible by t
            shifted.append({td - 1: c for td, c in entry.items() if td >= 1 and c})
        last = max(i for i, c in enumerate(combo) if c)
        vecs[last] = shifted
    raise AssertionError("matrix limit did not stabilize")


def test_limit_cubics_match_matrix_oracle(cascade):
    basis = [m[:4] for m in monomials_of_degree(3)]
    index = {m: i for i, m in enumerate(basis)}
    checked = 0
    for zi, record in cascade.records:
        z = cascade.zs[zi]
        pair = cascade.pairs[z.pair_index]
        deformations = checks._deformations((pair.q1, pair.q2), record.direction)
        for other, deformed in deformations:
            pencil = checks.deformation_ideal(other, deformed)
            space = matrix_limit([g * x for g in pencil for x in LINEAR_FORMS])
            expected_rows, _ = _rref(
                [
                    tuple(
                        Fraction(int(index[c] == j)) for j in range(len(basis))
                    )
                    for c in record.limit_cubics
                ]
            )
            assert sorted(space) == sorted(expected_rows)
            checked += 1
    assert checked >= 216


def _z_with_direction(cascade, e):
    """The ZPoint of the pencil <x0^2, x0*x1> with e as its only normal direction."""
    z = next(
        z
        for z in cascade.zs
        if {cascade.pairs[z.pair_index].q1, cascade.pairs[z.pair_index].q2}
        == {mono("x0^2"), mono("x0*x1")}
    )
    return dataclasses.replace(z, normal=Counter([e]))


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
    ((other, deformed),) = checks._deformations((mono("x0^2"), mono("x0*x1")), (-1, -1, 2, 0))
    assert (other, deformed) == (mono("x0^2"), parse("x0*x1 + t*x2^2"))
    gens = checks.deformation_ideal(other, deformed)
    assert list(gens) == [parse("x0^2"), parse("x0*x1 + t*x2^2")]


def test_enumeration_runs_without_buchberger(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Buchberger called on the fixed-point path")

    def refuse_polynomial(self, *args, **kwargs):
        raise AssertionError("Polynomial built on the fixed-point path")

    def refuse_hilbert(lead_x):
        raise AssertionError("hilbert_polynomial called on the fixed-point path")

    hilbert_calls = Counter()

    def counted_cells_hilbert(cells):
        hilbert_calls["cells"] += 1
        return cells_hilbert_polynomial(cells)

    monkeypatch.setattr(gbcore, "groebner", refuse)
    monkeypatch.setattr(Polynomial, "__init__", refuse_polynomial)
    monkeypatch.setattr(ideals, "hilbert_polynomial", refuse_hilbert)
    monkeypatch.setattr(fx, "cells_hilbert_polynomial", counted_cells_hilbert)
    points = fx.enumerate_all()
    # one 4t check per fixed point, read off the cells the point keeps; the
    # E1 limits are classified by their common plane, with no Hilbert
    # polynomial of their own
    assert not hasattr(fx, "hilbert_polynomial")
    assert hilbert_calls == {"cells": 525}
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
            records[direction] = dataclasses.replace(
                records[direction], limit_cubics=NOT_4T_CUBICS
            )
        return records

    monkeypatch.setattr(fx, "e1_points", mutated)
    message = f"fixed point G2E1{(zi, direction)} fails the 4t Hilbert check"
    with pytest.raises(fx.StructuralError, match=f"^{re.escape(message)}$"):
        fx.enumerate_all()


@pytest.mark.parametrize(
    "factor, cubics",
    [("x0^2", ("x0^3", "x0^2*x1", "x0^2*x2", "x0^2*x3")), ("x1^2*x2", ("x1^2*x2",))],
)
def test_limit_cubics_with_a_common_factor_of_degree_2_or_more_fail(
    cascade, factor, cubics
):
    zi, record = cascade.records[100]
    degenerate = dataclasses.replace(record, limit_cubics=tuple(map(mono, cubics)))
    message = (
        f"E1 limit ({zi}, {record.direction_index}), direction {record.direction}:"
        f" the limit cubics share {factor}, of degree {sum(mono(factor))}, not a plane"
    )
    with pytest.raises(fx.StructuralError, match=f"^{re.escape(message)}$"):
        fx.classify_e1(degenerate, cascade.zs[zi], zi)


def test_cache_round_trip_runs_without_parsing(monkeypatch, points, tmp_path):
    def refuse(self, *args, **kwargs):
        raise AssertionError("Polynomial built on the cache path")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    path = tmp_path / "cache.json"
    fx.save_cache(points, path)
    assert fx.load_cache(path) == points


# -- cache -------------------------------------------------------------------


def test_cache_round_trip(points, tmp_path):
    path = tmp_path / "cache.json"
    fx.save_cache(points, path)
    loaded = fx.load_cache(path)
    assert loaded == points


def test_cache_bytes_are_pinned(points):
    # a serializer that changes the file must bump SCHEMA_VERSION
    data = fx.cache_bytes(points)
    assert len(data) == 240_168
    assert hashlib.sha256(data).hexdigest() == CACHE_SHA256


def test_cache_bytes_deterministic(points):
    assert fx.cache_bytes(points) == fx.cache_bytes(list(points))


def _schema_1_doc(points):
    """The cache document in schema 1, whose quartics were polynomial text."""
    doc = json.loads(fx.cache_bytes(points))
    doc["schema"] = 1
    for record, fp in zip(doc["points"], points):
        record["quartics"] = [render(Polynomial.monomial(m + (0,))) for m in fp.quartics]
    return doc


def _schema_2_doc(points):
    """The cache document in schema 2, whose tangent rows were 4 exponents and
    a multiplicity, one row per distinct character."""
    doc = json.loads(fx.cache_bytes(points))
    doc["schema"] = 2
    for record, fp in zip(doc["points"], points):
        record["tangent"] = [[*c, k] for c, k in sorted(Counter(fp.tangent).items())]
    return doc


def test_cache_schema_mismatch_forces_rebuild(points, tmp_path):
    other = json.loads(fx.cache_bytes(points))
    other["schema"] = -1
    for doc in (other, _schema_1_doc(points), _schema_2_doc(points)):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(doc))
        assert fx.load_cache(path) is None
        again = fx.load_or_enumerate(path)
        assert again == points
        assert path.read_bytes() == fx.cache_bytes(points)
        assert fx.load_cache(path) == points


def test_save_cache_failing_midway_keeps_the_old_file(points, tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    fx.save_cache(points[:3], path)
    assert list(tmp_path.iterdir()) == [path]
    before = path.read_bytes()

    def torn_write(self, data):
        with self.open("wb") as f:
            f.write(data[: len(data) // 2])
        raise OSError("writer killed")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    with pytest.raises(OSError, match="writer killed"):
        fx.save_cache(points, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_load_or_enumerate_uses_cache(points, tmp_path):
    path = tmp_path / "cache.json"
    fx.save_cache(points, path)
    first = path.read_bytes()
    assert fx.load_or_enumerate(path) == points
    assert path.read_bytes() == first


def test_tangent_multiset_totals(cascade):
    # blow-up bookkeeping: each E1/E2 tangent is fiber + base + direction
    for zi, record in cascade.records:
        z = cascade.zs[zi]
        shifted = Counter(
            [char_sub(n, record.direction) for n in z.normal if n != record.direction]
        )
        assert record.tangent == shifted + z.tangent_z + Counter([record.direction])


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
@pytest.mark.parametrize("counts", [{"G2": 1}, {"G2": 21, "G2E1": 180, "E2": 323}, None])
def test_load_cache_checks_the_counts_header(tmp_path, points, counts):
    path = tmp_path / "cache.json"
    fx.save_cache(points, path)
    doc = json.loads(path.read_text())
    if counts is None:
        del doc["counts"]
    else:
        doc["counts"] = counts
    path.write_text(json.dumps(doc))
    message = f"{path}: header 'counts' differs from the cascade's"
    with pytest.raises(ValueError, match=f"^fixed-point cache {re.escape(message)}$"):
        fx.load_cache(path)


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


@pytest.mark.usefixtures("known_cascade")
@pytest.mark.parametrize(
    "index, provenance",
    [
        (150, [999, 999]),
        (0, [45]),
        (0, [-1]),
        (0, [0, 0]),
        (21, [24, 0]),
        (21, [0, 9]),
        (21, [3]),
        (300, [36, 0]),
        (300, [0, -1]),
        (300, [0, 0, 0]),
    ],
)
def test_load_cache_rejects_provenance_that_does_not_fit_its_tag(
    tmp_path, points, index, provenance
):
    path, doc = _saved_doc(points, tmp_path)
    doc["points"][index]["provenance"] = provenance
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=_differs(path, index, "provenance", points)):
        fx.load_cache(path)


def test_load_cache_rejects_a_g2_e2_tag_swap(tmp_path, points):
    # the counts header still matches, and so does every field but the tags
    path, doc = _saved_doc(points, tmp_path)
    first, last = doc["points"][0], doc["points"][-1]
    assert (first["tag"], last["tag"]) == ("G2", "E2")
    first["tag"], last["tag"] = last["tag"], first["tag"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=_differs(path, 0, "tag", points)):
        fx.load_cache(path)


def test_load_cache_rejects_a_repeated_tag_and_provenance(tmp_path, points):
    path, doc = _saved_doc(points, tmp_path)
    doc["points"][31]["provenance"] = doc["points"][30]["provenance"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=_differs(path, 31, "provenance", points)):
        fx.load_cache(path)


def test_load_cache_rejects_an_e2_data_swap(tmp_path, points):
    # tags, provenances and the counts header are the cascade's; the data of
    # records 300 and 301 are each other's
    path, doc = _saved_doc(points, tmp_path)
    a, b = doc["points"][300], doc["points"][301]
    assert (a["tag"], b["tag"]) == ("E2", "E2")
    for key in ("tangent", "quartics", "pencil"):
        a[key], b[key] = b[key], a[key]
    path.write_bytes(_compact(doc) + b"\n")
    message = f"{path}, record 300: 'quartics' differs from the cascade's E2(11, 0)"
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

    def refuse():
        raise AssertionError("the cascade ran on a cache hit")

    monkeypatch.setattr(fx, "enumerate_all", refuse)
    assert fx.load_cache(path) == points
    assert fx.load_or_enumerate(path) == points


def _corrupt_record(rng, record, other):
    """Change one field of a cache record in place, taking foreign values from
    another record: its tag, its provenance, a row of its tangent, quartics or
    pencil (dropped, repeated, moved or foreign), or one integer of a row.
    Returns the key of the field."""
    key = rng.choice(("tag", "provenance", "tangent", "quartics", "pencil"))
    value = record[key]
    if key == "tag":
        record[key] = rng.choice([*fx.STRATA, "X", 7])
    elif key == "provenance":
        bumped = [*value[:-1], value[-1] + rng.choice((-1, 1, 9))]
        choices = [bumped, [*value, 0], value[:-1], [999, 999], other[key]]
        record[key] = rng.choice(choices)
    else:
        rows, i, j = [list(row) for row in value], *rng.sample(range(len(value)), 2)
        kind = rng.choice(("drop", "repeat", "move", "foreign", "integer"))
        if kind == "drop":
            del rows[i]
        elif kind == "repeat":
            rows[j] = rows[i]
        elif kind == "move":
            rows.insert(j, rows.pop(i))
        elif kind == "foreign":
            rows[i] = rng.choice(other[key])
        else:
            rows[i][rng.randrange(4)] += rng.choice((-2, -1, 1, 2))
        record[key] = rows
    return key


@pytest.mark.usefixtures("known_cascade")
def test_seeded_one_field_corruptions_never_load(tmp_path, points, cascade_document):
    """100 seeded one-field changes of the cascade's file, to tags,
    provenances, rows, integers and the counts header: each is a load error
    that names the path and the record and key, or the header key."""
    data, doc = fx.cache_bytes(points), cascade_document
    texts = [_compact(record) for record in doc["points"]]

    def file_bytes(counts, texts):
        header = b"" if counts is None else b'"counts":' + _compact(counts) + b","
        return b"{" + header + b'"points":[' + b",".join(texts) + b'],"schema":3}\n'

    assert file_bytes(doc["counts"], texts) == data
    rng, path, wrong, cases = random.Random(23), tmp_path / "cache.json", [], 0
    while cases < 100:
        if rng.random() < 0.1:
            tag = rng.choice(fx.STRATA)
            others = {k: v for k, v in doc["counts"].items() if k != tag}
            bumped = {**others, tag: doc["counts"][tag] + rng.choice((-1, 1))}
            path.write_bytes(file_bytes(rng.choice([bumped, others, 525, None]), texts))
            where = f"{path}: header 'counts' differs"
        else:
            index = rng.randrange(len(texts))
            record = copy.deepcopy(doc["points"][index])
            key = _corrupt_record(rng, record, rng.choice(doc["points"]))
            if record == doc["points"][index]:
                continue  # equal rows moved or swapped in, the same tag, ...
            texts_now = [*texts[:index], _compact(record), *texts[index + 1 :]]
            path.write_bytes(file_bytes(doc["counts"], texts_now))
            where = f"{path}, record {index}: {key!r} differs"
        cases += 1
        try:
            fx.load_cache(path)
        except ValueError as exc:
            if not str(exc).startswith(f"fixed-point cache {where}"):
                wrong.append(f"case {cases}: {exc}")
        else:
            wrong.append(f"case {cases} loaded: {where}")
    assert wrong == []
