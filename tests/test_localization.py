import dataclasses
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nlocus import checks
from nlocus import fixpoints as fx
from nlocus import localization as loc
from nlocus.fixpoints import G2, StructuralError
from nlocus.ideals import staircase_cells, staircase_runs, standard_monomials
from nlocus.formula import closed_form
from nlocus.poly import parse
from nlocus.torus import (
    FALLBACK_WEIGHTS,
    WeightSpec,
    check_generic,
    shared_products,
    specialize,
)


def mono(text):
    return parse(text).lm()


def _pencil_point(points):
    target = {mono("x0^2")[:4], mono("x1^2")[:4]}
    for fp in points:
        if fp.tag == G2 and set(fp.pencil_chars) == target:
            return fp
    raise AssertionError("pencil point not found")


def test_fiber_standard_monomials_counts(points):
    fp = _pencil_point(points)
    fiber5 = standard_monomials(fp.quartics, 5)
    assert len(fiber5) == len(set(fiber5)) == 20
    # the paper's surviving monomial x2^3*x1*x0
    assert (1, 1, 3, 0) in fiber5
    for fp in points:
        assert len(set(standard_monomials(fp.quartics, 4))) == 16
        assert len(set(standard_monomials(fp.quartics, 6))) == 24


def test_contribution_numerator_against_subset_oracle(points, weights, unshared_sum):
    fp = _pencil_point(points)
    values = [specialize(c, weights) for c in standard_monomials(fp.quartics, 5)]
    assert len(values) == 20
    brute = 0
    for combo in itertools.combinations(values, 16):
        term = 1
        for v in combo:
            term *= v
        brute += term
    summand = Fraction(brute, math.prod(loc._tangent_values(fp, weights)))
    assert unshared_sum(5, weights, False, [fp]) == summand
    assert loc._sum_chunk([fp], [5], weights)[5] == summand


def test_tangent_denominator_paper_factors(points, weights):
    # the factors (x1-x0) -> 1 and (2*x3-2*x1) -> 34 at the pencil point
    fp = _pencil_point(points)
    values = [specialize(c, weights) for c in fp.tangent]
    assert 1 in values
    assert 34 in values
    prod = 1
    for v in values:
        prod *= v
    _, dens, _ = loc._common_denominator([fp], weights)
    assert dens == [prod]


def test_localization_self_test(points, weights):
    assert loc.localization_self_test(points, weights) == 525


def test_localization_self_test_fails_on_a_wrong_tangent_character(points, weights):
    # flipping the sign of one tangent character flips that point's 1/c_16(T)
    fp = points[100]
    c = fp.tangent[0]
    flipped = tuple(sorted(fp.tangent[1:] + (tuple(-e for e in c),)))
    bad = dataclasses.replace(fp, tangent=flipped)
    altered = points[:100] + [bad] + points[101:]
    _, dens, _ = loc._common_denominator(altered, weights)
    expected = -2 * Fraction(1, math.prod(loc._tangent_values(fp, weights)))
    assert sum(Fraction(1, den) for den in dens) == expected
    with pytest.raises(StructuralError, match=f"sum of 1/c_16.T. over 525 fixed points is {expected}, not 0"):
        checks.localization_self_test(altered, weights, 1)


def test_wrong_cell_list_fails_the_rank_check(points, weights):
    fp = points[200]
    loc._sum_chunk([fp], [7], weights)  # the true cell list passes the rank check
    cells = fp.cells
    used = next(i for i, cell in enumerate(cells) if staircase_runs([cell], 7))
    for wrong in (cells[:used] + cells[used + 1 :], cells + cells[used : used + 1]):
        bad = dataclasses.replace(fp)
        vars(bad)["cells"] = wrong  # where functools.cached_property keeps it
        altered = points[:200] + [bad] + points[201:]
        with pytest.raises(
            StructuralError,
            match=rf"fiber rank \d+ != 28 at {re.escape(f'{fp.tag}{fp.provenance}')}, d=7",
        ):
            loc.degree_nl(7, weights, altered)


def _count_cell_derivations(monkeypatch):
    """The list of quartic systems whose staircase cells are derived from now on.

    `staircase_cells` is replaced at every package attribute bound to it.
    """
    derived = []

    def counted(lead_x):
        derived.append(lead_x)
        return staircase_cells(lead_x)

    for name, module in list(sys.modules.items()):
        if name.startswith("nlocus"):
            for key, value in list(vars(module).items()):
                if value is staircase_cells:
                    monkeypatch.setattr(module, key, counted)
    return derived


def test_sums_after_enumeration_derive_no_cells(monkeypatch, weights):
    points = fx.enumerate_all()
    derived = _count_cell_derivations(monkeypatch)
    assert loc.degree_nl(4, weights, points).degree == 38475
    assert derived == []


def test_cells_are_derived_once_per_loaded_point(monkeypatch, tmp_path, points, weights):
    path = tmp_path / "fixpoints.json"
    fx.save_cache(points, path)
    loaded = fx.load_cache(path)
    derived = _count_cell_derivations(monkeypatch)
    checks.rank_invariants(loaded, weights, 1)
    assert loc.degree_range(4, 6, weights, loaded) == loc.degree_range(4, 6, weights, loaded)
    assert len(derived) == 525


def _python(code, *args):
    """Run code in a fresh interpreter with this checkout's package on its path."""
    path_list = [str(Path(__file__).resolve().parents[1] / "src")]
    path_list += filter(None, [os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_list)}
    return subprocess.run(
        [sys.executable, "-X", "dev", "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )


def test_spawned_workers_match_one_worker(tmp_path, points, weights):
    # freshly loaded points carry no cells: each forked worker derives those
    # of its own slice, and they are lost with it
    path = tmp_path / "fixpoints.json"
    fx.save_cache(points, path)
    loaded = fx.load_cache(path)
    assert not any("cells" in vars(fp) for fp in loaded)
    multi = loc.degree_range(4, 6, weights, loaded, workers=2)
    assert multi == loc.degree_range(4, 6, weights, loaded, workers=1)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _broken(points, index):
    """points with the one at index given a repeated quartic: fiber rank 4d + 1."""
    fp = points[index]
    bad = dataclasses.replace(fp, quartics=fp.quartics[:18] + fp.quartics[:1])
    return points[:index] + [bad] + points[index + 1 :]


def test_worker_error_reaches_the_caller_through_the_kept_pool(points, weights):
    with pytest.raises(
        StructuralError, match=f"^{re.escape('fiber rank 21 != 20 at E2(11, 0), d=5')}$"
    ):
        loc.degree_nl(5, weights, _broken(points, 300), workers=2)
    _no_child_left()
    assert loc.degree_nl(4, weights, points, workers=2).degree == 38475


def test_an_error_in_the_callers_slice_leaves_no_child(points, weights):
    with pytest.raises(
        StructuralError, match=f"^{re.escape('fiber rank 21 != 20 at G2(36,), d=5')}$"
    ):
        loc.degree_nl(5, weights, _broken(points, 19), workers=2)
    _no_child_left()


@pytest.mark.parametrize(
    "status, child_sum",
    [(3, lambda *args: os._exit(3)), (1, lambda *args: {5: lambda: 0})],
    ids=["killed", "unpicklable"],
)
def test_a_worker_without_a_result_is_a_structural_error(
    monkeypatch, points, weights, status, child_sum
):
    parent = os.getpid()
    real = loc._sum_chunk
    monkeypatch.setattr(
        loc, "_sum_chunk", lambda *a: real(*a) if os.getpid() == parent else child_sum(*a)
    )
    message = f"Bott-sum worker for points 263:525: exit status {status}, no result"
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        loc.degree_nl(5, weights, points, workers=2)
    _no_child_left()


def test_unflushed_stdout_is_written_once(monkeypatch, tmp_path, points, weights):
    # stdout on a pipe is block-buffered: the line is still in the buffer
    # when the worker forks, and only the parent may flush it
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    path = tmp_path / "fixpoints.json"
    fx.save_cache(points, path)
    code = (
        "import json, sys\n"
        "from nlocus import fixpoints, localization, torus\n"
        "points = fixpoints.load_cache(sys.argv[1])\n"
        "spec = torus.WeightSpec(json.loads(sys.argv[2]))\n"
        "print('before the sum')\n"
        "print(localization.degree_nl(4, spec, points, workers=2).degree)\n"
    )
    done = _python(code, str(path), json.dumps(list(weights.values)))
    assert (done.stdout, done.stderr) == ("before the sum\n38475\n", "")


@pytest.mark.parametrize("values", [(0, 1, 5, 18), (0, 1, 7, 23), (-7, 3, 11, 40)])
def test_shared_pass_matches_an_unshared_oracle(points, unshared_sum, values):
    spec = WeightSpec(values)
    ds = range(4, 10)
    totals = loc._localize(points, ds, spec, 1)
    assert totals == {d: unshared_sum(d, spec, d == 4) for d in ds}


def test_shared_products_width_covers_a_larger_later_sum():
    # the second sequence shares the first one's prefix and has the larger
    # sum, so a width derived from the first sequence alone overflows
    weights = [list(range(20)), [3, 1, 4, 1], [10**6 + k for k in range(16)]]
    seqs = [[0, 1], [0, 2]]
    for (e16, e15), seq in zip(shared_products(16, seqs, [0, 1], weights), seqs):
        values = [v for c in seq for v in weights[c]]
        assert e16 == checks.elem_sym_dp(16, values)
        assert e15 == checks.elem_sym_dp(15, values)


CLASSICAL_SPECS = [(0, 1, 5, 18), (0, 1, 7, 23), (-3, 0, 2, 11)]


@pytest.mark.parametrize("values", CLASSICAL_SPECS)
def test_plucker_powers_integrate_to_the_degree_of_the_grassmannian(points, values):
    # the pencils sweep out G(2,10) in its Pluecker embedding: the integral
    # of H^16 is its degree, the Catalan number C_8, and that of H^k, k < 16,
    # is 0 on the 16-dimensional space
    spec = WeightSpec(values)
    common, _, scales = loc._common_denominator(points, spec)
    h = [-sum(specialize(c, spec) for c in fp.pencil_chars) for fp in points]

    def integral(k):
        return Fraction(sum(hp**k * scale for hp, scale in zip(h, scales)), common)

    assert integral(16) == 1430 == math.comb(16, 8) // 9
    for k in (0, 1, 8, 15):
        assert integral(k) == 0, k


@pytest.mark.parametrize("values", CLASSICAL_SPECS)
def test_untwisted_sum_at_d4_is_the_closed_form_at_4(unshared_sum, values):
    untwisted = unshared_sum(4, WeightSpec(values), False)
    assert untwisted == closed_form()(4) == 0


def test_common_denominator_sum_is_exact(points, weights, unshared_sum):
    ds = range(4, 8)
    totals = loc._localize(points, ds, weights, 1)
    for d in ds:
        assert totals[d] == unshared_sum(d, weights, d == 4)
    results = loc.degree_range(4, 7, weights, points)
    assert [r.degree for r in results] == [totals[4] / 4] + [totals[d] for d in ds[1:]]


def test_negative_weight_spec(points):
    spec = WeightSpec((-7, 3, 11, 40))
    assert check_generic(spec, [fp.tangent for fp in points])
    cf = closed_form()
    assert [r.degree for r in loc.degree_range(4, 6, spec, points)] == [38475, cf(5), cf(6)]


def test_degree_nl_matches_closed_form(points, weights):
    cf = closed_form()
    r5 = loc.degree_nl(5, weights, points)
    assert r5.degree == cf(5) == 824667930
    assert r5.fixpoint_count == 525
    r6 = loc.degree_nl(6, weights, points)
    assert r6.degree == cf(6)


def test_degree_nl_rejects_d3(points, weights):
    with pytest.raises(ValueError):
        loc.degree_nl(3, weights, points)


def test_degree_range_rejects_an_empty_range(points, weights):
    with pytest.raises(ValueError, match=r"non-empty range, got 6\.\.5"):
        loc.degree_range(6, 5, weights, points)


def test_degree_nl_d4_headline(points, weights):
    result = loc.degree_nl(4, weights, points)
    assert result.degree == 38475
    raw = loc._localize(points, [4], weights, 1)[4]
    assert raw == 4 * 38475 == 153900


def test_degree_range_from_d4_matches_degree_nl(points, weights):
    results = loc.degree_range(4, 6, weights, points)
    assert results == [loc.degree_nl(d, weights, points) for d in (4, 5, 6)]
    assert results[0].degree == 38475


def test_degree_range_rejects_bad_sums(monkeypatch, weights):
    for d, total in ((4, Fraction(6)), (5, Fraction(1, 2)), (6, Fraction(-6))):
        monkeypatch.setattr(loc, "_localize", lambda *args: {d: total})
        with pytest.raises(StructuralError, match=f"d={d} is {total}, not a non-neg"):
            loc.degree_range(d, d, weights, [])


def test_sum_independent_of_point_order(points, weights):
    shuffled = list(points)
    random.Random(4).shuffle(shuffled)
    assert loc.degree_nl(5, weights, shuffled).degree == loc.degree_nl(5, weights, points).degree


def test_spec_independence(points, weights):
    assert check_generic(FALLBACK_WEIGHTS, [fp.tangent for fp in points])
    ours = loc.degree_range(4, 6, weights, points)
    theirs = loc.degree_range(4, 6, FALLBACK_WEIGHTS, points)
    assert [r.degree for r in ours] == [r.degree for r in theirs]


def test_inadmissible_spec_raises(points):
    bad = WeightSpec((0, 1, 2, 3))
    with pytest.raises(ValueError):
        loc.degree_nl(5, bad, points)


def test_workers_bit_exact(points, weights):
    # two chunks share only the cell prefixes inside each chunk
    single = loc.degree_range(4, 8, weights, points, workers=1)
    multi = loc.degree_range(4, 8, weights, points, workers=2)
    assert [(r.d, r.degree) for r in single] == [(r.d, r.degree) for r in multi]
    assert multi[0].degree == 38475


def test_admissible_spec_returns_the_spec_or_names_the_point(points, weights):
    assert loc.admissible_spec(points, weights) is weights
    bad = WeightSpec((0, 1, 2, 3))
    fp = next(p for p in points if not check_generic(bad, [p.tangent]))
    with pytest.raises(
        ValueError,
        match=re.escape("(0, 1, 2, 3) is not admissible: tangent character (")
        + rf"[-\d, ]+\) at {re.escape(f'{fp.tag}{fp.provenance}')} specializes to 0",
    ):
        loc.admissible_spec(points, bad)


def test_degree_result_json(points, weights):
    doc = loc.degree_nl(5, weights, points).to_json()
    assert doc == {
        "d": 5,
        "degree": "824667930",
        "spec": [0, 1, 5, 18],
        "fixpointCount": 525,
    }
