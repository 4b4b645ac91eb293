import itertools
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from nlocus import checks, ideals
from nlocus import fixpoints as fx
from nlocus import localization as loc
from nlocus import torus
from nlocus.cli import main
from nlocus.fixpoints import G2, StructuralError
from nlocus.ideals import monomial_counts, quartic_cells, staircase_cells, staircase_runs
from nlocus.ideals import standard_monomials
from nlocus.formula import closed_form
from nlocus.poly import parse
from nlocus.torus import (
    DEFAULT_WEIGHTS,
    FALLBACK_WEIGHTS,
    WeightSpec,
    check_generic,
    shared_products,
    specialize,
)


def mono(text):
    return parse(text).lm()


def _sums(points, ds, spec):
    """The raw Bott sums of one pass over points at ds under spec."""
    return loc._localize(loc.Bott(points, spec), ds, spec)


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


def test_cell_counts_depend_only_on_the_shape(monkeypatch, points):
    """check_fiber_ranks counts once per cell shape (free, lower, bound);
    each cascade cell's count over d = 4..60 is the one of its own monomials."""
    ds = list(range(4, 61))
    counted = []

    def counting(cell, ds):
        counted.append(cell)
        return monomial_counts(cell, ds)

    monkeypatch.setattr(ideals, "monomial_counts", counting)
    counts, field = loc.check_fiber_ranks(points, ds)
    monkeypatch.undo()
    # the 401 distinct cells of the points have 52 shapes
    assert len(counted) == len({(len(free), lower, bound) for _, free, bound, lower in counted}) == 52
    numbers = {n for fp in points for n in fp.cells}
    # a list by cell number, 0 at every number that no point has
    assert len(counts) > max(numbers)
    assert not any(count for n, count in enumerate(counts) if n not in numbers)
    mask = (1 << field) - 1
    for number in numbers:
        cell = ideals.CELLS[number]
        assert counts[number] >> (len(ds) * field) == 0
        for i, (d, count) in enumerate(zip(ds, monomial_counts(cell, ds))):
            runs = staircase_runs([cell], d)
            assert counts[number] >> (i * field) & mask == count == sum(n for _, _, n in runs)


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
    summand = Fraction(brute, math.prod(specialize(c, weights) for c in fp.tangent))
    assert unshared_sum(5, weights, False, [fp]) == summand
    assert _sums([fp], [5], weights)[5] == summand


def test_tangent_denominator_paper_factors(points, weights):
    # the factors (x1-x0) -> 1 and (2*x3-2*x1) -> 34 at the pencil point
    fp = _pencil_point(points)
    values = [specialize(c, weights) for c in fp.tangent]
    assert 1 in values
    assert 34 in values
    prod = 1
    for v in values:
        prod *= v
    _, dens, _ = loc.Bott([fp], weights).denominators(weights)
    assert dens == [prod]


def test_localization_self_test(points, weights):
    # a lost fixed point leaves its 1/c_16(T) out of the vanishing sum
    assert checks.localization_self_test(loc.Bott(points, weights)) == 525
    _, dens, _ = loc.Bott(points[:1], weights).denominators(weights)
    rest = loc.Bott(points[1:], weights)
    with pytest.raises(
        StructuralError, match=f"over 524 fixed points is {Fraction(-1, dens[0])}, not 0"
    ):
        checks.localization_self_test(rest)


def test_localization_self_test_fails_on_a_wrong_tangent_character(points, weights):
    # flipping the sign of one tangent character flips that point's 1/c_16(T)
    fp = points[100]
    c = fp.tangent[0]
    flipped = tuple(sorted(fp.tangent[1:] + (tuple(-e for e in c),)))
    bad = fp._replace(tangent=flipped)
    altered = points[:100] + [bad] + points[101:]
    bott = loc.Bott(altered, weights)
    _, dens, _ = bott.denominators(weights)
    expected = -2 * Fraction(1, math.prod(specialize(c, weights) for c in fp.tangent))
    assert sum(Fraction(1, den) for den in dens) == expected
    with pytest.raises(StructuralError, match=f"sum of 1/c_16.T. over 525 fixed points is {expected}, not 0"):
        checks.localization_self_test(bott)


def test_wrong_cell_list_fails_the_rank_check(points, weights):
    fp = points[200]
    _sums([fp], [7], weights)  # the true cell list passes the rank check
    cells = fp.cells
    used = next(i for i, n in enumerate(cells) if staircase_runs([ideals.CELLS[n]], 7))
    for wrong in (cells[:used] + cells[used + 1 :], cells + cells[used : used + 1]):
        bad = fp._replace()
        vars(bad)["cells"] = wrong  # where FixedPoint.cells keeps it
        altered = points[:200] + [bad] + points[201:]
        with pytest.raises(
            StructuralError,
            match=rf"fiber rank \d+ != 28 at {re.escape(f'{fp.tag}{fp.provenance}')}, d=7",
        ):
            loc.degree_nl(7, weights, altered)


def _staircase_weights(cell, d, spec):
    """The specialized degree-d monomials of one cell, run by run: the
    per-degree expansion that the cell templates replace."""
    return [
        specialize((a0 + n * s0, a1 + n * s1, a2 + n * s2, a3 + n * s3), spec)
        for (a0, a1, a2, a3), (s0, s1, s2, s3), count in staircase_runs([cell], d)
        for n in range(count)
    ]


def test_cell_templates_are_the_specialized_staircase_runs(points):
    # every distinct cell of the points, and the cells of three other
    # monomial ideals, among them 2-free cells of unbounded x3, at d = 4..60
    spec = WeightSpec((0, 3, 11, 47))
    cells = {ideals.CELLS[n] for fp in points for n in fp.cells}
    for lead_x in (
        [(0, 0, 2, 0)],
        [(1, 0, 0, 0), (0, 1, 0, 0)],
        [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 2)],
    ):
        cells.update(staircase_cells(lead_x))
    assert any(len(cell.free) == 2 and cell.bound == math.inf for cell in cells)
    for cell in cells:
        template = loc._cell_template(cell, spec.values)
        for d in range(4, 61):
            want = _staircase_weights(cell, d, spec)
            assert loc._expand(template, d) == want, (cell, d)
            assert monomial_counts(cell, [d]) == [len(want)], (cell, d)


def test_a_cell_with_three_free_coordinates_is_a_structural_error(points, weights):
    # its fiber grows as d^3, so it has no template of runs affine in d
    (cube,) = staircase_cells([(0, 0, 0, 1)])
    message = f"^{re.escape(f'staircase cell {cube} has 3 free coordinates')}$"
    bad = points[40]._replace()
    vars(bad)["cells"] = [*points[40].cells, ideals.quartic_cell(cube.base, cube.free, cube.bound)]
    with pytest.raises(StructuralError, match=message):
        loc.check_fiber_ranks([bad], [5])
    with pytest.raises(StructuralError, match=message):
        loc.degree_nl(5, weights, points[:40] + [bad])
    with pytest.raises(StructuralError, match=message):
        fx.check_4t(points[:40] + [bad])


def test_the_4t_check_is_the_fiber_rank_check_at_d_9_to_12(monkeypatch, points):
    # one rank check serves the cascade and every Bott pass
    assert loc.check_fiber_ranks is fx.check_fiber_ranks
    calls, real = [], fx.check_fiber_ranks

    def recording(points, ds):
        calls.append(ds)
        return real(points, ds)

    monkeypatch.setattr(fx, "check_fiber_ranks", recording)
    fx.check_4t(points)
    assert calls == [range(9, 13)]


@pytest.mark.parametrize("check", ["check_4t", "pass"])
def test_a_later_point_failing_at_an_earlier_d_is_named_first(points, weights, check):
    # point 19 swaps its cell ((2, 0, 0), (0,), inf, 2), 8 monomials at d = 9
    # and 9 at d = 10, for a bounded one with 8 from d = 9 on, so it fails at
    # d = 10 only; point 300, given a repeated quartic, fails at every d
    def run(points):
        if check == "check_4t":
            fx.check_4t(points)
        else:
            loc.Bott(points, weights).degree_range(9, 12)

    fp = points[19]
    unbounded, bounded = ((2, 0, 0), (0,), math.inf, 2), ideals.quartic_cell((1, 0, 0), (0,), 8)
    assert monomial_counts(unbounded, [9, 10]) == [8, 9]
    assert monomial_counts(ideals.CELLS[bounded], [9, 10]) == [8, 8]
    bad = fp._replace()
    vars(bad)["cells"] = [bounded if ideals.CELLS[n] == unbounded else n for n in fp.cells]
    altered = points[:19] + [bad] + points[20:]
    message = f"fiber rank 39 != 40 at {fp.tag}{fp.provenance}, d=10"
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        run(altered)
    message = "fiber rank 37 != 36 at E2(11, 0), d=9"
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        run(_broken(altered, 300))


@pytest.mark.parametrize("dmin, dmax, rank", [(5, 53, "23 != 24"), (200, 200, "605 != 800")])
def test_a_dropped_live_cell_names_the_point_and_its_first_failing_d(
    points, weights, dmin, dmax, rank
):
    # the cell has no monomial at d = 5, one at d = 6 and 195 at d = 200
    fp = points[3]
    cell = ((1, 3, 2), (1, 2), 1, 6)
    bad = fp._replace()
    vars(bad)["cells"] = [n for n in fp.cells if ideals.CELLS[n] != cell]
    assert len(bad.cells) == len(fp.cells) - 1
    altered = points[:3] + [bad] + points[4:]
    d = 6 if dmin == 5 else 200
    message = f"fiber rank {rank} at {fp.tag}{fp.provenance}, d={d}"
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        loc.Bott(altered, weights).degree_range(dmin, dmax)
    # a later point that fails at an earlier d is named first
    if dmin == 5:
        message = "fiber rank 21 != 20 at E2(11, 0), d=5"
        with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
            loc.Bott(_broken(altered, 300), weights).degree_range(dmin, dmax)


@pytest.mark.parametrize(
    "cell, message, in_pass",
    [
        # first live at d = 7: only rank-invariants, over d = 4..10, sees it
        (((3, 3, 1), (0, 1), 1, 7), "fiber rank 27 != 28 at G2E1(18, 0), d=7", False),
        # live at d = 4 only
        (((1, 2, 1), (), 1, 4), "fiber rank 15 != 16 at G2E1(18, 0), d=4", True),
    ],
)
def test_a_dropped_cell_fails_rank_invariants_and_the_pass_alike(
    points, weights, cell, message, in_pass
):
    # one corrupted cell list, read by `verify`'s rank check and by its pass:
    # the pass reuses no count that failed
    fp = points[156]
    bad = fp._replace()
    vars(bad)["cells"] = [n for n in fp.cells if ideals.CELLS[n] != cell]
    assert len(bad.cells) == len(fp.cells) - 1
    bott = loc.Bott(points[:156] + [bad] + points[157:], weights)
    match = f"^{re.escape(message)}$"
    with pytest.raises(StructuralError, match=match):
        checks.rank_invariants(bott)
    if in_pass:
        with pytest.raises(StructuralError, match=match):
            checks.d4_target(bott)
    else:
        assert checks.d4_target(bott) == 38475


def test_a_pass_plans_its_visits_and_templates_once(monkeypatch, points, weights):
    # 49 degrees, one schedule, and one template per live cell: 353 of the
    # 401 distinct cells have a monomial at some d = 5..53
    planned, templated = [], []
    schedule, template = loc.visit_schedule, loc._cell_template

    def planning(seqs):
        planned.append(1)
        return schedule(seqs)

    def templating(cell, values):
        templated.append(cell)
        return template(cell, values)

    monkeypatch.setattr(loc, "visit_schedule", planning)
    monkeypatch.setattr(loc, "_cell_template", templating)
    loc.Bott(points, weights).degree_range(5, 53)
    assert planned == [1]
    assert len(templated) == len(set(templated)) == 353
    assert all(any(monomial_counts(cell, range(5, 54))) for cell in templated)


def test_run_degrees_and_spec_independence_share_one_route(
    monkeypatch, capsys, tmp_path, two_cpus, points, weights
):
    # verify's two passes over d = 4..6, one per spec, check the ranks and
    # plan the visits once between them; each builds its own templates
    calls, templated = Counter(), []
    for name in ("check_fiber_ranks", "visit_schedule"):

        def counted(*args, real=getattr(loc, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(loc, name, counted)
    template = loc._cell_template

    def templating(cell, values):
        templated.append((cell, values))
        return template(cell, values)

    monkeypatch.setattr(loc, "_cell_template", templating)
    bott = loc.Bott(points, weights)
    assert checks.spec_independence(bott) == [38475, *map(closed_form(), (5, 6))]
    assert calls == {"check_fiber_ranks": 1, "visit_schedule": 1}
    theirs, ours = templated[: len(templated) // 2], templated[len(templated) // 2 :]
    assert [cell for cell, _ in theirs] == [cell for cell, _ in ours]
    assert {values for _, values in ours} == {weights.values}
    # a whole `nlocus verify` counts the ranks once, with 1 worker or 2:
    # `rank-invariants` counts them over d = 4..10, and the route reads that
    path = tmp_path / "fixpoints.json"
    fx.save_cache(points, path)
    for workers in (1, 2):
        calls.clear()
        assert main(["verify", "--threads", str(workers), "--cache", str(path)]) == 0
        assert capsys.readouterr().out.endswith("\nverify: ok\n")
        assert calls == {"check_fiber_ranks": 1, "visit_schedule": 1}, workers


def test_a_point_with_other_cells_gets_its_own_route(points, weights):
    # the route of the true points does not serve a point whose cells were
    # replaced: its dropped cell, first live at d = 7, fails the ranks
    assert loc.Bott(points, weights).degree_range(4, 8)[0].degree == 38475
    fp = points[156]
    bad = fp._replace()
    vars(bad)["cells"] = [n for n in fp.cells if ideals.CELLS[n] != ((3, 3, 1), (0, 1), 1, 7)]
    assert len(bad.cells) == len(fp.cells) - 1
    altered = points[:156] + [bad] + points[157:]
    message = "fiber rank 27 != 28 at G2E1(18, 0), d=7"
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        loc.Bott(altered, weights).degree_range(4, 8)


def test_a_failed_route_or_spec_is_not_kept(points, weights):
    fp = points[156]
    bad = fp._replace()
    vars(bad)["cells"] = [n for n in fp.cells if ideals.CELLS[n] != ((1, 2, 1), (), 1, 4)]
    bott = loc.Bott(points[:156] + [bad] + points[157:], weights)
    message = "fiber rank 15 != 16 at G2E1(18, 0), d=4"
    for _ in range(2):
        with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
            bott.degrees
    assert (bott._ranks, bott._routes, "degrees" in vars(bott)) == (None, {}, False)
    spec = WeightSpec((0, 1, 2, 3))
    message = (
        "weight spec (0, 1, 2, 3) is not admissible: tangent character"
        " (1, -2, 1, 0) at G2(1,) specializes to 0"
    )
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            loc.admissible_spec(bott, spec)
    # the run's spec, checked when the object was built, and nothing newer
    assert list(bott._denominators) == [weights.values]


def test_localization_keeps_no_module_level_state(points, weights):
    # what a command's sums share lives in its Bott, so no pass leaves a
    # list, dict or set in the module for a later one to read
    assert checks.spec_independence(loc.Bott(points, weights))[0] == 38475
    assert loc.degree_nl(4, weights, points).degree == 38475
    kept = [
        name
        for name, value in vars(loc).items()
        if not name.startswith("__") and isinstance(value, (list, dict, set))
    ]
    assert kept == []


def _replace_quartic_cells(monkeypatch, replacement):
    """Replace `quartic_cells` at every package attribute bound to it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("nlocus"):
            for key, value in list(vars(module).items()):
                if value is quartic_cells:
                    monkeypatch.setattr(module, key, replacement)


def _count_cell_derivations(monkeypatch):
    """The list of quartic systems whose staircase cells are derived from now on."""
    derived = []

    def counted(quartics):
        derived.append(quartics)
        return quartic_cells(quartics)

    _replace_quartic_cells(monkeypatch, counted)
    return derived


def test_sums_after_enumeration_derive_no_cells(monkeypatch, weights):
    points = fx.enumerate_all()
    derived = _count_cell_derivations(monkeypatch)
    assert loc.degree_nl(4, weights, points).degree == 38475
    assert derived == []


def test_a_cache_hit_derives_no_cells(monkeypatch, tmp_path, points, weights):
    """The loaded points carry the file's cells, each the shared cell object
    that `quartic_cells` gives, so the checks and the Bott sums derive none."""
    path = tmp_path / "fixpoints.json"
    fx.save_cache(points, path)

    def refuse(quartics):
        raise AssertionError("staircase cells derived on a cache hit")

    _replace_quartic_cells(monkeypatch, refuse)
    loaded = fx.load_cache(path)
    checks.rank_invariants(loc.Bott(loaded, weights))
    assert loc.Bott(loaded, weights).degree_range(4, 6)[0].degree == 38475
    monkeypatch.undo()
    assert len(loaded) == 525
    for fp in loaded:
        derived = quartic_cells(fp.quartics)
        assert fp.cells == derived and all(map(operator.is_, fp.cells, derived))


def test_warm_ranks_routes_passes_and_saves_hash_no_cell(monkeypatch, tmp_path, points, weights):
    """Loaded points keep their cells as numbers, so the rank count, the
    route, `verify`'s two passes and the cache writer index lists by number
    and hash no `Cell`."""
    path = tmp_path / "fixpoints.json"
    fx.save_cache(points, path)
    loaded = fx.load_cache(path)
    hashed = []

    def counting(cell):
        hashed.append(cell)
        return tuple.__hash__(cell)

    monkeypatch.setattr(ideals.Cell, "__hash__", counting)
    cell = ideals.Cell((0, 0, 0), (), 1, 0)
    assert {cell: 0} and hashed == [cell]  # the count sees a hash
    hashed.clear()
    bott = loc.Bott(loaded, weights)
    bott.ranks(range(4, 11))
    bott.route((4, 5, 6))
    assert checks.spec_independence(bott) == [38475, *map(closed_form(), (5, 6))]
    fx.save_cache(loaded, tmp_path / "again.json")
    assert hashed == []
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("values", [(0, 1, 5, 18), (0, 3, 10, 11), (0, 1, 7, 1000)])
def test_each_fiber_weight_sum_is_within_the_pass_bound(points, values):
    # `_sum_chunk` sets the Kronecker width from 4*d*d*max(shifted) and
    # scans no weight: each point has 4d fiber weights, each at most d*max
    shifted = tuple(v - min(values) for v in values)
    numbers = sorted({n for fp in points for n in fp.cells})
    templates = [None] * len(ideals.CELLS)
    for n in numbers:
        templates[n] = loc._cell_template(ideals.CELLS[n], shifted)
    for d in range(4, 61):
        lengths, sums = [0] * len(templates), [0] * len(templates)
        for n in numbers:
            weights = loc._expand(templates[n], d)
            lengths[n], sums[n] = len(weights), sum(weights)
        bound = 4 * d * d * max(shifted)
        for fp in points:
            assert sum(lengths[n] for n in fp.cells) == 4 * d
            assert 0 <= sum(sums[n] for n in fp.cells) <= bound, (fp.tag, fp.provenance, d)


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


def test_forked_workers_match_one_worker(tmp_path, two_cpus, forked, points, weights):
    # freshly loaded points carry the file's cells, and the forked worker
    # inherits them with the plan
    path = tmp_path / "fixpoints.json"
    fx.save_cache(points, path)
    loaded = fx.load_cache(path)
    assert all("cells" in vars(fp) for fp in loaded)
    multi = loc.Bott(loaded, weights, 2).degree_range(4, 6)
    assert multi == loc.Bott(loaded, weights, 1).degree_range(4, 6)
    assert len(forked) == 1


def test_a_pass_with_two_workers_plans_once(
    monkeypatch, tmp_path, two_cpus, forked, points, weights
):
    # the route and each cell template append the pid of their process to a
    # file that a forked worker would write to as well
    log = tmp_path / "plans"
    for owner, name in ((loc.Bott, "route"), (loc, "_cell_template")):

        def planning(*args, real=getattr(owner, name), name=name):
            with open(log, "a") as f:
                f.write(f"{name} {os.getpid()}\n")
            return real(*args)

        monkeypatch.setattr(owner, name, planning)
    assert loc.Bott(points, weights, 2).degree_range(4, 6)[0].degree == 38475
    lines = Counter(log.read_text().splitlines())
    assert set(lines) == {f"route {os.getpid()}", f"_cell_template {os.getpid()}"}
    assert (lines[f"route {os.getpid()}"], len(forked)) == (1, 1)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _broken(points, index):
    """points with the one at index given a repeated quartic: fiber rank 4d + 1."""
    fp = points[index]
    bad = fp._replace(quartics=fp.quartics[:18] + fp.quartics[:1])
    return points[:index] + [bad] + points[index + 1 :]


def test_the_first_error_is_the_same_for_any_number_of_workers(
    two_cpus, forked, points, weights
):
    # point 300 has fiber rank 4d + 1 at every d, point 19 loses a cell with
    # monomials from d = 6 on: the pass names the first d and, at it, the
    # first point, whether it runs in one process or two
    altered = _broken(points, 300)
    fp = altered[19]
    bad = fp._replace()
    vars(bad)["cells"] = [n for n in fp.cells if ideals.CELLS[n] != ((2, 3, 1), (0, 1), 1, 6)]
    assert len(bad.cells) == len(fp.cells) - 1
    altered[19] = bad
    message = "fiber rank 17 != 16 at E2(11, 0), d=4"
    for workers in (1, 2):
        with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
            loc.Bott(altered, weights, workers).degree_range(4, 8)
    _no_child_left()
    assert forked == []


def _failing_at(monkeypatch, failed):
    """`_expand` raising StructuralError at the degree failed, in whichever
    process runs that degree."""
    real = loc._expand

    def expand(template, d):
        if d == failed:
            raise StructuralError(f"no weights at d={d}")
        return real(template, d)

    monkeypatch.setattr(loc, "_expand", expand)


def test_a_workers_error_reaches_the_caller(monkeypatch, two_cpus, forked, points, weights):
    # the worker runs d = 5, 7 and the parent d = 4, 6
    with monkeypatch.context() as patch:
        _failing_at(patch, 5)
        with pytest.raises(StructuralError, match="^no weights at d=5$"):
            loc.Bott(points, weights, 2).degree_range(4, 7)
    _no_child_left()
    assert len(forked) == 1
    assert loc.Bott(points, weights, 2).degree_range(4, 7)[0].degree == 38475
    assert len(forked) == 2


def test_an_error_in_the_callers_slice_leaves_no_child(
    monkeypatch, two_cpus, forked, points, weights
):
    _failing_at(monkeypatch, 6)
    with pytest.raises(StructuralError, match="^no weights at d=6$"):
        loc.Bott(points, weights, 2).degree_range(4, 7)
    _no_child_left()
    assert len(forked) == 1


@pytest.mark.parametrize(
    "status, child_sum",
    [(3, lambda *args: os._exit(3)), (1, lambda *args: {5: lambda: 0})],
    ids=["killed", "unpicklable"],
)
def test_a_worker_without_a_result_is_a_structural_error(
    monkeypatch, two_cpus, forked, points, weights, status, child_sum
):
    parent = os.getpid()
    real = loc._sum_chunk
    monkeypatch.setattr(
        loc, "_sum_chunk", lambda *a: real(*a) if os.getpid() == parent else child_sum(*a)
    )
    message = f"Bott-sum worker for d = 5, 7: exit status {status}, no result"
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        loc.Bott(points, weights, 2).degree_range(4, 7)
    _no_child_left()
    assert len(forked) == 1


def test_unflushed_stdout_is_written_once(monkeypatch, tmp_path, points, weights):
    # stdout on a pipe is block-buffered: the line is still in the buffer
    # when the worker forks, and only the parent may flush it
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    path = tmp_path / "fixpoints.json"
    fx.save_cache(points, path)
    code = (
        "import json, os, sys\n"
        "from nlocus import fixpoints, localization, torus\n"
        "localization._usable_cpus = lambda: 2\n"
        "forks = []\n"
        "os.register_at_fork(before=lambda: forks.append(1))\n"
        "points = fixpoints.load_cache(sys.argv[1])\n"
        "spec = torus.WeightSpec(json.loads(sys.argv[2]))\n"
        "print('before the sum')\n"
        "print(localization.Bott(points, spec, 2).degree_range(4, 6)[0].degree)\n"
        "print(len(forks), 'fork')\n"
    )
    done = _python(code, str(path), json.dumps(list(weights.values)))
    assert (done.stdout, done.stderr) == ("before the sum\n38475\n1 fork\n", "")


@pytest.mark.parametrize("values", [(0, 1, 5, 18), (0, 1, 7, 23), (-7, 3, 11, 40)])
def test_shared_pass_matches_an_unshared_oracle(points, unshared_sum, values):
    spec = WeightSpec(values)
    ds = range(4, 10)
    totals = _sums(points, ds, spec)
    assert totals == {d: unshared_sum(d, spec, d == 4) for d in ds}


def test_shared_products_width_covers_a_larger_later_sum():
    # the second sequence shares the first one's prefix and has the larger
    # sum, so a width derived from the first sequence alone overflows
    weights = [list(range(20)), [3, 1, 4, 1], [10**6 + k for k in range(16)]]
    seqs = [[0, 1], [0, 2]]
    largest = sum(weights[0]) + sum(weights[2])
    got = shared_products(16, torus.visit_schedule(seqs), weights, largest)
    for (e16, e15), seq in zip(got, seqs):
        values = [v for c in seq for v in weights[c]]
        assert e16 == checks.elem_sym_dp(16, values)
        assert e15 == checks.elem_sym_dp(15, values)



@pytest.mark.parametrize("values", [(0, 1, 5, 18), (0, 2, 7, 15)])
def test_formula_sums_take_the_pinned_kronecker_steps(monkeypatch, points, values):
    # the kernel's work, counted on the operands of its multiplications: a
    # weight step multiplies by a weight, a coefficient term by a derived
    # coefficient, and a derivation takes one step at its own width per
    # weight of its cell; "cells fed" are the entries of the sequences, with
    # the cells that have no monomial at any d of the sum left out.  The
    # counts depend on the visit order, the fiber lengths and the rule for
    # long cells, not on the spec: a long cell that the schedule applies
    # more than once takes its coefficients from its first application
    work = Counter()

    class Weight(int):
        def __mul__(self, other):
            work["weight steps"] += 1
            return int.__mul__(self, other)

    class Coefficient(int):
        def __mul__(self, other):
            work["coefficient terms"] += 1
            return int.__mul__(self, other)

    derive = torus._coefficients

    def counting_derive(k, cell):
        steps = work["weight steps"]
        coeffs = derive(k, cell)
        work["own-width steps"] += work["weight steps"] - steps
        work["weight steps"] = steps
        return [Coefficient(c) for c in coeffs]

    def counting(k, schedule, weights, largest):
        work["cells fed"] += sum(n + len(tail) for n, tail in schedule[0])
        return shared_products(k, schedule, [[Weight(v) for v in w] for w in weights], largest)

    monkeypatch.setattr(torus, "_coefficients", counting_derive)
    monkeypatch.setattr(loc, "shared_products", counting)
    results = loc.Bott(points, WeightSpec(values)).degree_range(5, 53)
    assert [r.degree for r in results] == [closed_form()(d) for d in range(5, 54)]
    assert work == {
        "weight steps": 521_411,
        "coefficient terms": 323_216,
        "own-width steps": 76_275,
        "cells fed": 383_670,
    }


@pytest.mark.parametrize("values", [(0, 1, 5, 18), (-7, 3, 11, 40)])
@pytest.mark.parametrize("d", [100, 200])
def test_a_sum_far_past_the_nodes_is_the_closed_form(points, values, d):
    # cells of hundreds of weights, re-applied through their coefficients
    assert loc.degree_nl(d, WeightSpec(values), points).degree == closed_form()(d)


CLASSICAL_SPECS = [(0, 1, 5, 18), (0, 1, 7, 23), (-3, 0, 2, 11)]


@pytest.mark.parametrize("values", CLASSICAL_SPECS)
def test_plucker_powers_integrate_to_the_degree_of_the_grassmannian(points, values):
    # the pencils sweep out G(2,10) in its Pluecker embedding: the integral
    # of H^16 is its degree, the Catalan number C_8, and that of H^k, k < 16,
    # is 0 on the 16-dimensional space
    spec = WeightSpec(values)
    common, _, scales = loc.Bott(points, spec).denominators(spec)
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
    totals = _sums(points, ds, weights)
    for d in ds:
        assert totals[d] == unshared_sum(d, weights, d == 4)
    results = loc.Bott(points, weights).degree_range(4, 7)
    assert [r.degree for r in results] == [totals[4] / 4] + [totals[d] for d in ds[1:]]


def test_negative_weight_spec(points):
    spec = WeightSpec((-7, 3, 11, 40))
    assert check_generic(spec, [fp.tangent for fp in points])
    cf = closed_form()
    assert [r.degree for r in loc.Bott(points, spec).degree_range(4, 6)] == [38475, cf(5), cf(6)]


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
        loc.Bott(points, weights).degree_range(6, 5)


def test_degree_nl_d4_headline(points, weights):
    result = loc.degree_nl(4, weights, points)
    assert result.degree == 38475
    raw = _sums(points, [4], weights)[4]
    assert raw == 4 * 38475 == 153900


def test_degree_range_from_d4_matches_degree_nl(points, weights):
    results = loc.Bott(points, weights).degree_range(4, 6)
    assert results == [loc.degree_nl(d, weights, points) for d in (4, 5, 6)]
    assert results[0].degree == 38475


def test_degree_range_rejects_bad_sums(monkeypatch, weights):
    for d, total in ((4, Fraction(6)), (5, Fraction(1, 2)), (6, Fraction(-6))):
        monkeypatch.setattr(loc, "_localize", lambda *args: {d: total})
        with pytest.raises(StructuralError, match=f"d={d} is {total}, not a non-neg"):
            loc.Bott([], weights).degree_range(d, d)


def test_sum_independent_of_point_order(points, weights):
    shuffled = list(points)
    random.Random(4).shuffle(shuffled)
    assert loc.degree_nl(5, weights, shuffled).degree == loc.degree_nl(5, weights, points).degree


def test_spec_independence(points, weights):
    assert check_generic(FALLBACK_WEIGHTS, [fp.tangent for fp in points])
    ours = loc.Bott(points, weights).degree_range(4, 6)
    theirs = loc.Bott(points, FALLBACK_WEIGHTS).degree_range(4, 6)
    assert [r.degree for r in ours] == [r.degree for r in theirs]


def test_inadmissible_spec_raises(points):
    bad = WeightSpec((0, 1, 2, 3))
    with pytest.raises(ValueError):
        loc.degree_nl(5, bad, points)


def test_workers_bit_exact(two_cpus, points, weights):
    # each process runs its own degrees of the one plan, so the second one
    # starts from the parent's cells, visits and schedule
    single = loc.Bott(points, weights, 1).degree_range(4, 8)
    multi = loc.Bott(points, weights, 2).degree_range(4, 8)
    assert [(r.d, r.degree) for r in single] == [(r.d, r.degree) for r in multi]
    assert multi[0].degree == 38475


def test_one_usable_cpu_sums_in_process(one_cpu, points, weights):
    single = loc.Bott(points, weights, 1).degree_range(4, 8)
    assert loc.Bott(points, weights, 2).degree_range(4, 8) == single


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert loc._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert loc._usable_cpus() == 1


def test_admissible_spec_returns_the_spec_or_names_the_point(points, weights):
    bott = loc.Bott(points, weights)
    assert bott.spec is loc.admissible_spec(bott, weights) is weights
    bad = WeightSpec((0, 1, 2, 3))
    fp = next(p for p in points if not check_generic(bad, [p.tangent]))
    with pytest.raises(
        ValueError,
        match=re.escape("(0, 1, 2, 3) is not admissible: tangent character (")
        + rf"[-\d, ]+\) at {re.escape(f'{fp.tag}{fp.provenance}')} specializes to 0",
    ):
        loc.admissible_spec(bott, bad)


def test_degree_result_json(points, weights):
    doc = loc.degree_nl(5, weights, points).to_json()
    assert doc == {
        "d": 5,
        "degree": "824667930",
        "spec": [0, 1, 5, 18],
        "fixpointCount": 525,
    }


def test_each_distinct_tangent_character_is_specialized_once(monkeypatch, points, weights):
    # 8,400 tangent characters over the 525 points, 230 of them distinct:
    # the spec's check, the self test and a pass of one Bott specialize
    # each once between them, 230 calls and not 690
    calls = Counter()

    def counted(c, spec):
        if not sum(c):  # a tangent character, not a pencil row
            calls[c, spec.values] += 1
        return specialize(c, spec)

    monkeypatch.setattr(loc, "specialize", counted)
    distinct = {c for fp in points for c in fp.tangent}
    assert len(distinct) == 230
    # the default, the fallback and the benchmark's seed-1 spec
    for spec in (DEFAULT_WEIGHTS, FALLBACK_WEIGHTS, WeightSpec((0, 3, 10, 11))):
        bott = loc.Bott(points, spec)
        assert checks.localization_self_test(bott) == 525
        assert bott.degree_range(4, 4)[0].degree == 38475
        assert calls == {(c, spec.values): 1 for c in distinct}
        calls.clear()
        # scales[p] * dens[p] is the common denominator at every point, so
        # the sum of c_16(T)/c_16(T) is the number of points for any data:
        # the self test has nothing to check there
        common, dens, scales = bott.denominators(spec)
        assert common == math.lcm(*dens)
        assert all(scale * den == common for scale, den in zip(scales, dens))
        assert calls == {}
    _, dens, _ = loc.Bott(points, weights).denominators(weights)
    assert calls == {(c, weights.values): 1 for c in distinct}
    assert dens == [math.prod(specialize(c, weights) for c in fp.tangent) for fp in points]


@pytest.mark.parametrize(
    "values, at_fault, message",
    [
        (
            (0, 1, 2, 3),
            218,
            "weight spec (0, 1, 2, 3) is not admissible: tangent character"
            " (1, -2, 1, 0) at G2(1,) specializes to 0",
        ),
        # (3, 1, -4, 0) is a tangent character of record 444 only, and its
        # negative one of record 451 only: no earlier point is at fault
        (
            (0, -4, -1, 9),
            2,
            "weight spec (0, -4, -1, 9) is not admissible: tangent character"
            " (3, 1, -4, 0) at E2(27, 0) specializes to 0",
        ),
    ],
)
def test_an_inadmissible_spec_names_the_first_point_in_list_order(
    points, values, at_fault, message
):
    spec = WeightSpec(values)
    faulty = [fp for fp in points if not check_generic(spec, [fp.tangent])]
    assert len(faulty) == at_fault
    assert f" at {faulty[0].tag}{faulty[0].provenance} " in message
    pattern = f"^{re.escape(message)}$"
    for run in (loc.Bott, lambda pts, spec: loc.degree_nl(4, spec, pts)):
        with pytest.raises(ValueError, match=pattern):
            run(points, spec)


def test_sums_under_alternating_specs_share_no_table(points):
    # a table of specialized characters kept from one spec would give the
    # next spec's sums wrong denominators
    cf = closed_form()
    want = {4: 4 * 38475, 5: cf(5), 6: cf(6), 7: cf(7)}
    bott = loc.Bott(points, WeightSpec((0, 1, 5, 18)))
    for values in ((0, 1, 5, 18), (0, 1, 7, 23), (0, 1, 5, 18)):
        spec = WeightSpec(values)
        assert loc._localize(bott, range(4, 8), spec) == want, values
        assert [r.degree for r in bott.degree_range(4, 7, spec)] == [
            38475,
            *(want[d] for d in range(5, 8)),
        ]
        assert checks.localization_self_test(loc.Bott(points, spec)) == 525
