"""Bott localization sums over the fixed points.

For d >= 5 the degree of the locus of degree-d surfaces containing an
elliptic quartic is the sum over fixed points of

    e_16(weights of the degree-d standard monomials) / prod(tangent weights),

all specialized at an admissible integer weight vector.  For d = 4 the
forgetful map contracts a pair of pencils, and the count becomes one quarter
of the sum of Pluecker-weight times e_15 over the same denominators.

Adding one constant c to all four weights changes no sum: the scalar
subtorus acts trivially on P^3, every tangent character has coordinate sum
0 and keeps its value, and every degree-d fiber weight moves by c*d.  The
sums are therefore taken under the spec shifted to a zero minimum, so every
fiber weight is non-negative; the caller's spec is the one reported.

The hot path, `_sum_chunk`, reads the staircase cells of each point's
quartic system from `FixedPoint.cells`, derived once per point and process
and shared with the 4t check and `checks.rank_invariants`.  The points of a
chunk are built from few distinct cells.  What does not depend on d is
done once per pass: the fiber ranks of every d are checked from one packed
count per distinct cell (`check_fiber_ranks`, the check of
`checks.rank_invariants` too), the cells dead at every d are left out,
each other one becomes a template of runs affine in d (`_cell_template`),
and the visits are planned (`torus.visit_schedule`).  Each d then expands
the templates into specialized weights and runs only Kronecker steps: e_16
is `torus.shared_products`, the package's one Kronecker-packed product,
shared between points.  Each point starts from the product of the cells it
has in common with the point visited before it, and a long cell that the
schedule applies more than once enters through its 16 elementary symmetric
coefficients from its first application on, not weight by weight.
The summands of a chunk are added as integers over the lcm of their
tangent denominators, one Fraction per d.  The denominators of a pass over
the points, in a sum, in `admissible_spec` or in `localization_self_test`,
specialize each distinct tangent character once, through a table built in
that call (`_tangent_denominators`): the 525 points have 8,400 tangent
characters between them, but only 230 distinct ones.

With N workers, `_localize` runs one sum in at most N processes, and never
in more than the CPUs this process may run on (`_usable_cpus`): on one CPU
a second process cannot run at the same time, so a fork would only add its
cost.  Each forked child inherits the points and the cells they have
derived, sums its slice of them and sends back one pickled result or
exception through a pipe; the parent sums the first slice itself, then
reads and reaps every child, also when a slice raises.  Nothing outlives
the sum, so no state is kept between calls, and the result is the same for
any N.
"""

from __future__ import annotations

import math
import os
import sys
from collections import namedtuple
from fractions import Fraction

from .fixpoints import StructuralError
from .torus import WeightSpec, shared_products, specialize, visit_schedule

DIM = 16  # dimension of the blown-up parameter space
# the largest d of a Bott sum: a point's 4d fiber weights are one list, whose
# length is at most sys.maxsize
MAX_D = sys.maxsize // 4


class DegreeResult(namedtuple("DegreeResult", "d degree spec fixpoint_count")):
    """One degree's exact Bott sum, with the weight spec and the number of points."""

    __slots__ = ()

    def to_json(self):
        return {
            "d": self.d,
            "degree": str(self.degree),
            "spec": list(self.spec.values),
            "fixpointCount": self.fixpoint_count,
        }


def _check_rank(fp, d, rank):
    """The fiber of the quotient bundle has rank 4d at every fixed point.

    Another rank means the 4-regularity of the limit ideal failed, which is
    a structural bug.
    """
    if rank != 4 * d:
        raise StructuralError(
            f"fiber rank {rank} != {4 * d} at {fp.tag}{fp.provenance}, d={d}"
        )


def _cell_template(cell, values):
    """One staircase cell's degree-d weights under values, as runs affine in d.

    The tuple (free, lower, bound, a, b, g, s) stands for, with t = d - lower
    and hi = min(t, bound - 1): the weight a + b*d when free = 0 and
    0 <= t < bound; the run a + b*d + n*s, n <= hi, when free = 1; and the
    runs a + b*d + m*g + n*s, n <= t - m, for m <= hi, when free = 2.  These
    are the runs of `staircase_runs` specialized, in its order.
    """
    (i, j, k), free, bound, lower = cell
    w0, w1, w2, w3 = values
    b = values[free[-1]] if free else w3  # the weight of the coordinate that d moves
    g = w3 - b
    s = values[free[0]] - b if len(free) == 2 else g
    return len(free), lower, bound, i * w0 + j * w1 + k * w2 - lower * b, b, g, s


def _counts(cell, ds, field):
    """A staircase cell's numbers of degree-d monomials for the d in ds (the
    lengths of its `_cell_template` runs), packed into one integer: the count
    at the i-th d in the bits from i*field up.  A cell with 3 free
    coordinates, whose fiber grows as d^3, is a StructuralError."""
    _, free, bound, lower = cell
    if len(free) > 2:
        raise StructuralError(f"staircase cell {cell} has 3 free coordinates")
    out = 0
    for i, d in enumerate(ds):
        t = d - lower
        hi = t if t < bound else bound - 1
        if hi < 0:
            continue
        if not free:
            n = 1 if hi == t else 0
        elif len(free) == 1:
            n = hi + 1
        else:
            n = (hi + 1) * (2 * t + 2 - hi) // 2  # the runs of t + 1 - m, m <= hi
        out |= n << (i * field)
    return out


def check_fiber_ranks(points, ds):
    """Check the fiber rank 4d of every point at every d in ds; returns
    ({distinct cell: its packed `_counts`}, field).

    Each distinct cell is counted once, in fields that no point's sum can
    carry out of, and each point's cells are added in one sum.  A point
    whose sum is not 4d in every field fails `_check_rank`, at the first d
    in ds at which any point fails and at the first such point.
    """
    top = max(ds)
    # a cell has at most C(d + 3, 3) degree-d monomials, so no point's sum
    # of counts, over disjoint cells or not, reaches 2^field
    most = max([len(fp.cells) for fp in points] + [1])
    field = (most * math.comb(top + 3, 3)).bit_length()
    cells = dict.fromkeys(cell for fp in points for cell in fp.cells)
    counts = {cell: _counts(cell, ds, field) for cell in cells}
    want = sum(4 * d << (i * field) for i, d in enumerate(ds))
    if any(sum(map(counts.__getitem__, fp.cells)) != want for fp in points):
        mask = (1 << field) - 1
        for i, d in enumerate(ds):
            for fp in points:
                rank = sum(map(counts.__getitem__, fp.cells))
                _check_rank(fp, d, rank >> (i * field) & mask)
    return counts, field


def _expand(template, d):
    """A cell's specialized degree-d weights, from its `_cell_template`: each
    run is an arithmetic progression, whose step is nonzero as the spec's
    values are distinct."""
    free, lower, bound, a, b, g, s = template
    t = d - lower
    hi = t if t < bound else bound - 1
    v = a + b * d
    if free == 0:
        return [v] if 0 <= t < bound else []
    if free == 1:
        return list(range(v, v + (hi + 1) * s, s))
    out = []
    for m in range(hi + 1):
        out.extend(range(v, v + (t + 1 - m) * s, s))
        v += g
    return out


class _TangentValues(dict):
    """Tangent characters specialized under one spec, each on its first lookup."""

    __slots__ = ("spec",)

    def __init__(self, spec):
        super().__init__()
        self.spec = spec

    def __missing__(self, c):
        value = self[c] = specialize(c, self.spec)
        return value


def _tangent_denominators(points, spec):
    """Each point's Bott denominator: the product of its 16 tangent characters
    specialized under spec.

    The characters are specialized through one table built for this call,
    so each distinct character is specialized once.  A character that
    specializes to 0 is a zero Bott denominator: ValueError naming the spec,
    the first point in list order with such a character and its first one.
    """
    value = _TangentValues(spec).__getitem__
    dens = [math.prod(map(value, fp.tangent)) for fp in points]
    if 0 in dens:
        fp = points[dens.index(0)]
        c = next(c for c in fp.tangent if not value(c))
        raise ValueError(
            f"weight spec {spec.values} is not admissible: tangent character"
            f" {c} at {fp.tag}{fp.provenance} specializes to 0"
        )
    return dens


def _common_denominator(points, spec):
    """The lcm of the tangent denominators, and each point's factor into it.

    Returns (common, dens, scales) with common = lcm |den_p| and
    scales[p] = common / den_p, so that sum(num_p / den_p) is
    sum(num_p * scales[p]) / common: one Fraction per sum.
    """
    dens = _tangent_denominators(points, spec)
    common = math.lcm(*dens)
    return common, dens, [common // den for den in dens]


def _plan(points, ds, values):
    """What a Bott pass over points does at every d in ds, worked out once:
    (the templates of the live cells, the order of the visits, their
    `torus.visit_schedule`).

    The fiber ranks are checked first (`check_fiber_ranks`).  A cell with no
    monomial at any d in ds, a count of 0, is dead: it is neither templated
    nor fed to the pass.  Each live cell becomes its `_cell_template` under
    values.  The live cells are numbered longest first (their count at
    max(ds), ties by the cell), each point is the sorted list of its live
    cells' numbers, and the points are visited in lexicographic order of
    those lists, so that a point shares its longest cells with the point
    before it.
    """
    counts, field = check_fiber_ranks(points, ds)
    shift, mask = ds.index(max(ds)) * field, (1 << field) - 1
    cells = sorted(
        (cell for cell, n in counts.items() if n),
        key=lambda cell: (-(counts[cell] >> shift & mask), cell),
    )
    number = {cell: n for n, cell in enumerate(cells)}
    seqs = [sorted(number[c] for c in fp.cells if c in number) for fp in points]
    live = [_cell_template(cell, values) for cell in cells]
    # freed before the schedule is built: the pass peaks there when ds is short
    del counts, number
    visits = sorted(range(len(points)), key=seqs.__getitem__)
    return live, visits, visit_schedule(seqs[p] for p in visits)


def _sum_chunk(points, ds, spec):
    """Bott sums of a run of points for each d, over the chunk's common denominator.

    The pass is planned once (`_plan`).  Each d then only expands the live
    cells' templates into weights and runs the schedule, one Kronecker pass
    shared by the points (`torus.shared_products`).

    The numerators are taken under spec shifted to a zero minimum (see the
    module docstring); the denominators are equal under either spec.
    """
    common, _, scales = _common_denominator(points, spec)
    low = min(spec.values)
    shifted = WeightSpec(v - low for v in spec.values)
    live, visits, schedule = _plan(points, ds, shifted.values)
    plucker = [-sum(specialize(c, shifted) for c in fp.pencil_chars) for fp in points]
    sums = {}
    weights = [()] * len(live)
    for d in ds:
        # in place, so that one degree's weights are alive at a time
        for c, template in enumerate(live):
            weights[c] = _expand(template, d)
        acc = 0
        for p, (e16, e15) in zip(visits, shared_products(DIM, schedule, weights)):
            acc += (e16 if d > 4 else plucker[p] * e15) * scales[p]
        sums[d] = Fraction(acc, common)
    return sums


def _fork_sum(points, ds, spec):
    """Fork a child that sums points; (its pid, the read end of its pipe).

    The child writes one pickled result, the sums or the exception they
    raised, and leaves through os._exit: it never returns into the caller's
    frames or flushes the caller's stdio.  It exits with status 0 only once
    the whole result is written.
    """
    import pickle  # only here: a sum with one worker need not load it

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read)
        os.close(write)
        raise OSError(f"cannot fork a Bott-sum worker: {exc.strerror or exc}") from exc
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        try:
            result = _sum_chunk(points, ds, spec)
        except Exception as exc:  # noqa: BLE001 - raised again in the parent
            result = exc
        with open(write, "wb") as pipe:
            pickle.dump(result, pipe)
        status = 0
    finally:
        os._exit(status)


def _reap(pid, read):
    """Read a child's pipe to its end, then wait for it: (bytes, exit code)."""
    with open(read, "rb") as pipe:
        data = pipe.read()
    return data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _usable_cpus():
    """The number of CPUs this process may run on: its affinity mask where the
    platform has one, else all of the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _localize(points, ds, spec, workers):
    """Exact Bott sums for each degree in ds (4 means the Pluecker-twisted sum).

    The sums run in min(workers, usable CPUs) processes.  Whether workers > 1
    needs os.fork is decided on the requested number, not on the machine.
    """
    if workers > 1 and not hasattr(os, "fork"):
        raise ValueError(f"{workers} workers need os.fork, which this platform lacks")
    workers = min(workers, _usable_cpus())
    if workers <= 1 or len(points) < 2 * workers:
        return _sum_chunk(points, ds, spec)
    import pickle

    chunk = (len(points) + workers - 1) // workers
    children = []
    try:
        for start in range(chunk, len(points), chunk):
            stop = min(start + chunk, len(points))
            children.append((start, stop, *_fork_sum(points[start:stop], ds, spec)))
        totals = _sum_chunk(points[:chunk], ds, spec)
    finally:
        parts = [(start, stop, *_reap(pid, read)) for start, stop, pid, read in children]
    for start, stop, data, code in parts:
        if code != 0:
            raise StructuralError(
                f"Bott-sum worker for points {start}:{stop}: exit status {code}, no result"
            )
        part = pickle.loads(data)
        if isinstance(part, Exception):
            raise part
        for d, v in part.items():
            totals[d] += v
    return totals


def degree_range(dmin, dmax, spec, points, workers=1):
    """Checked DegreeResults for every d in dmin..dmax (d >= 4), one localization pass.

    Every sum must be a non-negative integer.  At d = 4 the Pluecker-twisted
    sum must also be divisible by 4, and the degree is its quarter.
    """
    if dmin < 4:
        raise ValueError(f"degree_range needs dmin >= 4, got {dmin}")
    if dmax < dmin:
        raise ValueError(f"degree_range needs a non-empty range, got {dmin}..{dmax}")
    ds = list(range(dmin, dmax + 1))
    totals = _localize(points, ds, spec, workers)
    results = []
    for d in ds:
        degree, rest = divmod(totals[d], 4 if d == 4 else 1)
        if rest or degree < 0:
            raise StructuralError(
                f"localization sum for d={d} is {totals[d]}, not a non-negative"
                f" integer{' divisible by 4' if d == 4 else ''}"
            )
        results.append(DegreeResult(d, degree, spec, len(points)))
    return results


def degree_nl(d, spec, points, workers=1):
    """Degree of the locus of degree-d surfaces containing an elliptic quartic."""
    return degree_range(d, d, spec, points, workers)[0]


def localization_self_test(points, spec):
    """Bott's formula on the classes c_16(T) and 1; returns the number of points.

    The sum of c_16(T)/c_16(T) over the fixed points is their number, and
    the sum of 1/c_16(T) is the integral of 1 over the 16-dimensional space,
    which is 0.  Both sums run over the common denominator of the Bott sums;
    a nonzero second sum raises StructuralError giving it.
    """
    common, dens, scales = _common_denominator(points, spec)
    vanishing = Fraction(sum(scales), common)
    if vanishing:
        raise StructuralError(
            f"sum of 1/c_16(T) over {len(points)} fixed points is {vanishing},"
            f" not 0, under {spec.values}"
        )
    return Fraction(sum(s * den for s, den in zip(scales, dens)), common)


def admissible_spec(points, spec):
    """spec, once no tangent character of any point specializes to 0 under it.

    An inadmissible spec raises the ValueError of `_tangent_denominators`,
    naming the spec, the first point at fault and its killed character; each
    distinct character is specialized once.
    """
    _tangent_denominators(points, spec)
    return spec
