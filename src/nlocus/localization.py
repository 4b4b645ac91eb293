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

A `Bott`, built from points, a spec and workers, is the one way into a
Bott sum: a command builds one, `degree` through `degree_nl`, the
library's call for one degree.  It keeps what its sums share, each part once
built without raising: the denominators of each spec (which `verify`'s
self-test reads too), `verify`'s fiber-rank count, the route of each ds
and the run's pass over d = 4..6.  A pass reads the
staircase cells of each point's quartic system from `FixedPoint.cells`,
derived once per point and process and shared with the 4t check and
`checks.rank_invariants`: a tuple of cell numbers, `ideals.CELLS[n]` the
cell of number n.  The points are built from few distinct cells, and
every walk over a point's cells here indexes a list by those numbers.
The route of a pass depends on the points' cells and ds only
(`Bott.route`): the fiber ranks of every d are checked from one packed
count per distinct cell (`fixpoints.check_fiber_ranks`, the one rank
check, which the cascade's 4t check runs at d = 9..12;
`verify`'s route reads the count of `checks.rank_invariants`), the cells
dead at every d are left
out and the visits are planned (`torus.visit_schedule`).  Each pass makes
each live cell a template of runs affine in d under its spec
(`_cell_template`).  The hot path,
`_sum_chunk`, then expands the templates into specialized weights at each
d and runs only Kronecker steps: e_16 is `torus.shared_products`, the
package's one Kronecker-packed product, shared between points.  Its
width comes from a bound known before any weight: a point has 4d fiber
weights, checked by the route, each at most d times the largest shifted
value.  Each
point starts from the product of the cells it has in common with the
point visited before it, and a long cell that the schedule applies more
than once enters through its 16 elementary symmetric coefficients from
its first application on, not weight by weight.  The summands are added
as integers over the lcm of the points' tangent denominators, one
Fraction per d.  The denominators specialize each distinct tangent
character once: the 525 points have 8,400 tangent characters between
them, but only 230 distinct ones.

With N workers, `_localize` deals the degrees of a pass round robin,
ds[i::n], to n = min(N, usable CPUs, len(ds)) processes (`_usable_cpus`):
on one CPU a fork would only add its cost, and one degree never forks.
Each forked child inherits the parent's plan, runs only the Kronecker
steps of its degrees and sends back one pickled result, its numerators
or an exception, through a pipe; the parent runs ds[::n] itself, then
reads and reaps every child, also when a part raises.  Every check runs
in the parent before any fork and a child keeps nothing, so the result
and the first error are the same for any N.
"""

import functools
import math
import os
import sys
from collections import namedtuple
from fractions import Fraction

from . import ideals
from .fixpoints import StructuralError, check_fiber_ranks
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
    """Tangent characters specialized under its spec, each on first lookup."""

    def __missing__(self, c):
        value = self[c] = specialize(c, self.spec)
        return value


class Bott:
    """The Bott sums of one command over its points, under its spec (checked
    by `admissible_spec`) and workers."""

    def __init__(self, points, spec, workers=1):
        self.points, self.workers = points, workers
        self._denominators, self._routes, self._ranks = {}, {}, None
        self.spec = admissible_spec(self, spec)

    def denominators(self, spec):
        """Each point's Bott denominator under spec, built once per spec: the
        product of its 16 tangent characters specialized through one table of
        the distinct ones, as (common, dens, scales), common = lcm |den_p| and
        scales[p] = common / den_p.  A character that specializes to 0 is a
        ValueError naming the spec, the first point in list order with one,
        and that character."""
        if spec.values in self._denominators:
            return self._denominators[spec.values]
        table = _TangentValues()
        table.spec = spec
        value = table.__getitem__
        dens = [math.prod(map(value, fp.tangent)) for fp in self.points]
        if 0 in dens:
            fp = self.points[dens.index(0)]
            c = next(c for c in fp.tangent if not value(c))
            raise ValueError(
                f"weight spec {spec.values} is not admissible: tangent character"
                f" {c} at {fp.tag}{fp.provenance} specializes to 0"
            )
        common = math.lcm(*dens)
        kept = self._denominators[spec.values] = common, dens, [common // d for d in dens]
        return kept

    def ranks(self, ds):
        """Check the fiber ranks at every d in ds (`fixpoints.check_fiber_ranks`),
        and keep the count once it passes: the route of any ds it covers reads it."""
        self._ranks = tuple(ds), *check_fiber_ranks(self.points, ds)

    def route(self, ds):
        """What a pass at ds does under any spec, built once per ds: (the
        numbers of the live cells in their order, the order of the visits,
        their `torus.visit_schedule`).

        The fiber ranks at ds are checked first by
        `fixpoints.check_fiber_ranks`, or read from the count kept by
        `ranks`.  A cell with no monomial at any d in ds, a count of 0, is
        dead: it is neither templated nor fed to the pass.  The live cells
        are ranked longest first (their count at max(ds), ties by the cell's
        value, `ideals.CELLS[n]`), each point is the sorted list of its live
        cells' ranks, read from a list indexed by cell number, and the
        points are visited in lexicographic order of those lists, so that a
        point shares its longest cells with the point before it.
        """
        if ds in self._routes:
            return self._routes[ds]
        if self._ranks and set(ds) <= set(self._ranks[0]):
            counted, counts, field = self._ranks
        else:
            counted, (counts, field) = ds, check_fiber_ranks(self.points, ds)
        mask = (1 << field) - 1
        live = sum(mask << counted.index(d) * field for d in ds)
        shift = counted.index(max(ds)) * field
        value = ideals.CELLS.__getitem__
        cells = sorted(
            (n for n, count in enumerate(counts) if count & live),
            key=lambda n: (-(counts[n] >> shift & mask), value(n)),
        )
        ranks = [None] * len(counts)
        for r, n in enumerate(cells):
            ranks[n] = r
        at = ranks.__getitem__
        seqs = [sorted(r for r in map(at, fp.cells) if r is not None) for fp in self.points]
        # freed before the schedule is built: the pass peaks there when ds is short
        del counts, ranks, at
        visits = sorted(range(len(seqs)), key=seqs.__getitem__)
        kept = self._routes[ds] = cells, visits, visit_schedule(seqs[p] for p in visits)
        return kept

    def degree_range(self, dmin, dmax, spec=None):
        """Checked DegreeResults for every d in dmin..dmax (d >= 4) under spec,
        by default the run's, from one pass.  Every sum must be a non-negative
        integer; at d = 4 the Pluecker-twisted sum must also be divisible by
        4, and the degree is its quarter."""
        if dmin < 4:
            raise ValueError(f"degree_range needs dmin >= 4, got {dmin}")
        if dmax < dmin:
            raise ValueError(f"degree_range needs a non-empty range, got {dmin}..{dmax}")
        spec = self.spec if spec is None else spec
        ds = tuple(range(dmin, dmax + 1))
        totals = _localize(self, ds, spec)
        results = []
        for d in ds:
            degree, rest = divmod(totals[d], 4 if d == 4 else 1)
            if rest or degree < 0:
                raise StructuralError(
                    f"localization sum for d={d} is {totals[d]}, not a non-negative"
                    f" integer{' divisible by 4' if d == 4 else ''}"
                )
            results.append(DegreeResult(d, degree, spec, len(self.points)))
        return results

    @functools.cached_property
    def degrees(self):
        """The run's one pass: the DegreeResults for d = 4, 5 and 6 under its spec."""
        return self.degree_range(4, 6)


def _sum_chunk(plan, ds):
    """The numerators over the common denominator of the pass plan, (scales,
    plucker, live, visits, schedule, top) from `_localize`, at each d in ds:
    each d only expands the live cells' templates into weights and runs the
    schedule, one Kronecker pass shared by the points (`shared_products`).

    The pass's bound on a point's weight sum is 4*d*d*top, top the largest
    shifted weight: the route has checked that each point has 4d fiber
    weights at d, and each is a degree-d monomial's, at most d*top.
    """
    scales, plucker, live, visits, schedule, top = plan
    sums = {}
    weights = [()] * len(live)
    for d in ds:
        # in place, so that one degree's weights are alive at a time
        for c, template in enumerate(live):
            weights[c] = _expand(template, d)
        acc = 0
        products = shared_products(DIM, schedule, weights, 4 * d * d * top)
        for p, (e16, e15) in zip(visits, products):
            acc += (e16 if d > 4 else plucker[p] * e15) * scales[p]
        sums[d] = acc
    return sums


def _fork_sum(plan, ds):
    """Fork a child that runs plan at ds; (its pid, the read end of its pipe).

    The child writes one pickled result, its numerators or their exception,
    and leaves through os._exit, with status 0 only once the whole result is
    written: it never returns into the caller's frames or flushes its stdio.
    """
    import pickle  # only here: a sum in one process need not load it

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
            result = _sum_chunk(plan, ds)
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


def _result(ds, data, code):
    """The numerators a child sent for its degrees ds; the exception it sent,
    or a StructuralError when it left no whole result, is raised."""
    import pickle

    if code != 0:
        raise StructuralError(
            f"Bott-sum worker for d = {', '.join(map(str, ds))}: exit status {code}, no result"
        )
    result = pickle.loads(data)
    if isinstance(result, Exception):
        raise result
    return result


def _usable_cpus():
    """The number of CPUs this process may run on: its affinity mask where the
    platform has one, else all of the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _localize(bott, ds, spec):
    """Exact Bott sums of bott's points under spec for each degree in ds (4
    means the Pluecker-twisted sum), with bott's workers.  The cell
    templates and the Pluecker weights of the pass are worked out once,
    here.  Whether workers > 1 needs os.fork is decided on the requested
    number, not on the machine."""
    if bott.workers > 1 and not hasattr(os, "fork"):
        raise ValueError(f"{bott.workers} workers need os.fork, which this platform lacks")
    ds = tuple(ds)
    common, _, scales = bott.denominators(spec)
    low = min(spec.values)
    shifted = WeightSpec(v - low for v in spec.values)
    plucker = [-sum(specialize(c, shifted) for c in fp.pencil_chars) for fp in bott.points]
    cells, visits, schedule = bott.route(ds)
    live = [_cell_template(ideals.CELLS[n], shifted.values) for n in cells]
    plan = (scales, plucker, live, visits, schedule, max(shifted.values))
    n = min(bott.workers, _usable_cpus(), len(ds))
    children = []
    try:
        for i in range(1, n):
            children.append((ds[i::n], *_fork_sum(plan, ds[i::n])))
        sums = _sum_chunk(plan, ds[::n])
    finally:
        parts = [(part, *_reap(pid, read)) for part, pid, read in children]
    for part in parts:
        sums.update(_result(*part))
    return {d: Fraction(sums[d], common) for d in ds}


def degree_nl(d, spec, points, workers=1):
    """Degree of the locus of degree-d surfaces containing an elliptic quartic."""
    return Bott(points, spec, workers).degree_range(d, d)[0]


def admissible_spec(bott, spec):
    """spec, once no tangent character of any of bott's points specializes
    to 0 under it.

    An inadmissible spec raises the ValueError of `Bott.denominators`,
    naming the spec, the first point at fault and its killed character;
    bott keeps the denominators of an admissible one.
    """
    bott.denominators(spec)
    return spec
