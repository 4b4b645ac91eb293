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
chunk are built from few distinct cells.  The cells with no monomial at any
d of the sum are left out once, and each other distinct cell is expanded
once per d into specialized weights.  e_16 is `torus.shared_products`, the
package's one Kronecker-packed product, shared between points: each point
starts from the product of the cells it has in common with the point
visited before it, and a long cell that the product meets again enters
through its 16 elementary symmetric coefficients, not weight by weight.
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
from .ideals import staircase_runs
from .torus import WeightSpec, shared_products, specialize

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


def _cell_weights(cell, d, values):
    """Specialized weights of the degree-d monomials of one staircase cell.

    Each run of monomials start + n*step specializes to the arithmetic
    progression start.w + n*(step.w), so no monomial is built.
    """
    w0, w1, w2, w3 = values
    out = []
    for (a0, a1, a2, a3), (s0, s1, s2, s3), count in staircase_runs([cell], d):
        v = a0 * w0 + a1 * w1 + a2 * w2 + a3 * w3
        if count == 1:
            out.append(v)
        else:
            step = s0 * w0 + s1 * w1 + s2 * w2 + s3 * w3
            out.extend(range(v, v + count * step, step))
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


def _sum_chunk(points, ds, spec):
    """Bott sums of a run of points for each d, over the chunk's common denominator.

    The points share one Kronecker pass per d (`torus.shared_products`).  The
    chunk's distinct staircase cells are numbered once, longest first (their
    number of degree-max(ds) monomials, ties by the cell).  A cell with no
    monomial at any d in ds is dead: it gets no number and is fed to no
    pass, and `_check_rank` at each d fails if a live cell were dropped.  At
    each d every numbered cell is expanded once into specialized weights.
    Each point is the sorted list of its live cells' numbers, and the points
    are visited in lexicographic order of those lists, so that a point
    shares its longest cells with the point before it.

    The numerators are taken under spec shifted to a zero minimum (see the
    module docstring); the denominators are equal under either spec.
    """
    common, _, scales = _common_denominator(points, spec)
    low = min(spec.values)
    shifted = WeightSpec(v - low for v in spec.values)
    top = max(ds)
    distinct = {cell for fp in points for cell in fp.cells}
    at_top = {cell: sum(n for _, _, n in staircase_runs([cell], top)) for cell in distinct}
    cells = sorted(
        (c for c, n in at_top.items() if n or any(staircase_runs([c], d) for d in ds)),
        key=lambda cell: (-at_top[cell], cell),
    )
    number = {cell: n for n, cell in enumerate(cells)}
    seqs = [sorted(number[c] for c in fp.cells if c in number) for fp in points]
    visits = sorted(range(len(points)), key=seqs.__getitem__)
    ordered = [seqs[p] for p in visits]
    plucker = [-sum(specialize(c, shifted) for c in fp.pencil_chars) for fp in points]
    sums = {}
    weights = [()] * len(cells)
    for d in ds:
        # in place, so that one degree's weights are alive at a time
        for c, cell in enumerate(cells):
            weights[c] = _cell_weights(cell, d, shifted.values)
        lengths = [len(w) for w in weights]
        for fp, seq in zip(points, seqs):
            _check_rank(fp, d, sum(map(lengths.__getitem__, seq)))
        acc = 0
        for p, (e16, e15) in zip(visits, shared_products(DIM, ordered, weights)):
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
