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
chunk are built from few distinct cells, so each distinct cell is expanded
once per d into specialized weights, and e_16 is a Kronecker-packed product
(as in `torus.elem_sym`) shared between points: each point starts from the
product of the cells it has in common with the point visited before it
(`_shared_products`).  The summands of a chunk are added as integers over
the lcm of their tangent denominators, one Fraction per d.

With more than one worker, the pool receives the points once, through its
initializer, and each job is an index range of them (`_sum_slice`).  Under
the fork start method nothing is pickled; under spawn or forkserver the
points are pickled once per worker, with the cells they have derived.

The process keeps one pool.  The first sum with more than one worker starts
it, and every later sum over the same points list (compared with `is`, and
still holding the same point objects) with the same worker count reuses it,
so `nlocus verify --threads N` starts one pool for its four sums.  A sum
over another list or with another worker count terminates the kept pool and
starts a new one.  One `atexit` hook, registered when a pool starts,
terminates the last pool.  The workers see the module state and the points
from the moment their pool started: a test that patches this module and
then sums with more than one worker must pass a fresh points list.
"""

from __future__ import annotations

import atexit
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .fixpoints import StructuralError
from .ideals import cells_standard_monomials, staircase_runs
from .torus import WeightSpec, kronecker_width, specialize

DIM = 16  # dimension of the blown-up parameter space


@dataclass(frozen=True)
class DegreeResult:
    d: int
    degree: int
    spec: WeightSpec
    fixpoint_count: int

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


def ed_weights(fp, d):
    """Characters of the degree-d standard monomials: the rank-4d fiber.

    These are the degree-d monomials surviving modulo the quartic system,
    checked to number 4d: a sorted list of 4d distinct characters.
    """
    if d < 4:
        raise ValueError(f"fiber weights need d >= 4, got {d}")
    std = cells_standard_monomials(fp.cells, d)
    _check_rank(fp, d, len(std))
    return sorted(std)


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


def _tangent_values(fp, spec):
    """The 16 tangent characters of fp specialized under spec.

    A character that specializes to 0 is a zero Bott denominator: ValueError
    naming the spec, the point and the first such character.
    """
    values = [specialize(c, spec) for c in fp.tangent]
    if 0 in values:
        raise ValueError(
            f"weight spec {spec.values} is not admissible: tangent character"
            f" {fp.tangent[values.index(0)]} at {fp.tag}{fp.provenance} specializes to 0"
        )
    return values


def _tangent_denominator(fp, spec):
    """c_16 of the tangent space at fp, specialized; ValueError when it is 0."""
    return math.prod(_tangent_values(fp, spec))


def _common_denominator(points, spec):
    """The lcm of the tangent denominators, and each point's factor into it.

    Returns (common, dens, scales) with common = lcm |den_p| and
    scales[p] = common / den_p, so that sum(num_p / den_p) is
    sum(num_p * scales[p]) / common: one Fraction per sum.
    """
    dens = [_tangent_denominator(fp, spec) for fp in points]
    common = math.lcm(*dens)
    return common, dens, [common // den for den in dens]


def contribution(fp, d, spec):
    """One Bott summand for d >= 4: the numerator over c_16 of the tangent.

    The summand is taken under spec shifted to a zero minimum, like every
    Bott sum; a single summand depends on the shift, only the sums do not.
    """
    if d < 4:
        raise ValueError(f"fiber weights need d >= 4, got {d}")
    return _sum_chunk(([fp], [d], spec))[d]


def _shared_products(seqs, shared, weights):
    """(e_16, e_15) of each index sequence's weights, sharing common prefixes.

    weights is a list of lists of non-negative integers and seqs[i] a list
    of indices into it: the multiset of sequence i is the concatenation of
    those lists.  The first shared[i] indices of seqs[i] are those of
    seqs[i - 1].  The product is packed as in `torus.elem_sym`, e_j in
    base-2^W digit 16 - j and one r += v * (r >> W) per value, and a stack
    keeps the product after each index of the sequence before, so sequence
    i starts from the product of its shared prefix.

    One width serves every sequence: `kronecker_width` of the largest sum.
    Every stack state packs e_0..e_16 of a sub-multiset of some sequence,
    whose sum is at most the largest, so no digit carries.  e_16 is the
    lowest digit and e_15 the next one.
    """
    totals = [sum(w) for w in weights]
    largest = max((sum(map(totals.__getitem__, seq)) for seq in seqs), default=0)
    width = kronecker_width(DIM, largest)
    mask = (1 << width) - 1
    stack = [1 << (DIM * width)]
    out = []
    for seq, n in zip(seqs, shared):
        del stack[n + 1 :]
        r = stack[n]
        for c in seq[n:]:
            for v in weights[c]:
                r += v * (r >> width)
            stack.append(r)
        out.append((r & mask, (r >> width) & mask))
    return out


def _sum_chunk(args):
    """Bott sums of a run of points for each d, over the chunk's common denominator.

    The points share one Kronecker pass per d (`_shared_products`).  The
    chunk's distinct staircase cells are indexed once, and at each d every
    distinct cell is expanded once into specialized weights.  The cells are
    numbered by (number of the chunk's points that have the cell) x (its
    length at max(ds)), largest first; each point is the sorted list of its
    cells' numbers, and the points are visited in lexicographic order of
    those lists, so that points with a common prefix of cells follow one
    another.

    The numerators are taken under spec shifted to a zero minimum (see the
    module docstring); the denominators are equal under either spec.
    """
    points, ds, spec = args
    common, _, scales = _common_denominator(points, spec)
    low = min(spec.values)
    shifted = WeightSpec(v - low for v in spec.values)
    index = {}
    seqs = [
        [index.setdefault(cell, len(index)) for cell in fp.cells] for fp in points
    ]
    cells = list(index)
    top = max(ds)
    top_weights = [_cell_weights(cell, top, shifted.values) for cell in cells]
    points_with = Counter(itertools.chain.from_iterable(seqs))
    ranked = sorted(
        range(len(cells)), key=lambda c: (-points_with[c] * len(top_weights[c]), c)
    )
    number = {c: n for n, c in enumerate(ranked)}
    cells = [cells[c] for c in ranked]
    top_weights = [top_weights[c] for c in ranked]
    seqs = [sorted(map(number.__getitem__, seq)) for seq in seqs]
    visits = sorted(range(len(points)), key=seqs.__getitem__)
    ordered = [seqs[p] for p in visits]
    shared = [0] * len(ordered)
    for i in range(1, len(ordered)):
        for a, b in zip(ordered[i - 1], ordered[i]):
            if a != b:
                break
            shared[i] += 1
    plucker = [-sum(specialize(c, shifted) for c in fp.pencil_chars) for fp in points]
    sums = {}
    for d in ds:
        weights = (
            top_weights
            if d == top
            else [_cell_weights(cell, d, shifted.values) for cell in cells]
        )
        lengths = [len(w) for w in weights]
        for fp, seq in zip(points, seqs):
            _check_rank(fp, d, sum(map(lengths.__getitem__, seq)))
        acc = 0
        for p, (e16, e15) in zip(visits, _shared_products(ordered, shared, weights)):
            acc += (e16 if d > 4 else plucker[p] * e15) * scales[p]
        sums[d] = Fraction(acc, common)
    return sums


_worker_points = None  # the points of a pool worker, set by _share_points
_kept = None  # (pool, workers, points, tuple of the points) of the kept pool


def _share_points(points):
    """Pool initializer: keep the points of the sum in the worker."""
    global _worker_points
    _worker_points = points


def _sum_slice(args):
    """`_sum_chunk` on the worker's points start:stop."""
    start, stop, ds, spec = args
    return _sum_chunk((_worker_points[start:stop], ds, spec))


def _drop_pool():
    """Terminate the kept pool, if any."""
    global _kept
    if _kept is not None:
        _kept[0].terminate()
        _kept = None


def _pool(points, workers):
    """The kept pool of `workers` processes holding points, started if need be.

    It is reused when points is the list it was started with and still holds
    the same objects; otherwise it is replaced.
    """
    global _kept
    if _kept is not None:
        pool, n, kept, snapshot = _kept
        if (
            n == workers
            and kept is points
            and len(points) == len(snapshot)
            and all(map(operator.is_, points, snapshot))
        ):
            return pool
        _drop_pool()
    import multiprocessing  # only here: a one-worker run need not load it

    pool = multiprocessing.Pool(workers, _share_points, (points,))
    _kept = (pool, workers, points, tuple(points))
    atexit.unregister(_drop_pool)  # one registration however many pools start
    atexit.register(_drop_pool)
    return pool


def _localize(points, ds, spec, workers):
    """Exact Bott sums for each degree in ds (4 means the Pluecker-twisted sum)."""
    if workers <= 1 or len(points) < 2 * workers:
        return _sum_chunk((points, ds, spec))
    chunk = (len(points) + workers - 1) // workers
    jobs = [(i, i + chunk, ds, spec) for i in range(0, len(points), chunk)]
    parts = _pool(points, workers).map(_sum_slice, jobs)
    totals = {d: Fraction(0) for d in ds}
    for part in parts:
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

    An inadmissible spec raises the ValueError of `_tangent_values`, naming
    the spec, the first point at fault and its killed character.  Nothing is
    multiplied out: the Bott sums form the denominators themselves.
    """
    for fp in points:
        _tangent_values(fp, spec)
    return spec
