"""Buchberger engine over exponent-tuple polynomials.

Polynomials here are bare dicts {exponent tuple: Fraction}; the term order is
supplied as a sort-key function on exponent tuples, so the same code serves
the package's 5-variable grevlex order and the 6-variable block order that
saturates in t by eliminating an auxiliary variable s.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush

from .poly import mono_div, mono_divides, mono_mul


def key5(m):
    """Graded reverse-lexicographic key on (x0,x1,x2,x3,t)."""
    return (m[0] + m[1] + m[2] + m[3] + m[4], -m[4], -m[3], -m[2], -m[1], -m[0])


def key6(m):
    """Block order (s, x0, x1, x2, x3, t) eliminating the auxiliary first variable s."""
    return (m[0],) + key5(m[1:])


def _lt(f, key):
    m = max(f, key=key)
    return m, f[m]


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_scaled(f, g, c, shift):
    """f - c * shift * g, in place on a copy of f."""
    res = dict(f)
    for m, gc in g.items():
        mm = mono_mul(m, shift)
        s = res.get(mm, 0) - c * gc
        if s:
            res[mm] = s
        elif mm in res:
            del res[mm]
    return res


def normal_form(f, basis, key, lead=None):
    """Full remainder of f under division by basis (tails reduced too)."""
    if lead is None:
        lead = [(_lt(g, key)[0], g) for g in basis if g]
    remainder = {}
    work = dict(f)
    while work:
        m = max(work, key=key)
        c = work[m]
        for ltm, g in lead:
            if mono_divides(ltm, m):
                shift = mono_div(m, ltm)
                work = _sub_scaled(work, g, c / g[ltm], shift)
                break
        else:
            remainder[m] = c
            del work[m]
    return remainder


def _spoly(f, g, key):
    mf, cf = _lt(f, key)
    mg, cg = _lt(g, key)
    lcm = _mono_lcm(mf, mg)
    a = _sub_scaled({}, f, Fraction(-1, 1) / cf, mono_div(lcm, mf))
    return _sub_scaled(a, g, Fraction(1, 1) / cg, mono_div(lcm, mg))


def groebner(gens, key):
    """Reduced Groebner basis (monic, inter-reduced, sorted by leading term)."""
    basis = []
    lts = []
    for g in gens:
        g = {m: c for m, c in g.items() if c}
        if g:
            m, c = _lt(g, key)
            basis.append({mm: v / c for mm, v in g.items()})
            lts.append(m)
    if not basis:
        return []

    lead = list(zip(lts, basis))
    heap = []
    for k in range(len(basis)):
        for l in range(k):
            lcm = _mono_lcm(lts[k], lts[l])
            heappush(heap, (key(lcm), l, k, lcm))
    while heap:
        _, i, j, lcm = heappop(heap)
        if mono_mul(lts[i], lts[j]) == lcm:
            continue  # coprime leading terms: S-polynomial reduces to zero
        r = normal_form(_spoly(basis[i], basis[j], key), basis, key, lead)
        if r:
            m, c = _lt(r, key)
            r = {mm: v / c for mm, v in r.items()}
            k = len(basis)
            basis.append(r)
            lts.append(m)
            lead.append((m, r))
            for l in range(k):
                lcm = _mono_lcm(m, lts[l])
                heappush(heap, (key(lcm), l, k, lcm))
    return reduce_basis(basis, key)


def reduce_basis(basis, key):
    """Inter-reduce a Groebner basis to the unique reduced one."""
    # drop elements whose leading term is divisible by another's
    lts = [_lt(g, key)[0] for g in basis]
    keep = []
    for i, m in enumerate(lts):
        redundant = False
        for j, mj in enumerate(lts):
            if i == j:
                continue
            if mono_divides(mj, m) and (mj != m or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(basis[i])
    # fully reduce each survivor against the others
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(g, others, key)
        if r:
            _, c = _lt(r, key)
            reduced.append({m: v / c for m, v in r.items()})
    reduced.sort(key=lambda g: key(_lt(g, key)[0]))
    return reduced
