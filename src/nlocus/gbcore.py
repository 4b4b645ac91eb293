"""Buchberger engine over exponent-tuple polynomials.

Polynomials here are bare dicts {exponent tuple: Fraction}; the term order is
supplied as a sort-key function on exponent tuples, so the same code serves
the package's 5-variable grevlex order (`poly.mono_key`) and the 6-variable
block order that saturates in t by eliminating an auxiliary variable s.

Every basis element is made monic once, when it enters the basis, and is
kept as its leading monomial and its tail (the other terms).  A reduction
step is then work[m'] -= c * g[m] on the working dict, in place and with no
division, and the cancelled leading term is popped, never recomputed.

Pairs are taken in order of their lcm (the normal strategy), and a pair
whose leading terms are coprime is skipped, since its S-polynomial reduces
to zero (Buchberger's first criterion).
"""

from fractions import Fraction

from .poly import mono_div, mono_divides, mono_key, mono_mul

_ONE = Fraction(1)


def key6(m):
    """Block order (s, x0, x1, x2, x3, t) eliminating the auxiliary first variable s."""
    return (m[0],) + mono_key(m[1:])


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


def _monic(f, key):
    """(leading monomial, tail) of f divided by its leading coefficient."""
    m = max(f, key=key)
    c = f[m]
    return m, [(mm, v / c) for mm, v in f.items() if mm != m]


def normal_form(f, basis, key, lead=None):
    """Full remainder of f under division by basis (tails reduced too).

    lead, when given, stands for basis as the (leading monomial, tail) pairs
    of its monic elements.
    """
    if lead is None:
        lead = [_monic(g, key) for g in basis if g]
    remainder = {}
    work = dict(f)
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for ltm, tail in lead:
            if mono_divides(ltm, m):
                shift = mono_div(m, ltm)
                for gm, gc in tail:
                    mm = mono_mul(gm, shift)
                    v = work.get(mm, 0) - c * gc
                    if v:
                        work[mm] = v
                    else:
                        del work[mm]
                break
        else:
            remainder[m] = c
    return remainder


def _spoly(f, g, lcm):
    """S-polynomial of two monic elements given as (leading monomial, tail)."""
    (mf, tf), (mg, tg) = f, g
    sf, sg = mono_div(lcm, mf), mono_div(lcm, mg)
    s = {mono_mul(m, sf): c for m, c in tf}
    for m, c in tg:
        mm = mono_mul(m, sg)
        v = s.get(mm, 0) - c
        if v:
            s[mm] = v
        else:
            del s[mm]
    return s


def groebner(gens, key):
    """Reduced Groebner basis (monic, inter-reduced, sorted by leading term)."""
    from heapq import heappop, heappush  # only here: no command computes a basis

    lead = []
    for g in gens:
        g = {m: c for m, c in g.items() if c}
        if g:
            lead.append(_monic(g, key))
    if not lead:
        return []

    heap = []

    def add_pairs(k):
        lt_k = lead[k][0]
        for l in range(k):
            lcm = _mono_lcm(lead[l][0], lt_k)
            heappush(heap, (key(lcm), l, k, lcm))

    for k in range(len(lead)):
        add_pairs(k)
    while heap:
        _, i, j, lcm = heappop(heap)
        if mono_mul(lead[i][0], lead[j][0]) == lcm:
            continue  # coprime leading terms: S-polynomial reduces to zero
        r = normal_form(_spoly(lead[i], lead[j], lcm), None, key, lead)
        if r:
            lead.append(_monic(r, key))
            add_pairs(len(lead) - 1)
    return reduce_basis(lead, key)


def reduce_basis(lead, key):
    """The unique reduced basis of a monic Groebner basis given as lead pairs."""
    # drop elements whose leading term is divisible by another's
    keep = [
        (m, tail)
        for i, (m, tail) in enumerate(lead)
        if not any(
            j != i and mono_divides(mj, m) and (mj != m or j < i)
            for j, (mj, _) in enumerate(lead)
        )
    ]
    # reduce each survivor's tail against the others; its leading term is
    # divisible by none of theirs, so it stays with coefficient 1
    reduced = []
    for i, (m, tail) in enumerate(keep):
        g = {m: _ONE}
        g.update(normal_form(dict(tail), None, key, keep[:i] + keep[i + 1 :]))
        reduced.append(g)
    reduced.sort(key=lambda g: key(next(iter(g))))
    return reduced
