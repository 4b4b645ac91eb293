"""Torus-character calculus.

A character is an integer 4-vector: the weight with which the torus of P^3
scales a one-dimensional eigenspace.  The character of a monomial is its
exponent vector; the character of a ratio of monomials is the difference.
A tangent space or bundle fiber is a multiset of characters: a fixed point
carries the sorted tuple of its 16 tangent characters, repeats included.
The blow-up cascade does its multiset arithmetic, containment and
difference, with `collections.Counter` at the centres only (the pencils
and the points of the two blow-up loci, from `grass_tangent`); each point
over a centre gets its sorted tuple from the centre's characters in one
list and one sort (`blowup_tangent`).

Chern classes of a specialized multiset are elementary symmetric functions of
its integer weights.  `shared_products` is the one routine that computes
them: Kronecker substitution, one big-integer product (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", JSC 2009),
over many multisets that share prefixes.  The Bott sums (`localization`)
pass it every fixed point's fiber at once, shifted to non-negative weights,
and `elem_sym` is its one-multiset case.  The caller bounds every
multiset's weight sum, which sets the Kronecker width: the Bott sums know
theirs before any weight is read (4d weights of a degree-d monomial each),
and `elem_sym` passes its values' sum.  The order of the visits, what
each visit shares with the one before and which lists are applied more
than once do not depend on the weights: `visit_schedule` works them out
once, and every call with that schedule runs only Kronecker steps.  A
list of more than k weights that the schedule applies more than once goes
in through its k elementary symmetric coefficients from its first
application on, k shifted products in place of one per weight, so the
cost of a repeated cell does not grow with d; the docstring of
`shared_products` gives the rule and why it is exact.
"""

import math
import operator
from collections import Counter


_ZERO = (0, 0, 0, 0)


def char_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def char_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


class WeightSpec:
    """Integer values assigned to x0..x3; must be pairwise distinct.

    A spec is admissible for a set of fixed points when no character of any
    point's `tangent` specializes to zero (they are the Bott denominators):
    `localization.admissible_spec` returns the spec or raises an error
    naming the point and character at fault, and `check_generic` is the
    same test as a boolean.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        ints = []
        for v in values:
            try:
                ints.append(operator.index(v))
            except TypeError:
                raise ValueError(f"weight spec values must be integers, got {v!r}") from None
        values = tuple(ints)
        if len(values) != 4:
            raise ValueError("weight spec needs exactly 4 values")
        if len(set(values)) != 4:
            raise ValueError(f"weight spec values must be pairwise distinct: {values}")
        object.__setattr__(self, "values", values)

    def __setattr__(self, *_):
        raise AttributeError("WeightSpec is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not WeightSpec:
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"WeightSpec(values={self.values!r})"

    def __reduce__(self):
        return WeightSpec, (self.values,)


DEFAULT_WEIGHTS = WeightSpec((0, 1, 5, 18))
# The alternate spec that checks.spec_independence compares against.
FALLBACK_WEIGHTS = WeightSpec((0, 1, 7, 23))


def specialize(c, spec):
    """Dot product of a character with the spec values."""
    v = spec.values
    return c[0] * v[0] + c[1] * v[1] + c[2] * v[2] + c[3] * v[3]


def _elements(bag):
    """The characters of a multiset, repeats included, as a new list: a
    Counter by multiplicity, any other iterable as it comes."""
    return list(bag.elements() if isinstance(bag, Counter) else bag)


def grass_tangent(sub, ambient):
    """Tangent characters of a Grassmannian at a coordinate subspace, as a Counter.

    sub and ambient are multisets of characters (iterables, repeats
    included, or Counters).  Hom(sub, ambient/sub) decomposes into lines of
    character q - a for q ranging over ambient minus sub and a over sub; the
    result has total |sub| * (|ambient| - |sub|).  The Counter is the only
    one built.
    """
    sub, rest = _elements(sub), _elements(ambient)
    for a in sub:
        if a not in rest:
            raise ValueError("sub is not contained in ambient")
        rest.remove(a)
    return Counter([char_sub(q, a) for q in rest for a in sub])


def blowup_tangent(base, normal, e):
    """Tangent characters at a fixed point of the exceptional divisor, as a
    sorted tuple, repeats included.

    base and normal are iterables of the base tangent and normal characters,
    repeats included.  For the normal direction e, the fiber directions
    contribute n - e for every other normal character n (one copy of e is
    the direction itself), the base tangent comes along, and e itself is the
    normal direction of the exceptional divisor.  Total size is preserved.
    The characters are gathered in one list and sorted once.
    """
    out = [char_sub(n, e) for n in normal]
    try:
        out.remove(_ZERO)  # e - e: one copy of e is the direction, not a fiber line
    except ValueError:
        raise ValueError(f"direction {e} is not a normal character") from None
    out += base
    out.append(e)
    out.sort()
    return tuple(out)


def kronecker_width(k, s):
    """Digit width W for packing e_0..e_k of non-negative integers summing to s.

    Every product of j distinct values appears j! times in the expansion of
    s^j, so e_j <= s^j / j!.  s^j / j! grows with j while j < s and falls
    after, so over j = 0..k it is largest at m = min(k, s).  An integer
    e_j <= s^m / m! is at most s^m // m!, so every e_j, j <= k, lies in
    [0, 2^W) for W = (s^m // m!).bit_length().  The bound grows with s: it
    also holds for e_j of any sub-multiset of the values, such as a prefix,
    and for any values whose sum is at most s.
    """
    m = min(k, s)
    return (s**m // math.factorial(m)).bit_length()


def _coefficients(k, values):
    """[e_1, ..., e_k] of the non-negative integers in values.

    One pass of the Kronecker step r += v * (r >> w) at the width w of
    values' own sum, then the k digits below the top one.
    """
    width = kronecker_width(k, sum(values))
    r = 1 << (k * width)
    for v in values:
        r += v * (r >> width)
    mask = (1 << width) - 1
    return [(r >> (width * (k - i))) & mask for i in range(1, k + 1)]


def visit_schedule(seqs):
    """The visits of index sequences taken in order, planned once for any weights.

    Returns (steps, repeated).  steps[i] is (n, tail): n is the length of
    the prefix that seqs[i] shares with seqs[i - 1] (0 for the first) and
    tail the indices after it, the ones visit i applies.  repeated is the
    sorted tuple of the indices that the tails apply more than once.
    """
    steps = []
    seen, repeated = set(), set()
    before = ()
    for seq in seqs:
        n = 0
        for a, b in zip(before, seq):
            if a != b:
                break
            n += 1
        tail = tuple(seq[n:])
        for c in tail:
            if c in seen:
                repeated.add(c)
            else:
                seen.add(c)
        steps.append((n, tail))
        before = seq
    return steps, tuple(sorted(repeated))


def shared_products(k, schedule, weights, largest):
    """(e_k, e_(k-1)) of each visited sequence's weights, sharing common prefixes.

    A generator: the pairs come in the order of the visits, each as soon as
    its visit is done, so a caller that adds them up holds none of them.

    weights is a list of lists of non-negative integers, and schedule is
    `visit_schedule` of index sequences into it: the multiset of a
    sequence is the concatenation of its lists.  Sequences that share
    prefixes should follow one another.

    Kronecker substitution in reversed digits: r = sum_j e_j * 2^(W*(k-j)),
    so e_k is the lowest digit and e_(k-1) the next (0 when k = 0).
    Multiplying by (1 + v*z) sends e_j to e_j + v*e_(j-1), and r >> W moves
    every e_j down to the digit of e_(j+1), so the step is r += v * (r >> W).
    A stack keeps the product after each index of the sequence before, so
    visit i starts from the product of the prefix its step shares and
    applies only its tail.  One width serves every sequence,
    `kronecker_width(k, largest)`, where largest is the caller's bound on
    every visited sequence's weight sum, which this call does not scan
    for: every stack state packs e_0..e_k of a sub-multiset of some
    sequence, whose sum is at most largest, so no digit reaches 2^W.  A
    bound below some sequence's sum breaks that and its results.

    A list of more than k weights that the schedule applies more than once
    (one of its repeated indices) is applied, from its first application
    on, through its coefficients c_i = e_i(list), i = 1..k, derived once
    per call at the list's own width (`_coefficients`):
    r += sum_i c_i * (r >> i*W).  This is exact.  r >> i*W drops exactly
    the lowest i digits, since no digit of r carries, and moves e_j(P) of
    the prefix multiset P to the digit of e_(j+i).  The digit of e_m becomes
    e_m(P) + sum_i c_i * e_(m-i)(P) = e_m(P + list), an e_m of a
    sub-multiset of some sequence, which the width bound keeps below 2^W:
    no carry occurs.  Every other list goes in weight by weight, so a list
    applied once costs no derivation.
    """
    steps, repeated = schedule
    width = kronecker_width(k, largest)
    mask = (1 << width) - 1
    coeffs = [None] * len(weights)
    for c in repeated:
        if len(weights[c]) > k:
            coeffs[c] = _coefficients(k, weights[c])
    stack = [1 << (k * width)]
    for n, tail in steps:
        del stack[n + 1 :]
        r = stack[n]
        for c in tail:
            cs = coeffs[c]
            if cs is None:
                for v in weights[c]:
                    r += v * (r >> width)
            else:
                t = r
                for ci in cs:
                    t >>= width
                    r += ci * t
            stack.append(r)
        yield r & mask, (r >> width) & mask


def elem_sym(k, values):
    """k-th elementary symmetric function of the non-negative integers in values.

    `shared_products` of a one-step schedule that applies values once,
    bounded by their sum.  A negative value breaks that bound and raises
    ValueError.
    """
    n = len(values)
    if k < 0 or k > n:
        raise ValueError(f"elementary symmetric index {k} out of range 0..{n}")
    if values and min(values) < 0:
        raise ValueError(f"elem_sym needs non-negative values, got {min(values)}")
    return next(shared_products(k, ([(0, (0,))], ()), [values], sum(values)))[0]


def check_generic(spec, tangent_bags):
    """True iff no character in any of the tangents specializes to zero.

    Each tangent is any iterable of characters, such as `FixedPoint.tangent`.
    """
    return all(specialize(c, spec) for bag in tangent_bags for c in bag)
