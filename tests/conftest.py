import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from nlocus import fixpoints as fx
from nlocus import localization as loc
from nlocus.checks import elem_sym_dp
from nlocus.ideals import standard_monomials
from nlocus.torus import DEFAULT_WEIGHTS, WeightSpec, specialize


@pytest.fixture(scope="session")
def cascade():
    """The full fixed-point cascade with its intermediate strata kept."""
    pairs = fx.enumerate_pairs()
    g2, zs = fx.split_strata(pairs)
    records = []
    g2e1, ws = [], []
    for zi, z in enumerate(zs):
        for record in fx.e1_points(z):
            records.append((zi, record))
            out = fx.classify_e1(record, z, zi)
            if isinstance(out, fx.FixedPoint):
                g2e1.append(out)
            else:
                ws.append(out)
    e2 = [p for wi, w in enumerate(ws) for p in fx.e2_points(w, wi)]
    return SimpleNamespace(
        pairs=pairs,
        g2=g2,
        zs=zs,
        records=records,
        g2e1=g2e1,
        ws=ws,
        e2=e2,
        points=g2 + g2e1 + e2,
    )


@pytest.fixture(scope="session")
def points(cascade):
    return cascade.points


@pytest.fixture(scope="session")
def weights():
    return DEFAULT_WEIGHTS



@pytest.fixture(scope="session")
def unshared_sum(points):
    """A Bott sum that shares nothing with the production kernel.

    unshared_sum(d, spec, twist, some=points) sums, over the points, e_16 of
    the point's own degree-d fiber, or the Pluecker weight times e_15 with
    twist, over math.prod of its tangent values.  The fiber is derived from
    the point's quartics (`ideals.standard_monomials`), not from its cells;
    e_k is `checks.elem_sym_dp`, under spec shifted to a zero minimum.
    """
    fibers = {}

    def total(d, spec, twist, some=points):
        low = min(spec.values)
        shifted = WeightSpec(v - low for v in spec.values)
        out = Fraction(0)
        for fp in some:
            if (fp, d) not in fibers:
                fibers[fp, d] = standard_monomials(fp.quartics, d)
            values = [specialize(c, shifted) for c in fibers[fp, d]]
            if twist:
                plucker = -sum(specialize(c, shifted) for c in fp.pencil_chars)
                numerator = plucker * elem_sym_dp(15, values)
            else:
                numerator = elem_sym_dp(16, values)
            out += Fraction(numerator, math.prod(loc._tangent_values(fp, spec)))
        return out

    return total
