import math
import os
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from nlocus import fixpoints as fx
from nlocus import localization as loc
from nlocus.checks import elem_sym_dp
from nlocus.ideals import Ideal, reduce_gb, saturate_t, set_t_zero, standard_monomials
from nlocus.poly import Polynomial, mono_divides, monomials_of_degree
from nlocus.torus import DEFAULT_WEIGHTS, WeightSpec, specialize


def deformation_ideal(other, q, mp):
    """<x^other, x^q + t*x^mp> as an Ideal, the input of the saturation oracle."""
    return Ideal([Polynomial.monomial(other + (0,)), Polynomial({q + (0,): 1, mp + (1,): 1})])


class _TornFile:
    """A file open for writing that takes its first `keep` bytes, then raises
    `error`, as a full disk or a killed writer leaves it."""

    def __init__(self, file, keep, error):
        self.file, self.keep, self.error = file, keep, error

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def write(self, data):
        self.file.write(data[: self.keep])
        self.keep -= len(data)
        if self.keep < 0:
            raise self.error
        return len(data)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


def tear_writes(monkeypatch, keep, error):
    """Every file that `Path.open` opens for writing takes its first `keep`
    bytes and then raises `error`; files opened for reading are untouched."""
    real = Path.open

    def torn_open(self, mode="r", *args, **kwargs):
        file = real(self, mode, *args, **kwargs)
        return _TornFile(file, keep, error) if "w" in mode else file

    monkeypatch.setattr(Path, "open", torn_open)


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


@pytest.fixture
def two_cpus(monkeypatch):
    """The Bott sums see two usable CPUs, so on any machine a pass over two
    or more degrees with workers=2 forks one child, and a single degree none."""
    monkeypatch.setattr(loc, "_usable_cpus", lambda: 2)


@pytest.fixture
def forked(monkeypatch):
    """The pids os.fork returns to this process, in order."""
    pids = []
    real = os.fork

    def counted():
        pid = real()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def one_cpu(monkeypatch):
    """The Bott sums see one usable CPU, as under `taskset -c 0`, and a fork
    fails the test."""

    def no_fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(loc, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)


@pytest.fixture(scope="session")
def saturation_limit():
    """The Buchberger route to an E1 flat limit, the oracle of `limits.e1_limit`.

    saturation_limit(other, q, mp, saturate=saturate_t) saturates the deformed
    pencil <x^other, x^q + t*x^mp> in t, sets t = 0 and reduces, requires
    the reduced basis to be monomial, and returns {d: the frozenset of
    degree-d monomials of its leading-term ideal} for d = 2..5, the shape
    `e1_limit` returns.
    """

    def limit(other, q, mp, saturate=saturate_t):
        gb = reduce_gb(set_t_zero(saturate(deformation_ideal(other, q, mp))))
        assert all(g.is_monomial() for g in gb.basis), gb.basis
        lead = [m[:4] for m in gb.leading_terms]
        monomials = {d: [m[:4] for m in monomials_of_degree(d)] for d in range(2, 6)}
        return {
            d: frozenset(m for m in monos if any(mono_divides(lt, m) for lt in lead))
            for d, monos in monomials.items()
        }

    return limit


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
            out += Fraction(numerator, math.prod(specialize(c, spec) for c in fp.tangent))
        return out

    return total
