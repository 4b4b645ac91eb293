from types import SimpleNamespace

import pytest

from nlocus import fixpoints as fx
from nlocus.torus import DEFAULT_WEIGHTS


@pytest.fixture(scope="session")
def cascade():
    """The full fixed-point cascade with its intermediate strata kept."""
    pairs = fx.enumerate_pairs()
    g2, zs = fx.split_strata(pairs)
    records = []
    g2e1, ws = [], []
    for zi, z in enumerate(zs):
        pair = pairs[z.pair_index]
        for record in fx.e1_points(z):
            records.append((zi, record))
            out = fx.classify_e1(record, z, pair, zi)
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
def started_pools(monkeypatch):
    """The list of pools `multiprocessing.Pool` starts during the test."""
    import multiprocessing

    started = []
    real = multiprocessing.Pool

    def counted(*args, **kwargs):
        started.append(real(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(multiprocessing, "Pool", counted)
    return started
