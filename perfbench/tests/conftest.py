import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import run  # noqa: E402


@pytest.fixture(scope="session")
def bench_setup(tmp_path_factory):
    """One cold setup run (the cache the warm workloads load), in a temp dir."""
    saved = run.OUT
    run.OUT = tmp_path_factory.mktemp("perfbench")
    (run.OUT / "work").mkdir()
    (run.OUT / "results").mkdir()
    try:
        yield run.setup(0, run.time.perf_counter() + run.RUN_LIMIT_S)
    finally:
        run.OUT = saved


@pytest.fixture(scope="session")
def points(bench_setup):
    from nlocus.fixpoints import load_cache

    return load_cache(bench_setup.cache)
