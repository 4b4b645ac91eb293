"""The seed-to-spec generator, and answers that do not depend on the spec."""

import json

import run
import specs
from nlocus.torus import WeightSpec, check_generic

SEEDS = range(12)


def test_seed_zero_is_the_cli_default():
    assert next(specs.candidates(0)) == (0, 1, 5, 18)


def test_specs_are_deterministic_per_seed(points):
    first = [specs.spec_for_seed(s, points) for s in SEEDS]
    again = [specs.spec_for_seed(s, points) for s in SEEDS]
    assert first == again
    assert first[0] == specs.DEFAULT
    assert len(set(first)) >= 3


def test_specs_are_admissible_with_the_default_sum(points):
    bags = [fp.tangent for fp in points]
    for seed in SEEDS:
        values = specs.spec_for_seed(seed, points)
        assert check_generic(WeightSpec(values), bags)
        assert len(set(values)) == 4
        assert min(values) == 0 and sum(values) == specs.TOTAL


def _answers(workload, seed, bench_setup, tmp_path):
    weights, nodes = run.oracle(bench_setup.cache, seed)
    stem = tmp_path / f"{workload.name}-{seed}"
    sample = run.run_once(
        workload, weights, nodes, bench_setup.cache, stem, run.time.perf_counter() + 170
    )
    assert sample.ok, sample.error
    return weights, (tmp_path / f"{stem.name}.out").read_text()


def test_two_seeds_give_identical_quartic_answer(bench_setup, tmp_path):
    w0, out0 = _answers(run.WORKLOADS["quartic-cold"], 0, bench_setup, tmp_path)
    w1, out1 = _answers(run.WORKLOADS["quartic-cold"], 1, bench_setup, tmp_path)
    assert w0 != w1
    assert out0.splitlines()[0] == out1.splitlines()[0] == run.QUARTIC_ANSWER


def test_two_seeds_give_identical_formula(bench_setup, tmp_path):
    w0, out0 = _answers(run.WORKLOADS["formula-warm"], 0, bench_setup, tmp_path)
    w1, out1 = _answers(run.WORKLOADS["formula-warm"], 1, bench_setup, tmp_path)
    assert w0 != w1
    doc0, doc1 = json.loads(out0), json.loads(out1)
    assert doc0["nodes"] == doc1["nodes"]
    assert doc0["coefficients"] == doc1["coefficients"]
