"""The exact-answer gates reject wrong output, and the metric lists agree."""

import json

import run


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_quartic_gate():
    assert run._check_quartic("deg NL(W,4) = 38475\n  weights=(0, 1, 5, 18)\n", []) is None
    assert run._check_quartic("deg NL(W,4) = 38476\n", []) is not None
    assert run._check_quartic("", []) is not None


def _closed_form_nodes(bump=0):
    from nlocus.formula import closed_form

    f = closed_form()
    return [[d, str(f(d) + (bump if d == 30 else 0))] for d in range(run.DMIN, run.DMAX + 1)]


def _formula_output(match=True, bump=0):
    return json.dumps({"nodes": _closed_form_nodes(bump), "match": match}) + "\n"


def test_formula_gate():
    nodes = _closed_form_nodes()
    assert run._check_formula(_formula_output(), nodes) is None
    assert run._check_formula(_formula_output(match=False), nodes) is not None
    assert run._check_formula(_formula_output(bump=1), nodes) is not None
    assert run._check_formula("Traceback\n", nodes) is not None


def test_verify_gate():
    passing = "".join(f"PASS {name}\n" for name in run.VERIFY_CHECKS) + "verify: ok\n"
    assert run._check_verify(passing, []) is None
    failing = passing.replace("PASS d4-target", "FAIL d4-target: boom")
    assert "d4-target" in run._check_verify(failing, [])
