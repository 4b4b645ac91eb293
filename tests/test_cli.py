import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from nlocus import checks
from nlocus import fixpoints as fx
from nlocus import localization as loc
from nlocus.cli import main
from nlocus.formula import closed_form

# The PASS lines the benchmark's verify-warm workload requires, in order.
VERIFY_CHECKS = (
    "euler-census",
    "rank-invariants",
    "hilbert-oracles",
    "localization-self-test",
    "d4-target",
    "d5-cross-check",
    "spec-independence",
    "algebra-kernel",
)


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory, points):
    """A warm fixed-point cache shared by the CLI tests."""
    path = tmp_path_factory.mktemp("cli") / "fixpoints.json"
    fx.save_cache(points, path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_degree_d4(capsys, cache_path):
    code, out, _ = run(capsys, "degree", "--d", "4", "--cache", str(cache_path))
    assert code == 0
    assert "deg NL(W,4) = 38475" in out


def test_degree_json_format(capsys, cache_path):
    code, out, _ = run(
        capsys, "degree", "--d", "5", "--cache", str(cache_path), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == "824667930"
    assert doc["d"] == 5
    assert doc["fixpointCount"] == 525
    assert "elapsed" in doc


def test_degree_below_range_is_usage_error(capsys, cache_path):
    with pytest.raises(SystemExit) as err:
        main(["degree", "--d", "3", "--cache", str(cache_path)])
    assert err.value.code == 2


def test_formula_span_too_small_is_usage_error(capsys, cache_path):
    with pytest.raises(SystemExit) as err:
        main(["formula", "--dmin", "5", "--dmax", "20", "--cache", str(cache_path)])
    assert err.value.code == 2


def test_formula_text_output(capsys, cache_path, monkeypatch):
    # the closed form's values stand in for the Bott sums, which criterion 2 tests
    nodes = {d: closed_form()(d) for d in range(5, 54)}
    monkeypatch.setattr(
        loc,
        "degree_range",
        lambda dmin, dmax, *_, **__: [
            SimpleNamespace(d=d, degree=nodes[d]) for d in range(dmin, dmax + 1)
        ],
    )
    code, out, _ = run(capsys, "formula", "--cache", str(cache_path))
    assert code == 0
    lines = out.splitlines()
    assert "degree of the fitted polynomial: 32" in lines
    factored = lines[lines.index("factored form:") + 1]
    assert factored.startswith("  binomial(d-2,3) * (106984881*d^29-3409514775*d^28")
    assert factored.endswith(") / (2^27*3^9*5^2*7^2*11*13)")
    assert lines[-1] == "MATCH: the published closed form is reproduced"

    nodes[30] += 1
    code, out, _ = run(capsys, "formula", "--cache", str(cache_path))
    assert code == 1
    assert out.splitlines()[-1].startswith("MISMATCH: mismatch at degree ")


def test_fixpoints_counts_line(capsys, tmp_path):
    path = tmp_path / "fp.json"
    code, out, _ = run(capsys, "fixpoints", "--cache", str(path))
    assert code == 0
    assert "G2=21 G2E1=180 E2=324 total=525" in out
    assert path.exists()


def test_fixpoints_json_is_full_array(capsys, cache_path):
    code, out, _ = run(capsys, "fixpoints", "--format", "json", "--cache", str(cache_path))
    assert code == 0
    records = json.loads(out)
    assert len(records) == 525
    assert {r["tag"] for r in records} == {"G2", "G2E1", "E2"}


def test_fixpoints_rerun_is_byte_stable(capsys, tmp_path):
    path = tmp_path / "fp.json"
    run(capsys, "fixpoints", "--cache", str(path))
    first = path.read_bytes()
    run(capsys, "fixpoints", "--cache", str(path))
    assert path.read_bytes() == first


def test_explicit_inadmissible_weights_fail_loudly(capsys, cache_path):
    code, out, err = run(
        capsys,
        "degree", "--d", "5", "--cache", str(cache_path), "--weights", "0,1,2,3",
    )
    assert code == 1
    assert "not admissible" in err


@pytest.mark.parametrize("argv", [["degree", "--d", "5"], ["verify"]], ids=["degree", "verify"])
def test_default_spec_killed_by_the_cache_is_an_error(capsys, tmp_path, points, argv):
    # (0, 5, -1, 0) specializes to 5 - 5 = 0 under the default 0,1,5,18
    path = tmp_path / "killed.json"
    fx.save_cache(points, path)
    doc = json.loads(path.read_text())
    record = doc["points"][0]
    record["tangent"][0] = [0, 5, -1, 0]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--cache", str(path))
    assert code == 1
    assert out == ""
    point = f"{record['tag']}{tuple(record['provenance'])}"
    assert err.startswith("error: weight spec (0, 1, 5, 18) is not admissible")
    assert f"(0, 5, -1, 0) at {point} specializes to 0" in err


def test_bad_weights_syntax_is_usage_error(capsys, cache_path):
    with pytest.raises(SystemExit) as err:
        main(["degree", "--d", "5", "--cache", str(cache_path), "--weights", "0,1,1,3"])
    assert err.value.code == 2


def test_negative_weights_take_the_equals_form(capsys, cache_path):
    # a value starting with '-' reads as a flag unless joined with '='; the
    # caller's spec then has weights of both signs, and the degree is the default's
    expected = "deg NL(W,9) = 2056501589492590165"
    _, default, _ = run(capsys, "degree", "--d", "9", "--cache", str(cache_path))
    code, out, _ = run(
        capsys, "degree", "--d", "9", "--cache", str(cache_path), "--weights=-3,0,2,11"
    )
    assert code == 0
    assert expected in default
    assert expected in out


def test_threads_flag_matches_single(capsys, cache_path):
    _, out1, _ = run(capsys, "degree", "--d", "6", "--cache", str(cache_path))
    _, out2, _ = run(
        capsys, "degree", "--d", "6", "--cache", str(cache_path), "--threads", "2"
    )
    assert out1.splitlines()[0] == out2.splitlines()[0]


def test_cache_env_override(capsys, tmp_path, monkeypatch, points):
    path = tmp_path / "env-cache.json"
    fx.save_cache(points, path)
    monkeypatch.setenv("NLOCUS_CACHE", str(path))
    code, out, _ = run(capsys, "degree", "--d", "4")
    assert code == 0
    assert "38475" in out


def test_config_file(capsys, tmp_path, cache_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cache": str(cache_path), "format": "json"}))
    code, out, _ = run(capsys, "degree", "--d", "4", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["degree"] == "38475"


def test_verify_passes(capsys, cache_path):
    code, out, _ = run(capsys, "verify", "--cache", str(cache_path))
    assert code == 0
    expected = [f"PASS {name}" for name in VERIFY_CHECKS] + ["verify: ok"]
    assert out.splitlines() == expected


def test_verify_with_two_workers_passes(cache_path):
    """The benchmark's verify-warm command: each Bott sum forks a worker.

    Under -X dev any warning, such as Python 3.12's on a fork from a process
    with threads, reaches stderr and fails the test.
    """
    done = _python(
        *("-X", "dev", "-m", "nlocus", "verify", "--threads", "2"),
        *("--cache", str(cache_path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    expected = [f"PASS {name}" for name in VERIFY_CHECKS] + ["verify: ok"]
    assert (done.returncode, done.stdout.splitlines(), done.stderr) == (0, expected, "")


def test_verify_with_two_workers_forks_four_children(monkeypatch, capsys, cache_path):
    """One child for each of the four Bott sums of `verify`, none kept."""
    forked = []
    real = os.fork

    def counted():
        pid = real()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    code, out, _ = run(capsys, "verify", "--threads", "2", "--cache", str(cache_path))
    assert (code, out.splitlines()[-1], len(forked)) == (0, "verify: ok", 4)


def test_two_workers_without_fork_is_an_error(monkeypatch, capsys, cache_path):
    monkeypatch.delattr(os, "fork")
    argv = ("degree", "--d", "4", "--threads", "2", "--cache", str(cache_path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: 2 workers need os.fork, which this platform lacks\n"


def test_verify_runs_the_eight_named_checks():
    assert [name for name, _ in checks.CHECKS] == list(VERIFY_CHECKS)


def test_verify_detects_corrupted_cache(capsys, tmp_path, points):
    path = tmp_path / "broken.json"
    fx.save_cache(points, path)
    doc = json.loads(path.read_text())
    # corrupt one quartic system: drop a generator
    doc["points"][0]["quartics"] = doc["points"][0]["quartics"][:-1]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--cache", str(path))
    assert code == 1
    assert "FAIL rank-invariants" in out


def test_verify_names_a_point_with_a_missing_tangent_character(capsys, tmp_path, points):
    path = tmp_path / "short.json"
    fx.save_cache(points, path)
    doc = json.loads(path.read_text())
    record = doc["points"][300]
    del record["tangent"][5]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--cache", str(path))
    assert code == 1
    point = f"{record['tag']}{tuple(record['provenance'])}"
    assert f"FAIL rank-invariants: {point}: 15 tangent characters != 16\n" in out


@pytest.mark.parametrize(
    "text",
    ["[]", f'{{"schema":{fx.SCHEMA_VERSION}}}', f'{{"schema":{fx.SCHEMA_VERSION},"points":['],
    ids=["array", "no-points", "undecodable"],
)
def test_malformed_cache_is_an_error_and_left_untouched(capsys, tmp_path, text):
    path = tmp_path / "broken.json"
    path.write_text(text)
    code, out, err = run(capsys, "degree", "--d", "4", "--cache", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: fixed-point cache ") and str(path) in err
    assert path.read_text() == text


def test_cache_record_with_one_pencil_row_is_an_error(capsys, tmp_path, points):
    path = tmp_path / "one-pencil.json"
    fx.save_cache(points, path)
    doc = json.loads(path.read_text())
    del doc["points"][3]["pencil"][1]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "degree", "--d", "4", "--cache", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and f"{path}, record 3: " in err


@pytest.mark.parametrize(
    "config, argv, key",
    [
        ({"weights": 5}, (), "weights"),
        ({"weights": [0, 1, 5.5, 18]}, (), "weights"),
        ({"threads": "two"}, (), "threads"),
        ({"threads": True}, (), "threads"),
        ({}, ("--threads", "0"), "threads"),
        ({"weights": None}, (), "weights"),
        ({"cache": 5}, (), "cache"),
        ({"cache": ""}, (), "cache"),
        ({"cache": None}, (), "cache"),
        ({"cache": False}, (), "cache"),
        ({}, ("--cache", ""), "cache"),
        ({"thread": 2}, (), "config key"),
    ],
    ids=[
        "weights-int", "weights-float", "threads-str", "threads-bool", "threads-0",
        "weights-null", "cache-int", "cache-empty", "cache-null", "cache-false",
        "cache-flag-empty", "unknown-key",
    ],
)
def test_bad_config_value_is_usage_error(capsys, tmp_path, cache_path, config, argv, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cache": str(cache_path), **config}))
    with pytest.raises(SystemExit) as err:
        main(["degree", "--d", "4", "--config", str(cfg), *argv])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith(f"usage error: bad {key} ")


def test_traced_cli_targets_resolve(monkeypatch):
    """Every function the benchmark's traced mode wraps exists in the package."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    traced_cli = importlib.import_module("traced_cli")
    for module, attr, _, _ in traced_cli.TARGETS:
        assert callable(getattr(importlib.import_module(f"nlocus.{module}"), attr, None)), (
            f"nlocus.{module}.{attr}"
        )


def test_cli_import_loads_every_traced_module():
    """The benchmark's traced mode finds each module it wraps in sys.modules
    after `import nlocus.cli` alone; a lazy import would make that a KeyError."""
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from traced_cli import TARGETS\n"
        "import nlocus.cli\n"
        "print(sorted({m for m, *_ in TARGETS if 'nlocus.' + m not in sys.modules}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(root / "perfbench")],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


def _python(*args, **kwargs):
    """Run a fresh interpreter with this checkout's package on its path."""
    path = [str(Path(__file__).resolve().parents[1] / "src")]
    path += filter(None, [os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def test_cli_import_does_not_load_multiprocessing():
    """Workers are forked with os.fork, so no run pays for this import."""
    done = _python(
        "-c",
        "import sys, nlocus.cli; print('multiprocessing' in sys.modules)",
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "False\n"


def test_closed_stdout_exits_1_without_a_traceback(cache_path):
    """`nlocus degree | head -0`: the reader of stdout is gone before the
    CLI prints, so its flush fails with EPIPE on every run."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _python(
            *("-m", "nlocus", "degree", "--d", "4", "--cache", str(cache_path)),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_benchmark_oracle_reads_a_fresh_cache(monkeypatch, capsys, cache_path):
    """The benchmark's oracle child reads the cache this package writes."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    oracle = importlib.import_module("oracle")
    assert oracle.main([str(cache_path), "0", "5", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weights"] == [0, 1, 5, 18]
    assert doc["nodes"] == [[d, str(closed_form()(d))] for d in (5, 6)]
