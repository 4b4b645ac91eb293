import errno
import functools
import gc
import importlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from nlocus import checks
from nlocus import fixpoints as fx
from nlocus import ideals
from nlocus import localization as loc
from nlocus.cli import main
from nlocus.formula import closed_form

from conftest import tear_writes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def verify_checks(monkeypatch):
    """The checks whose PASS lines the benchmark's verify-warm workload requires, in order."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run").VERIFY_CHECKS


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


def test_elapsed_is_not_negative_when_the_clock_steps_back(
    monkeypatch, capsys, cache_path
):
    # time.time follows the system clock, which can be set backwards
    stepping_back = itertools.count(2e9, -3600.0)
    monkeypatch.setattr(time, "time", functools.partial(next, stepping_back))
    argv = ("degree", "--d", "4", "--cache", str(cache_path), "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["elapsed"] >= 0


def test_degree_below_range_is_usage_error(capsys, cache_path):
    with pytest.raises(SystemExit) as err:
        main(["degree", "--d", "3", "--cache", str(cache_path)])
    assert err.value.code == 2


def test_formula_span_too_small_is_usage_error(capsys, cache_path):
    with pytest.raises(SystemExit) as err:
        main(["formula", "--dmin", "5", "--dmax", "20", "--cache", str(cache_path)])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [["degree", "--d"], ["formula", "--dmax"]], ids=["d", "dmax"])
def test_a_degree_too_large_for_a_range_is_an_error(monkeypatch, capsys, cache_path, argv):
    # a point's 4d fiber weights are one list, so d is at most sys.maxsize // 4;
    # a larger one is a usage error before any point is loaded
    assert loc.MAX_D == sys.maxsize // 4
    monkeypatch.setattr(fx, "load_or_enumerate", None)
    for value in (loc.MAX_D + 1, 10**20):
        with pytest.raises(SystemExit) as err:
            main([*argv, str(value), "--cache", str(cache_path)])
        assert err.value.code == 2
        message = f"usage error: {argv[-1]} must be at most {loc.MAX_D} (sys.maxsize // 4)\n"
        assert capsys.readouterr() == ("", message)


def test_formula_text_output(capsys, cache_path, monkeypatch):
    # the closed form's values stand in for the Bott sums, which criterion 2 tests
    nodes = {d: closed_form()(d) for d in range(5, 54)}
    monkeypatch.setattr(
        loc.Bott,
        "degree_range",
        lambda self, dmin, dmax, *_: [
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


def _read_corrupted(capsys, monkeypatch, tmp_path, points, corrupt, argv):
    """Make the CLI read the points of a corrupted cache file.

    corrupt(doc) alters the indices of one record of the cache document and
    returns the record's index.  The file itself is a load error naming that
    record, so `fixpoints.load_or_enumerate` is patched to return the altered
    points, as a loader that took the file's rows and derived each point's
    cells from its quartics would.  Returns the path and the record.
    """
    doc = json.loads(fx.cache_bytes(points))
    index = corrupt(doc)
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--cache", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: fixed-point cache {path}, record {index}: ")
    rows = [tuple(row) for row in doc["distinct"]["rows"]]
    altered = [
        fx.FixedPoint(
            record["tag"],
            *(tuple(rows[i] for i in record[key]) for key in ("tangent", "quartics", "pencil")),
            tuple(record["provenance"]),
        )
        for record in doc["points"]
    ]
    monkeypatch.setattr(fx, "load_or_enumerate", lambda path: altered)
    return path, doc["points"][index]


def _kill_the_default_spec(doc):
    # the row (4, 0, 0, 0), the quartic x0^4, specializes to 0 under the
    # default 0,1,5,18; it becomes the first tangent character of record 0
    doc["points"][0]["tangent"][0] = doc["distinct"]["rows"].index([4, 0, 0, 0])
    return 0


@pytest.mark.parametrize("argv", [["degree", "--d", "5"], ["verify"]], ids=["degree", "verify"])
def test_default_spec_killed_by_the_cache_is_an_error(
    capsys, monkeypatch, tmp_path, points, argv
):
    path, record = _read_corrupted(
        capsys, monkeypatch, tmp_path, points, _kill_the_default_spec, argv
    )
    code, out, err = run(capsys, *argv, "--cache", str(path))
    assert code == 1
    assert out == ""
    point = f"{record['tag']}{tuple(record['provenance'])}"
    assert err.startswith("error: weight spec (0, 1, 5, 18) is not admissible")
    assert f"(4, 0, 0, 0) at {point} specializes to 0" in err


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


def test_threads_flag_matches_single(capsys, two_cpus, forked, cache_path):
    docs = []
    for threads in ("1", "2"):
        argv = ("formula", "--format", "json", "--threads", threads)
        code, out, _ = run(capsys, *argv, "--cache", str(cache_path))
        assert code == 0
        docs.append({key: json.loads(out)[key] for key in ("nodes", "coefficients", "match")})
    assert docs[1] == docs[0]
    assert (docs[0]["match"], len(docs[0]["nodes"]), len(forked)) == (True, 49, 1)


def test_verify_passes(capsys, cache_path, verify_checks):
    code, out, _ = run(capsys, "verify", "--cache", str(cache_path))
    assert code == 0
    expected = [f"PASS {name}" for name in verify_checks] + ["verify: ok"]
    assert out.splitlines() == expected


def test_verify_with_two_workers_passes(cache_path, verify_checks):
    """The benchmark's verify-warm command, where two CPUs are usable: each
    Bott sum forks a worker.

    Under -X dev any warning, such as Python 3.12's on a fork from a process
    with threads, reaches stderr and fails the test.
    """
    code = (
        "import sys\n"
        "from nlocus import cli, localization\n"
        "localization._usable_cpus = lambda: 2\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    done = _python(
        *("-X", "dev", "-c", code, "verify", "--threads", "2"),
        *("--cache", str(cache_path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    expected = [f"PASS {name}" for name in verify_checks] + ["verify: ok"]
    assert (done.returncode, done.stdout.splitlines(), done.stderr) == (0, expected, "")


def test_verify_with_two_workers_forks_two_children(capsys, two_cpus, forked, cache_path):
    """One child for each of the two Bott sums of `verify`, none kept."""
    code, out, _ = run(capsys, "verify", "--threads", "2", "--cache", str(cache_path))
    assert (code, out.splitlines()[-1], len(forked)) == (0, "verify: ok", 2)


@pytest.mark.parametrize(
    "values, alternate",
    [((0, 1, 5, 18), (0, 1, 7, 23)), ((1, 2, 8, 24), (0, 1, 5, 18))],
)
def test_verify_takes_one_bott_pass_per_spec(
    monkeypatch, capsys, cache_path, values, alternate
):
    # d4-target, d5-cross-check and spec-independence share the run's pass;
    # (1, 2, 8, 24) is (0, 1, 7, 23) + 1, so its second spec is the default
    passes = []
    real = loc._localize

    def recording(bott, ds, spec):
        passes.append((spec.values, list(ds)))
        return real(bott, ds, spec)

    monkeypatch.setattr(loc, "_localize", recording)
    weights = "--weights=" + ",".join(map(str, values))
    code, out, _ = run(capsys, "verify", weights, "--cache", str(cache_path))
    assert (code, out.splitlines()[-1]) == (0, "verify: ok")
    assert passes == [(values, [4, 5, 6]), (alternate, [4, 5, 6])]


@pytest.mark.parametrize(
    "argv, warm",
    [
        (["degree", "--d", "4"], False),
        (["formula", "--dmax", "37"], True),
        (["fixpoints"], False),
    ],
    ids=["degree-cold", "formula", "fixpoints"],
)
def test_a_command_takes_its_cells_from_the_quartic_table(
    monkeypatch, capsys, cache_path, tmp_path, argv, warm
):
    # every cell a command uses comes from `cells_of_bits`, which is why the
    # general walk may be the plain, slower one
    def general_walk(lead_x):
        raise AssertionError(f"staircase_cells({lead_x!r}) on the path of {argv}")

    monkeypatch.setattr(ideals, "staircase_cells", general_walk)
    cache = cache_path if warm else tmp_path / "cold.json"
    code, _, err = run(capsys, *argv, "--cache", str(cache))
    assert (code, err) == (0, "")


def test_verify_walks_four_small_ideals_with_the_general_staircase(
    monkeypatch, capsys, cache_path
):
    # hilbert-oracles' three orbit representatives and algebra-kernel's <x0^2, x1^2>
    sizes = []
    walk = ideals.staircase_cells

    def counted(lead_x):
        sizes.append(len(lead_x))
        return walk(lead_x)

    monkeypatch.setattr(ideals, "staircase_cells", counted)
    code, out, _ = run(capsys, "verify", "--cache", str(cache_path))
    assert (code, out.splitlines()[-1]) == (0, "verify: ok")
    assert len(sizes) == 4 and max(sizes) <= 4, sizes


def test_a_failed_pass_fails_each_check_that_reads_it(
    monkeypatch, capsys, cache_path, weights, verify_checks
):
    # the run's pass is not kept when it raises: each check that reads it
    # takes it again and prints the error, and the other five still pass
    message = "localization sum for d=5 is 1/2, not a non-negative integer"
    calls = []
    real = loc._localize

    def failing(bott, ds, spec):
        if spec == weights:
            calls.append(spec)
            raise fx.StructuralError(message)
        return real(bott, ds, spec)

    monkeypatch.setattr(loc, "_localize", failing)
    code, out, _ = run(capsys, "verify", "--cache", str(cache_path))
    reading = ("d4-target", "d5-cross-check", "spec-independence")
    expected = [
        f"FAIL {name}: {message}" if name in reading else f"PASS {name}"
        for name in verify_checks
    ]
    assert (code, out.splitlines(), len(calls)) == (1, [*expected, "verify: 3 failed"], 3)


@pytest.fixture
def gc_states(monkeypatch):
    """Whether the cyclic collector is enabled, and the frozen-object count,
    each time a command checks a weight spec, with the points loaded."""
    states = []
    real = loc.admissible_spec

    def recording(bott, spec):
        states.append((gc.isenabled(), gc.get_freeze_count()))
        return real(bott, spec)

    monkeypatch.setattr(loc, "admissible_spec", recording)
    return states


@pytest.mark.parametrize(
    "argv, status",
    [
        (["degree", "--d", "4"], 0),
        (["verify"], 0),
        (["degree", "--d", "5", "--weights", "0,1,2,3"], 1),
    ],
    ids=["degree", "verify", "inadmissible"],
)
def test_the_collector_is_paused_until_main_returns(capsys, cache_path, gc_states, argv, status):
    """No collection walks the points while the command runs; main then leaves
    the collector as its caller had it, and freezes nothing (a frozen object
    that dies leaves the count)."""
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    code, _, _ = run(capsys, *argv, "--cache", str(cache_path))
    assert code == status
    assert gc_states and all(not on and count <= frozen for on, count in gc_states)
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() <= frozen


def test_main_leaves_what_its_caller_froze_frozen(capsys, cache_path, gc_states):
    """A caller's frozen objects stay frozen, main freezes nothing on top, and
    a collector the caller paused stays paused."""
    enabled = gc.isenabled()
    gc.freeze()
    gc.disable()
    try:
        before = gc.get_freeze_count()
        code, _, _ = run(capsys, "degree", "--d", "6", "--cache", str(cache_path))
        after = (gc.isenabled(), gc.get_freeze_count())
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
    assert code == 0
    assert after[0] is False
    assert 0 < after[1] <= before
    assert gc_states and all(not on and count <= before for on, count in gc_states)


def test_threads_beyond_the_cpus_fork_one_child_for_two_cpus(
    capsys, two_cpus, forked, cache_path
):
    argv = ("formula", "--dmax", "37", "--threads", "300", "--cache", str(cache_path))
    code, out, _ = run(capsys, *argv)
    assert (code, len(forked)) == (0, 1)
    assert out.splitlines()[0] == "interpolated at d=5..37 (33 nodes)"


def test_one_degree_with_two_workers_forks_nothing(capsys, two_cpus, forked, cache_path):
    argv = ("degree", "--d", "4", "--threads", "2", "--cache", str(cache_path))
    code, out, _ = run(capsys, *argv)
    assert (code, out.splitlines()[0], forked) == (0, "deg NL(W,4) = 38475", [])


def test_verify_on_one_cpu_forks_nothing(capsys, one_cpu, cache_path, verify_checks):
    expected = [f"PASS {name}" for name in verify_checks] + ["verify: ok"]
    for threads in ("1", "2"):
        argv = ("verify", "--threads", threads, "--cache", str(cache_path))
        code, out, err = run(capsys, *argv)
        assert (code, out.splitlines(), err) == (0, expected, "")


def test_two_workers_without_fork_is_an_error(monkeypatch, capsys, one_cpu, cache_path):
    monkeypatch.delattr(os, "fork")
    argv = ("degree", "--d", "4", "--threads", "2", "--cache", str(cache_path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: 2 workers need os.fork, which this platform lacks\n"


@pytest.mark.parametrize("command", [["degree", "--d", "4"], ["formula"], ["fixpoints"]])
def test_a_failed_cache_write_is_an_error(monkeypatch, capsys, tmp_path, command):
    tear_writes(monkeypatch, 4096, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
    path = tmp_path / "fixpoints.json"
    code, out, err = run(capsys, *command, "--cache", str(path))
    assert (code, out) == (1, "")
    reason = os.strerror(errno.ENOSPC)
    assert err == f"error: fixed-point cache {path} cannot be written: {reason}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["fixpoints"], ["degree", "--d", "4"], ["formula"]])
def test_a_cache_under_a_regular_file_is_an_error(capsys, tmp_path, command):
    # unwritable for every user, root included; the path is named as given
    parent = tmp_path / "file"
    parent.write_bytes(b"")
    path = f"{parent}/f.json"
    code, out, err = run(capsys, *command, "--cache", path)
    assert (code, out) == (1, "")
    if command == ["fixpoints"]:
        reason = f"cannot be written: {os.strerror(errno.EEXIST)}"
    else:
        reason = f"is unreadable: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: {path!r}"
    assert err == f"error: fixed-point cache {path} {reason}\n"
    assert list(tmp_path.iterdir()) == [parent] and parent.read_bytes() == b""


@pytest.mark.parametrize("command", [["formula", "--dmax", "37"], ["formula"]])
def test_a_failed_fork_is_an_error(monkeypatch, capsys, two_cpus, cache_path, command):
    calls = []

    def no_fork():
        calls.append(1)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    code, out, err = run(capsys, *command, "--threads", "2", "--cache", str(cache_path))
    assert (code, out, len(calls)) == (1, "", 1)
    assert err == f"error: cannot fork a Bott-sum worker: {os.strerror(errno.EAGAIN)}\n"


@pytest.mark.parametrize("command", [["degree", "--d", "4"], ["formula"]])
def test_running_out_of_memory_is_an_error_line(monkeypatch, capsys, cache_path, command):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(loc.Bott, "degree_range", exhausted)
    code, out, err = run(capsys, *command, "--cache", str(cache_path))
    assert (code, out) == (1, "")
    assert err == f"error: out of memory in nlocus {command[0]}\n"


def test_verify_runs_the_eight_named_checks(verify_checks):
    assert [name for name, _ in checks.CHECKS] == list(verify_checks)


def _drop_a_quartic(doc):
    doc["points"][0]["quartics"] = doc["points"][0]["quartics"][:-1]
    return 0


def test_verify_detects_corrupted_cache(capsys, monkeypatch, tmp_path, points):
    path, _ = _read_corrupted(
        capsys, monkeypatch, tmp_path, points, _drop_a_quartic, ["verify"]
    )
    code, out, _ = run(capsys, "verify", "--cache", str(path))
    assert code == 1
    assert "FAIL rank-invariants" in out


def _drop_a_tangent_character(doc):
    del doc["points"][300]["tangent"][5]
    return 300


def test_verify_names_a_point_with_a_missing_tangent_character(
    capsys, monkeypatch, tmp_path, points
):
    path, record = _read_corrupted(
        capsys, monkeypatch, tmp_path, points, _drop_a_tangent_character, ["verify"]
    )
    code, out, _ = run(capsys, "verify", "--cache", str(path))
    assert code == 1
    point = f"{record['tag']}{tuple(record['provenance'])}"
    assert f"FAIL rank-invariants: {point}: 15 tangent characters != 16\n" in out


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        f'{{"schema":{fx.SCHEMA_VERSION}}}',
        f'{{"schema":{fx.SCHEMA_VERSION},"points":[',
        None,
    ],
    ids=["array", "no-points", "undecodable", "other-schema"],
)
def test_malformed_cache_is_an_error_and_left_untouched(capsys, tmp_path, points, text):
    if text is None:  # the cascade's file, but for its schema
        schema = f'"schema":{fx.SCHEMA_VERSION}}}'
        text = fx.cache_bytes(points).decode().replace(schema, '"schema":3}')
    path = tmp_path / "broken.json"
    path.write_text(text)
    code, out, err = run(capsys, "degree", "--d", "4", "--cache", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: fixed-point cache ") and str(path) in err
    assert path.read_text() == text


@pytest.mark.parametrize(
    "argv, key",
    [(("--threads", "0"), "threads"), (("--cache", ""), "cache")],
    ids=["threads-0", "cache-flag-empty"],
)
def test_bad_config_value_is_usage_error(capsys, argv, key):
    with pytest.raises(SystemExit) as err:
        main(["degree", "--d", "4", *argv])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith(f"usage error: bad {key} ")


@pytest.mark.parametrize(
    "argv",
    [
        ["degree", "--d", "4", "--config", "cfg.json"],
        ["fixpoints", "--weights", "0,1,5,18"],
        ["fixpoints", "--threads", "2"],
        ["verify", "--format", "json"],
    ],
    ids=["degree --config", "fixpoints --weights", "fixpoints --threads", "verify --format"],
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_traced_cli_targets_resolve(monkeypatch):
    """Every function the benchmark's traced mode wraps exists in the package."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced_cli = importlib.import_module("traced_cli")
    for module, attr, _, _ in traced_cli.TARGETS:
        assert callable(getattr(importlib.import_module(f"nlocus.{module}"), attr, None)), (
            f"nlocus.{module}.{attr}"
        )


def test_a_cold_enumeration_calls_each_traced_cascade_stage(monkeypatch):
    """The cascade stages that the benchmark's traced mode wraps run through
    the `fixpoints` attributes that `traced_cli.install` replaces, as often as
    CI's traced cold step records them: one `e1_points` per Z point, one
    `classify_e1` per E1 record and one `e2_points` per W point."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    targets = importlib.import_module("traced_cli").TARGETS
    traced = {attr for module, attr, _, _ in targets if module == "fixpoints"}
    calls = dict.fromkeys(["e1_points", "classify_e1", "e2_points"], 0)
    assert traced >= calls.keys()

    def counted(name, stage):
        def call(*args):
            calls[name] += 1
            return stage(*args)

        return call

    for name in calls:
        monkeypatch.setattr(fx, name, counted(name, getattr(fx, name)))
    assert fx.stratum_counts(fx.enumerate_all()) == fx.CENSUS
    assert calls == {"e1_points": 24, "classify_e1": 216, "e2_points": 36}


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


# prints the watched modules that `import nlocus.cli` loads, then those loaded
# once the command has run too; the bare interpreter's modules, which a site
# hook may extend, are left out
_LOADS = (
    "import sys\n"
    "bare = set(sys.modules)\n"
    "from nlocus.cli import main\n"
    "imported = set(sys.modules) - bare\n"
    "main(sys.argv[1:])\n"
    "watched = ('__future__', 'dataclasses', 'heapq', 'inspect', 'json',"
    " 'nlocus.checks', 'nlocus.limits', 'pickle')\n"
    "print([m for m in watched if m in imported],"
    " [m for m in watched if m in set(sys.modules) - bare])\n"
)


@pytest.mark.parametrize(
    "argv, warm, loads",
    [
        # a cold run writes the cache without `json`; a warm one parses it
        (["degree", "--d", "4"], False, []),
        (["degree", "--d", "4"], True, ["json"]),
        (["verify"], True, ["json", "nlocus.checks", "nlocus.limits"]),
    ],
    ids=["degree-cold", "degree", "verify"],
)
def test_a_command_imports_only_the_modules_it_runs(cache_path, tmp_path, argv, warm, loads):
    cache = cache_path if warm else tmp_path / "missing.json"
    done = _python(
        "-c",
        _LOADS,
        *argv,
        "--cache",
        str(cache),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == f"[] {loads}"
    assert cache.exists()


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


@pytest.mark.parametrize("entry", ["run", "main"])
def test_the_entry_leaves_the_collector_nothing_at_exit(cache_path, entry):
    """After `run` the interpreter's final collection has nothing to walk;
    after `main` alone it would walk all that the run built."""
    done = _python(
        "-c",
        f"import gc; from nlocus.cli import {entry}; {entry}();"
        " print(len(gc.get_objects()))",
        *("degree", "--d", "6", "--cache", str(cache_path)),
        capture_output=True,
        text=True,
        check=True,
    )
    left = int(done.stdout.splitlines()[-1])
    assert (left < 100) == (entry == "run"), left


@pytest.mark.parametrize(
    "argv, status, stderr",
    [
        (["degree", "--d", "4"], 0, ""),
        (["degree", "--d", "3"], 2, "usage error: --d must be at least 4\n"),
        (["degree", "--d", "5", "--weights", "0,1,2,3"], 1, "error: weight spec (0, 1, 2, 3)"),
    ],
    ids=["ok", "usage", "inadmissible"],
)
def test_python_m_nlocus_exits_with_the_commands_status(cache_path, argv, status, stderr):
    """Through the process entry, under -X dev: the status and stderr of main,
    and no warning from an exit that skips the final collection."""
    done = _python(
        *("-X", "dev", "-m", "nlocus", *argv, "--cache", str(cache_path)),
        capture_output=True,
        text=True,
    )
    assert done.returncode == status
    assert done.stderr.startswith(stderr)
    assert len(done.stderr.splitlines()) == (status != 0)


def test_benchmark_oracle_reads_a_fresh_cache(monkeypatch, capsys, cache_path):
    """The benchmark's oracle child reads the cache this package writes."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    oracle = importlib.import_module("oracle")
    assert oracle.main([str(cache_path), "0", "5", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weights"] == [0, 1, 5, 18]
    assert doc["nodes"] == [[d, str(closed_form()(d))] for d in (5, 6)]
