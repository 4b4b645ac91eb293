"""Self-time arithmetic on synthetic spans, and the recorder's nesting."""

import pytest

import run
import spans

# root [0, 10] > a [1, 4] > a2 [2, 3];  root > b [5, 6];  separate top c [11, 12]
SYNTHETIC = [
    ["root", 0.0, 10.0, -1],
    ["a", 1.0, 4.0, 0],
    ["a", 2.0, 3.0, 1],
    ["b", 5.0, 6.0, 0],
    ["c", 11.0, 12.0, -1],
]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(SYNTHETIC) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_summary_counts_nested_same_name_once_in_total():
    summary = spans.summarize(SYNTHETIC)
    assert summary["a"] == {"calls": 2, "s": 3.0, "self_s": 3.0}
    assert summary["root"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert spans.root_time(SYNTHETIC) == 11.0


def test_self_times_add_up_to_root_time():
    assert sum(spans.self_times(SYNTHETIC)) == pytest.approx(spans.root_time(SYNTHETIC))


def test_recorder_nests_spans_by_call_stack():
    ticks = iter(range(100))
    rec = spans.Recorder("r1", clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    assert rec.spans == [
        ["outer", 0.0, 5.0, -1],
        ["inner", 1.0, 2.0, 0],
        ["inner", 3.0, 4.0, 0],
    ]
    assert spans.self_times(rec.spans) == [3.0, 1.0, 1.0]


def test_disabled_recorder_passes_through(tmp_path):
    rec = spans.Recorder("r2")
    f = rec.wrap("f", lambda: 7)
    rec.disable()
    assert f() == 7
    assert rec.spans == []


def test_written_spans_round_trip(tmp_path):
    rec = spans.Recorder("r3")
    rec.wrap("f", lambda: None)()
    rec.counts["k"] += 2
    path = tmp_path / "spans.json"
    rec.write(path)
    loaded, counts = spans.load(path)
    assert loaded == rec.spans
    assert counts["k"] == 2 and "trace.write_s" in counts


def _traced(raw_wall, scale):
    return run.Sample(argv=[], code=0, wall_s=raw_wall * scale, cpu_s=0.0,
                      peak_rss_mb=0.0, scale=scale, probe_ns=0.0)


SYNTHETIC_TRACE = [
    ["ideals.saturate_t", 0.0, 4.0, -1],
    ["gbcore.groebner", 0.5, 1.5, 0],
    ["gbcore.groebner", 2.0, 3.0, 0],
    ["ideals.reduce_gb", 4.0, 5.0, -1],
    ["gbcore.groebner", 4.2, 4.8, 3],
    ["localization.sum", 5.0, 9.0, -1],
    ["localization.accumulate", 5.5, 8.5, 5],
    ["torus.elem_sym", 6.0, 7.0, 6],
]


def test_layer_metrics_from_synthetic_spans():
    counts = {"trace.install_s": 0.25, "trace.write_s": 0.25, "torus.elem_sym.values": 16}
    m = run.layer_metrics(SYNTHETIC_TRACE, counts, _traced(raw_wall=10.0, scale=1.0))
    assert m["gbcore.groebner.calls"] == 3
    assert m["gbcore.groebner.per_saturation"] == 2.0
    assert m["gbcore.groebner.s"] == pytest.approx(2.6)
    assert m["localization.accumulate.self_s"] == pytest.approx(2.0)
    assert m["localization.pool_wait_s"] == pytest.approx(1.0)
    assert m["cli.other.self_s"] == pytest.approx(10.0 - 9.0 - 0.5)
    assert m["torus.elem_sym.values"] == 16
    assert m["ideals.kbase.calls"] == 0


def test_layer_times_are_scaled_and_counts_are_not():
    counts = {"trace.install_s": 0.25, "trace.write_s": 0.25, "torus.elem_sym.values": 16}
    raw = run.layer_metrics(SYNTHETIC_TRACE, counts, _traced(raw_wall=10.0, scale=1.0))
    half = run.layer_metrics(SYNTHETIC_TRACE, counts, _traced(raw_wall=10.0, scale=0.5))
    for name, unit in run.PER_LAYER.items():
        if name == "trace.overhead_s":
            continue
        expected = raw[name] * 0.5 if unit == "s" else raw[name]
        assert half[name] == pytest.approx(expected), name
