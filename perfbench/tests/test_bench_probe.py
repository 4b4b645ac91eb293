"""The core-speed probe samples while in use and scales by its mean."""

import time

import pytest

import probe


def test_probe_samples_while_open_and_stops_on_exit():
    with probe.Probe() as speed:
        time.sleep(0.1)
    count = len(speed.samples)
    assert count >= 5
    assert all(ns > 0 for ns in speed.samples)
    time.sleep(0.01)
    assert len(speed.samples) == count


def test_scale_is_reference_over_mean():
    speed = probe.Probe()
    speed.samples = [probe.REF_NS, 3 * probe.REF_NS]
    assert speed.mean_ns == 2 * probe.REF_NS
    assert speed.scale == pytest.approx(0.5)
