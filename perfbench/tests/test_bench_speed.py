"""Calibrated times of the benchmark's speed samples."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import speed  # noqa: E402


def test_calibrated_subtracts_inner_samples_and_scales_by_their_median():
    meter = speed.Speedometer()
    meter.at = [0.0, 1.0, 2.0, 3.5]
    meter.took = [0.002, 0.001, 0.001, 0.005]
    net, scale = meter.calibrated(0.5, 3.0)
    assert net == pytest.approx(2.5 - 0.002)
    assert scale == pytest.approx(speed.PROBE_REF_S / 0.0015)   # median, not mean


def test_sampling_records_one_probe_per_call():
    meter = speed.Speedometer()
    meter.sample()
    meter.sample()
    assert len(meter.at) == len(meter.took) == 2
    assert all(t > 0.0 for t in meter.took)
