"""Self-tests of the benchmark's calibration and statistics.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import time

import pytest

import calib


def test_calibrate_rescales_to_the_nominal_probe():
    # A probe twice the nominal duration means the machine ran at half
    # speed: the calibrated time is half the raw time.
    nominal = calib.NOMINAL_PROBE_S
    assert calib.calibrate(1.0, [2 * nominal, 2 * nominal]) == pytest.approx(0.5)
    # Probes on either side of a phase are averaged.
    assert calib.calibrate(3.0, [nominal, 2 * nominal]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        calib.calibrate(1.0, [])


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert calib.percentile(values, 0.0) == 1.0
    assert calib.percentile(values, 1.0) == 4.0
    assert calib.percentile(values, 0.5) == pytest.approx(2.5)
    assert calib.percentile(values, 0.9) == pytest.approx(3.7)
    assert calib.percentile([7.0], 0.9) == 7.0
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            calib.percentile(values, bad)
    with pytest.raises(ValueError):
        calib.percentile([], 0.5)


def test_tail_fraction_keeps_ten_samples_beyond():
    assert calib.tail_fraction(100) == pytest.approx(0.90)
    assert calib.tail_fraction(250) == pytest.approx(0.90)
    assert calib.tail_fraction(50) == pytest.approx(0.80)
    assert calib.tail_fraction(20) == pytest.approx(0.50)
    assert calib.tail_fraction(19) is None
    for count in (20, 37, 100, 1000):
        fraction = calib.tail_fraction(count)
        assert count * (1 - fraction) >= calib.TAIL_SAMPLES - 1e-9


def test_probe_pauses_the_garbage_collector_and_restores_it():
    import gc

    assert gc.isenabled()
    assert calib.probe(1000) > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        calib.probe(1000)
        assert not gc.isenabled()
    finally:
        gc.enable()


def _fake_probes(*durations):
    queue = list(durations)
    return lambda: queue.pop(0)


def test_consecutive_windows_share_a_probe():
    cal = calib.Calibrator(_fake_probes(0.010, 0.020, 0.030))
    with cal.window() as first:
        first.add(1.0)
    with cal.window() as second:
        second.add(1.0)
        second.add(2.0)
    assert first.probes == [0.010, 0.020]
    assert second.probes == [0.020, 0.030]
    nominal = calib.NOMINAL_PROBE_S
    assert first.calibrated == pytest.approx([nominal / 0.015])
    assert second.calibrated == pytest.approx([nominal / 0.025, 2 * nominal / 0.025])
    assert cal.log == [0.010, 0.020, 0.030]
    assert cal.probe_ms == pytest.approx(20.0)


def test_invalidate_opens_the_next_window_with_a_fresh_probe():
    cal = calib.Calibrator(_fake_probes(0.010, 0.020, 0.040, 0.050))
    with cal.window():
        pass
    cal.invalidate()
    with cal.window() as window:
        pass
    assert window.probes == [0.040, 0.050]


def test_window_closes_with_a_probe_when_the_op_raises():
    cal = calib.Calibrator(_fake_probes(0.010, 0.020))
    with pytest.raises(RuntimeError):
        with cal.window():
            raise RuntimeError("op failed")
    assert cal.log == [0.010, 0.020]


def test_sampler_probes_until_stopped():
    with calib.Sampler(interval_s=0.001) as sampler:
        time.sleep(0.1)
    count = len(sampler.samples)
    assert count >= 1
    assert all(sample > 0.0 for sample in sampler.samples)
    assert not sampler._thread.is_alive()
    time.sleep(0.02)
    assert len(sampler.samples) == count
