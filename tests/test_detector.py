import math

import numpy as np
import pytest

from faultprint import detector, netgen, sensors
from conftest import constant_panel


def exact_fit_ensemble(panel: netgen.ReadingsPanel, value: float) -> sensors.Ensemble:
    """Models whose prediction is always exactly ``value``."""
    n = panel.n_sensors
    models = tuple(
        sensors.LinearModel(weights=np.zeros(n - 1), bias=value, target=i, window=3)
        for i in range(n)
    )
    return sensors.Ensemble(models=models, window=3)


def offset_stream(alarm_flags, start=3) -> detector.AlarmStream:
    """AlarmStream with the given flags from step ``start`` on."""
    return detector.AlarmStream(start, np.asarray(alarm_flags, dtype=bool))


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -1.0])
def test_detect_rejects_a_threshold_that_is_not_nonnegative_and_finite(threshold):
    panel = constant_panel(4.0, n_steps=400)
    ensemble = exact_fit_ensemble(panel, 4.0)
    with pytest.raises(ValueError, match=f"^threshold must be nonnegative and finite, got {threshold}$"):
        detector.detect(ensemble, panel, threshold)
    calibrated = detector.calibrate_threshold(ensemble, panel, (3, 400))
    assert detector.detect(ensemble, panel, calibrated).alarms.shape == (397,)


def test_calibrate_zero_residuals_gives_zero_threshold():
    panel = constant_panel(4.0, n_steps=80)
    ensemble = exact_fit_ensemble(panel, 4.0)
    assert detector.calibrate_threshold(ensemble, panel, (3, 80)) == 0.0


def test_calibrate_margin_arithmetic():
    panel = constant_panel(4.0, n_steps=80)
    ensemble = exact_fit_ensemble(panel, 4.5)  # every residual is exactly 0.5
    delta = detector.calibrate_threshold(ensemble, panel, (3, 80), margin=1.1)
    assert delta == pytest.approx(0.55, abs=1e-12)


def test_calibrate_rejects_short_or_bad_ranges():
    panel = constant_panel(1.0, n_steps=80)
    ensemble = exact_fit_ensemble(panel, 1.0)
    with pytest.raises(ValueError):
        detector.calibrate_threshold(ensemble, panel, (3, 30))
    with pytest.raises(ValueError):
        detector.calibrate_threshold(ensemble, panel, (0, 80))
    with pytest.raises(ValueError):
        detector.calibrate_threshold(ensemble, panel, (3, 80), margin=0.5)


@pytest.mark.parametrize("margin", [np.nan, np.inf])
def test_calibrate_rejects_non_finite_margin(margin):
    panel = constant_panel(1.0, n_steps=80)
    ensemble = exact_fit_ensemble(panel, 1.0)
    with pytest.raises(ValueError, match="margin"):
        detector.calibrate_threshold(ensemble, panel, (3, 80), margin=margin)


def test_calibrated_threshold_has_no_false_alarms_held_out(
    default_panel, default_ensemble, default_threshold
):
    stream = detector.detect(default_ensemble, default_panel, default_threshold)
    assert not stream.alarms.any()


def test_power_failure_detected_within_two_steps(
    default_ensemble, default_threshold, power_failure_scenario
):
    stream = detector.detect(
        default_ensemble, power_failure_scenario.faulty, default_threshold
    )
    report = detector.detection_metrics(stream, power_failure_scenario.fault)
    assert report.detected
    assert report.detection_delay <= 2
    assert report.false_positive_rate == 0.0


def test_alarm_stream_invariant_recheckable(default_ensemble, default_threshold, power_failure_scenario):
    stream = detector.detect(
        default_ensemble, power_failure_scenario.faulty, default_threshold
    )
    residuals = detector.residual_matrix(default_ensemble, power_failure_scenario.faulty)
    recomputed = np.abs(residuals).max(axis=1) > default_threshold
    assert np.array_equal(recomputed, stream.alarms)


def test_metrics_perfect_detector():
    flags = np.zeros(100, dtype=bool)
    flags[50:] = True
    stream = offset_stream(flags)
    fault = netgen.FaultSpec(kind=netgen.PowerFailure(), sensor=0, onset=53)
    report = detector.detection_metrics(stream, fault)
    assert report.true_positive_rate == 1.0
    assert report.false_positive_rate == 0.0
    assert report.detection_delay == 0.0
    assert report.detected


def test_metrics_no_alarms():
    stream = offset_stream(np.zeros(100, dtype=bool))
    fault = netgen.FaultSpec(kind=netgen.PowerFailure(), sensor=0, onset=60)
    report = detector.detection_metrics(stream, fault)
    assert report.true_positive_rate == 0.0
    assert report.false_negative_rate == 1.0
    assert math.isinf(report.detection_delay)
    assert not report.detected


def test_metrics_delay_one():
    flags = np.zeros(100, dtype=bool)
    flags[61:] = True  # first alarm at absolute step 61 + 3
    stream = offset_stream(flags)
    fault = netgen.FaultSpec(kind=netgen.PowerFailure(), sensor=0, onset=63)
    report = detector.detection_metrics(stream, fault)
    assert report.detection_delay == 1.0


def test_metrics_rates_partition_segments():
    rng = np.random.default_rng(7)
    for _ in range(50):
        flags = rng.random(80) < 0.3
        stream = offset_stream(flags)
        onset = int(rng.integers(stream.start + 1, stream.end - 1))
        fault = netgen.FaultSpec(kind=netgen.PowerFailure(), sensor=0, onset=onset)
        report = detector.detection_metrics(stream, fault)
        assert report.true_positive_rate + report.false_negative_rate == pytest.approx(1.0)
        assert report.true_negative_rate + report.false_positive_rate == pytest.approx(1.0)
        if report.detected:
            assert report.detection_delay >= 0


def test_metrics_derive_complements_and_detection_bit_for_bit(
    default_ensemble, default_threshold, power_failure_scenario
):
    steps = np.arange(100)
    cases = [  # the streams and onsets of the metric tests above
        (offset_stream(steps >= 50), 53),
        (offset_stream(np.zeros(100, dtype=bool)), 60),
        (offset_stream(steps >= 61), 63),
    ]
    rng = np.random.default_rng(7)
    for _ in range(50):
        cases.append((offset_stream(rng.random(80) < 0.3), int(rng.integers(4, 83))))
    stream = detector.detect(default_ensemble, power_failure_scenario.faulty, default_threshold)
    cases.append((stream, power_failure_scenario.fault.onset))
    for stream, onset in cases:
        fault = netgen.FaultSpec(kind=netgen.PowerFailure(), sensor=0, onset=onset)
        report = detector.detection_metrics(stream, fault)
        assert report.true_negative_rate == 1.0 - report.false_positive_rate
        assert report.false_negative_rate == 1.0 - report.true_positive_rate
        assert report.detected is bool((stream.alarm_steps() >= onset).any())


def test_metrics_rejects_onset_outside_range():
    stream = offset_stream(np.zeros(50, dtype=bool))
    with pytest.raises(ValueError):
        detector.detection_metrics(
            stream, netgen.FaultSpec(kind=netgen.PowerFailure(), sensor=0, onset=2)
        )


def test_raising_threshold_never_adds_alarms(default_panel, default_ensemble):
    rng = np.random.default_rng(11)
    fault = netgen.FaultSpec(kind=netgen.GaussianNoise(0.3), sensor=5, onset=800)
    faulty = netgen.inject_fault(default_panel, fault, seed=3)
    for _ in range(100):
        low, high = np.sort(rng.uniform(0.0, 0.3, size=2))
        loose = set(detector.detect(default_ensemble, faulty, float(high)).alarm_steps())
        tight = set(detector.detect(default_ensemble, faulty, float(low)).alarm_steps())
        assert loose.issubset(tight)
