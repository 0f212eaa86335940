import numpy as np
import pytest

from faultprint import explain, localize


def make_cf(delta) -> explain.Counterfactual:
    delta = np.asarray(delta, dtype=float)
    return explain.Counterfactual(
        delta=delta,
        x_cf=delta.copy(),
        slacks=np.zeros(1),
        objective=float(np.abs(delta).sum()),
        feasible_without_slack=True,
        excess=-1.0,
    )


def test_normalize_scales_by_peak_magnitude():
    result = localize.normalize_explanation(np.array([0.0, -2.0, 1.0]))
    assert np.allclose(result, [0.0, -1.0, 0.5])


def test_normalize_zero_vector_unchanged():
    assert np.array_equal(
        localize.normalize_explanation(np.zeros(4)), np.zeros(4)
    )


def test_normalize_preserves_argmax():
    rng = np.random.default_rng(3)
    for _ in range(100):
        delta = rng.normal(size=10)
        a = localize.predict_faulty_sensor(delta)
        b = localize.predict_faulty_sensor(localize.normalize_explanation(delta))
        assert a == b


def test_predict_takes_largest_magnitude():
    assert localize.predict_faulty_sensor(np.array([0.1, -3.0, 0.2])) == 1


def test_predict_breaks_ties_to_smallest_index():
    assert localize.predict_faulty_sensor(np.array([1.0, 1.0])) == 0


def test_predict_zero_vector_gives_no_prediction():
    assert localize.predict_faulty_sensor(np.zeros(5)) is None


def test_predict_excludes_flow_channels():
    delta = np.array([0.5, 0.1, 2.0])
    assert localize.predict_faulty_sensor(delta, exclude=(2,)) == 0


def test_aggregate_alarm_sequence_mode_and_ties():
    assert localize.aggregate_alarm_sequence([3, 3, 3]) == 3
    assert localize.aggregate_alarm_sequence([4, 4, 7]) == 4
    assert localize.aggregate_alarm_sequence([1, 2, 2, 1]) == 1
    assert localize.aggregate_alarm_sequence([None, 5, None, 5]) == 5
    assert localize.aggregate_alarm_sequence([None, None]) is None


def test_aggregate_alarm_sequence_uses_only_first_k():
    predictions = [1] * 5 + [2] * 20
    assert localize.aggregate_alarm_sequence(predictions, limit=5) == 1


def test_aggregate_alarm_sequence_rejects_empty():
    with pytest.raises(ValueError):
        localize.aggregate_alarm_sequence([])


def test_aggregate_alarm_sequence_permutation_invariant():
    rng = np.random.default_rng(5)
    for _ in range(100):
        preds = list(rng.integers(0, 4, size=12))
        shuffled = list(preds)
        rng.shuffle(shuffled)
        assert localize.aggregate_alarm_sequence(preds, limit=12) == (
            localize.aggregate_alarm_sequence(shuffled, limit=12)
        )


def test_aggregate_baseline_mode_over_models():
    cfs = [make_cf([0.0, 1.0]), make_cf([0.0, 2.0]), make_cf([3.0, 0.0])]
    assert localize.aggregate_baseline(cfs) == 1
    cfs = [make_cf([1.0, 0, 0]), make_cf([1.0, 0, 0]), make_cf([0, 1.0, 0]), make_cf([0, 0, 1.0])]
    assert localize.aggregate_baseline(cfs) == 0


def test_aggregate_baseline_rejects_empty():
    with pytest.raises(ValueError):
        localize.aggregate_baseline([])


def row(sid, true, ens, base):
    return localize.ScenarioPrediction(
        scenario_id=sid,
        fault_kind="constant_offset",
        magnitude=1.0,
        true_sensor=true,
        ensemble_prediction=ens,
        baseline_prediction=base,
    )


def test_report_all_correct():
    report = localize.localization_report([row("a", 1, 1, 1), row("b", 2, 2, 2)])
    assert report.ensemble_accuracy == 1.0
    assert report.ensemble_variance == 0.0
    assert report.baseline_accuracy == 1.0


def test_report_half_correct():
    rows = [row("a", 1, 1, 0), row("b", 2, 0, 0), row("c", 3, 3, 0), row("d", 4, 0, 0)]
    report = localize.localization_report(rows)
    assert report.ensemble_accuracy == 0.5
    assert report.baseline_accuracy == 0.0
    assert report.accuracy_gap == 0.5
    assert report.ensemble_variance == pytest.approx(0.25)


def test_report_counts_no_prediction_as_incorrect():
    report = localize.localization_report([row("a", 1, None, None)])
    assert report.ensemble_accuracy == 0.0
    assert report.baseline_accuracy == 0.0


def test_report_rejects_empty():
    with pytest.raises(ValueError):
        localize.localization_report([])


def test_report_flags_recomputable_from_rows():
    rows = [row("a", 1, 1, 2), row("b", 0, 2, 0)]
    report = localize.localization_report(rows)
    for r in report.rows:
        assert r.ensemble_correct == (r.ensemble_prediction == r.true_sensor)
        assert r.baseline_correct == (r.baseline_prediction == r.true_sensor)


@pytest.mark.parametrize("limit", [0, -1])
def test_aggregate_alarm_sequence_rejects_a_limit_below_one(limit):
    # limit=-1 used to drop the last step silently, and limit=0 to give None.
    with pytest.raises(ValueError, match=f"limit must be at least 1, got {limit}"):
        localize.aggregate_alarm_sequence([1, 2, 2], limit=limit)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_change_is_rejected(bad):
    # A NaN channel used to be predicted faulty, and normalized to all NaN.
    delta = np.array([bad, 1.0])
    with pytest.raises(ValueError, match="must be finite"):
        localize.predict_faulty_sensor(delta)
    with pytest.raises(ValueError, match="must be finite"):
        localize.normalize_explanation(delta)


@pytest.mark.parametrize("exclude", [(-1,), (3,), (0, 5)])
def test_excluded_channels_must_be_channels(exclude):
    # (-1,) used to exclude the last channel, and (5,) on 3 raised IndexError.
    with pytest.raises(ValueError, match=r"not in \[0, 3\)"):
        localize.predict_faulty_sensor(np.array([0.5, 0.1, 2.0]), exclude=exclude)
