import dataclasses
import re

import numpy as np
import pytest

from faultprint import detector, explain, localize, netgen, pipeline, sensors
from conftest import constant_panel, fresh_copy, kept_program
from oracles import normal_equations_fit, predict, window_average


def random_panel(rng, n_steps=80, n_sensors=5):
    kinds = (netgen.SensorKind.PRESSURE,) * n_sensors
    labels = tuple(f"p{i:02d}" for i in range(n_sensors))
    return netgen.ReadingsPanel(
        values=rng.normal(size=(n_steps, n_sensors)), kinds=kinds, labels=labels
    )


def test_window_average_of_constant_panel():
    panel = constant_panel(3.5)
    result = window_average(panel, t=10, window=3, exclude=1)
    assert np.allclose(result, 3.5)
    assert result.shape == (panel.n_sensors - 1,)


def test_window_average_window_of_one_is_previous_row():
    rng = np.random.default_rng(0)
    panel = random_panel(rng)
    result = window_average(panel, t=7, window=1, exclude=2)
    assert np.array_equal(result, np.delete(panel.values[6], 2))


def test_window_average_simple_mean():
    values = np.zeros((6, 3))
    values[2:5, 0] = [1.0, 2.0, 3.0]
    panel = netgen.ReadingsPanel(
        values=values,
        kinds=(netgen.SensorKind.PRESSURE,) * 3,
        labels=("a", "b", "c"),
    )
    result = window_average(panel, t=5, window=3, exclude=2)
    assert result[0] == pytest.approx(2.0)


def test_window_average_requires_full_window():
    panel = constant_panel(1.0)
    with pytest.raises(ValueError):
        window_average(panel, t=2, window=3, exclude=0)


def test_window_average_permutation_equivariant():
    rng = np.random.default_rng(1)
    panel = random_panel(rng)
    base = window_average(panel, t=9, window=3, exclude=0)
    perm = rng.permutation(panel.n_sensors - 1)
    shuffled_values = panel.values.copy()
    shuffled_values[:, 1:] = shuffled_values[:, 1:][:, perm]
    shuffled = netgen.ReadingsPanel(
        values=shuffled_values, kinds=panel.kinds, labels=panel.labels
    )
    again = window_average(shuffled, t=9, window=3, exclude=0)
    assert np.allclose(again, base[perm])


def test_fit_recovers_exact_windowed_relation():
    rng = np.random.default_rng(2)
    n_steps, n_sensors, window, target = 60, 4, 3, 1
    values = rng.normal(size=(n_steps, n_sensors))
    true_w = np.array([2.0, -1.0, 0.5])
    true_b = 0.75
    means = sensors.lagged_window_means(values, window)
    for t in range(window, n_steps):
        values[t, target] = true_w @ np.delete(means[t], target) + true_b
        means = sensors.lagged_window_means(values, window)
    panel = netgen.ReadingsPanel(
        values=values,
        kinds=(netgen.SensorKind.PRESSURE,) * n_sensors,
        labels=tuple("abcd"),
    )
    model = sensors.fit_virtual_sensor(panel, target, window, (window, n_steps))
    for t in range(window, n_steps):
        predicted = predict(model, window_average(panel, t, window, target))
        assert abs(predicted - values[t, target]) <= 1e-9


def test_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(3)
    panel = random_panel(rng, n_steps=100)
    window, target = 3, 2
    model = sensors.fit_virtual_sensor(panel, target, window, (window, 100))

    means = sensors.lagged_window_means(panel.values, window)[window:]
    inputs = np.delete(means, target, axis=1)
    coeffs = normal_equations_fit(inputs, panel.values[window:, target])
    assert np.abs(model.weights - coeffs[:-1]).max() < 1e-8
    assert abs(model.bias - coeffs[-1]) < 1e-8


def test_fit_on_default_panel_residual_std(default_panel, default_ensemble):
    cfg = netgen.ScenarioConfig()
    window = 3
    means = sensors.lagged_window_means(default_panel.values, window)
    for model in default_ensemble.models:
        inputs = np.delete(means[window : cfg.train_end], model.target, axis=1)
        predictions = inputs @ model.weights + model.bias
        residuals = predictions - default_panel.values[window : cfg.train_end, model.target]
        assert residuals.std() <= 2.0 * cfg.noise_std


def test_fit_rank_deficient_returns_minimum_norm():
    panel = constant_panel(2.0, n_steps=40, n_sensors=4)
    model = sensors.fit_virtual_sensor(panel, 0, 3, (3, 40))
    # exact fit with the smallest coefficient vector
    assert predict(model, np.full(3, 2.0)) == pytest.approx(2.0)
    direct = sensors.fit_virtual_sensor(panel, 0, 3, (3, 40))
    assert np.array_equal(model.weights, direct.weights)


def test_fit_underdetermined_range_rejected():
    panel = constant_panel(1.0, n_steps=12, n_sensors=6)
    with pytest.raises(ValueError):
        sensors.fit_virtual_sensor(panel, 0, 3, (3, 9))


def test_model_and_panel_copy_the_arrays_they_freeze():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(6, 3))
    panel = random_panel(rng, n_steps=6, n_sensors=3).with_values(values)
    model = sensors.LinearModel(weights=values[0, :2], bias=0.0, target=2, window=3)
    frozen = values.copy()
    values += 1.0  # the caller's array stays writable
    assert np.array_equal(panel.values, frozen)
    assert np.array_equal(model.weights, frozen[0, :2])
    for arr in (panel.values, model.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_predict_constant_model():
    model = sensors.LinearModel(weights=np.zeros(3), bias=5.0, target=0, window=3)
    assert predict(model, np.array([9.0, -4.0, 2.0])) == 5.0


def test_predict_coordinate_pick():
    model = sensors.LinearModel(
        weights=np.array([1.0, 0.0, 0.0]), bias=0.0, target=0, window=3
    )
    assert predict(model, np.array([1.0, 0.0, 0.0])) == 1.0


def test_predict_matches_hand_expanded_dot_product():
    model = sensors.LinearModel(
        weights=np.array([0.25, -1.5, 2.0]), bias=0.5, target=1, window=3
    )
    inputs = np.array([4.0, 2.0, -0.5])
    expected = 0.25 * 4.0 + (-1.5) * 2.0 + 2.0 * (-0.5) + 0.5
    assert predict(model, inputs) == pytest.approx(expected, abs=1e-12)


def test_predict_rejects_length_mismatch():
    model = sensors.LinearModel(weights=np.zeros(3), bias=0.0, target=0, window=3)
    with pytest.raises(ValueError):
        predict(model, np.zeros(4))


def test_prediction_is_affine_linear():
    rng = np.random.default_rng(4)
    model = sensors.LinearModel(weights=rng.normal(size=6), bias=1.25, target=0, window=3)
    for _ in range(50):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        lhs = predict(model, u + v) - model.bias
        rhs = (predict(model, u) - model.bias) + (
            predict(model, v) - model.bias
        )
        assert abs(lhs - rhs) <= 1e-10


def test_fitted_coefficients_are_sse_optimal():
    rng = np.random.default_rng(5)
    panel = random_panel(rng, n_steps=70)
    window, target = 3, 0
    model = sensors.fit_virtual_sensor(panel, target, window, (window, 70))
    means = sensors.lagged_window_means(panel.values, window)[window:]
    inputs = np.delete(means, target, axis=1)
    response = panel.values[window:, target]

    def sse(weights, bias):
        return float(((inputs @ weights + bias - response) ** 2).sum())

    base = sse(model.weights, model.bias)
    for j in range(len(model.weights)):
        for eps in (1e-3, -1e-3):
            perturbed = model.weights.copy()
            perturbed[j] += eps
            assert sse(perturbed, model.bias) >= base
    for eps in (1e-3, -1e-3):
        assert sse(model.weights, model.bias + eps) >= base


def test_train_ensemble_covers_pressure_channels(default_panel, default_ensemble):
    assert default_ensemble.targets == default_panel.pressure_indices
    assert all(m.window == 3 for m in default_ensemble.models)


def test_ensemble_serialization_round_trip_bit_equal(tmp_path, default_ensemble):
    path = tmp_path / "models.txt"
    sensors.save_ensemble(default_ensemble, path)
    loaded = sensors.load_ensemble(path)
    assert len(loaded.models) == len(default_ensemble.models)
    for a, b in zip(loaded.models, default_ensemble.models):
        assert a.target == b.target and a.window == b.window
        assert a.bias == b.bias
        assert np.array_equal(a.weights, b.weights)


def test_load_ensemble_rejects_garbage(tmp_path):
    path = tmp_path / "models.txt"
    path.write_text("0 3 nope 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        sensors.load_ensemble(path)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "0 3 0.5 1.0\n1 3 0.5 nan\n",
            "line 2 is not a valid model: model coefficients must be finite",
        ),
        ("0 3 0.5 1.0\n1 4 0.5 1.0\n", "all models must share the ensemble window"),
        ("0 3 0.5 1.0\n0 3 0.5 1.0\n", "duplicate target channel in ensemble"),
        ("0 3 nope 1.0\n", "line 1 is not a valid model: could not convert string to float: 'nope'"),
        ("\n0 3 0.5\n", "line 2 too short for a model"),
        (
            "0 3 0.5 1.0\n-1 3 0.5 1.0\n",
            "line 2 is not a valid model: target index -1 out of range for 2 sensors",
        ),
        (
            "14 3 0.5" + " 1.0" * 13 + "\n",
            "line 1 is not a valid model: target index 14 out of range for 14 sensors",
        ),
    ],
)
def test_load_ensemble_invalid_model_error_names_file(tmp_path, text, message):
    path = tmp_path / "models.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        sensors.load_ensemble(path)
    assert str(excinfo.value) == f"{path}: {message}"


def test_explained_ensemble_equals_its_saved_copy(tmp_path, default_ensemble, default_panel):
    # The program an explanation leaves on the ensemble and its models is
    # no part of their value: not compared, not shown, not saved.
    ensemble = fresh_copy(default_ensemble)
    x = default_panel.values[1000]
    explain.ensemble_counterfactual(ensemble, x)
    explain.independent_counterfactual(ensemble.models[0], x)
    assert kept_program(ensemble) is not None
    assert kept_program(ensemble.models[0]) is not None
    path = tmp_path / "models.txt"
    sensors.save_ensemble(ensemble, path)
    loaded = sensors.load_ensemble(path)
    assert kept_program(loaded) is None
    assert loaded == ensemble and ensemble == loaded
    assert loaded.models[0] == ensemble.models[0]
    assert "program" not in repr(ensemble)
    other = dataclasses.replace(ensemble.models[0], bias=ensemble.models[0].bias + 1.0)
    assert other != ensemble.models[0]
    assert ensemble != sensors.Ensemble(models=(other,), window=ensemble.window)


def test_explained_ensemble_fields_hold_only_model_data(default_ensemble, default_panel):
    ensemble = fresh_copy(default_ensemble)
    x = default_panel.values[1000]
    explain.ensemble_counterfactual(ensemble, x)
    explain.independent_counterfactual(ensemble.models[0], x)
    model_fields = ["weights", "bias", "target", "window"]
    assert [f.name for f in dataclasses.fields(ensemble)] == ["models", "window"]
    assert [f.name for f in dataclasses.fields(ensemble.models[0])] == model_fields
    as_dict = dataclasses.asdict(ensemble)
    assert list(as_dict) == ["models", "window"]
    assert [list(model) for model in as_dict["models"]] == [model_fields] * len(ensemble.models)
    assert len(dataclasses.astuple(ensemble)) == 2
    assert len(dataclasses.astuple(ensemble.models[0])) == 4


@pytest.mark.parametrize(
    "name, call, good",
    [
        ("target", lambda panel, v: sensors.LinearModel(np.zeros(4), 0.0, target=v, window=3), 1),
        ("window", lambda panel, v: sensors.LinearModel(np.zeros(4), 0.0, target=1, window=v), 3),
        ("target", lambda panel, v: sensors.fit_virtual_sensor(panel, v), 1),
        ("window", lambda panel, v: sensors.train_ensemble(panel, window=v), 3),
        ("window", lambda panel, v: sensors.lagged_window_means(panel.values, v), 3),
        ("t", lambda panel, v: explain.snapshot_at_alarm(panel, sensors.train_ensemble(panel), v), 5),
        ("exclude", lambda panel, v: localize.predict_faulty_sensor(np.ones(5), exclude=[v]), 4),
        ("limit", lambda panel, v: localize.aggregate_alarm_sequence([1, 2], limit=v), 1),
    ],
    ids=[
        "LinearModel-target", "LinearModel-window", "fit_virtual_sensor-target",
        "train_ensemble-window", "lagged_window_means-window", "snapshot_at_alarm-t",
        "predict_faulty_sensor-exclude", "aggregate_alarm_sequence-limit",
    ],
)
@pytest.mark.parametrize("bad", [True, 2.5])
def test_index_and_size_arguments_must_be_integers(name, call, good, bad):
    panel = random_panel(np.random.default_rng(3))
    with pytest.raises(ValueError, match=rf"^{name} .*{re.escape(repr(bad))}"):
        call(panel, bad)
    call(panel, np.int64(good))  # a numpy integer is an integer


def test_training_computes_the_window_means_once_per_panel(monkeypatch):
    # Every fit and the calibration read one array of window means; the
    # result is bit-equal to fitting each target and calibrating on its own.
    calls = []
    means = sensors.lagged_window_means
    monkeypatch.setattr(
        sensors, "lagged_window_means", lambda *args: calls.append(args[1]) or means(*args)
    )
    configs = [netgen.ScenarioConfig(seed=seed) for seed in (1, 2)]
    panels = [netgen.generate_clean(cfg) for cfg in configs]
    window, margin = 3, 1.1
    trained = [
        pipeline.train_scenario(panel, cfg.train_end, window, margin)
        for panel, cfg in zip(panels, configs)
    ]
    assert calls == [window] * len(panels)

    for panel, cfg, (ensemble, threshold) in zip(panels, configs, trained):
        fit_range = (window, cfg.train_end)
        # A new but equal panel per call, so no call can reuse another's means.
        models = tuple(
            sensors.fit_virtual_sensor(panel.with_values(panel.values), target, window, fit_range)
            for target in panel.pressure_indices
        )
        reference = sensors.Ensemble(models=models, window=window)
        expected = detector.calibrate_threshold(
            reference, panel.with_values(panel.values), fit_range, margin=margin
        )
        assert [(m.weights.tobytes(), m.bias, m.target) for m in ensemble.models] == [
            (m.weights.tobytes(), m.bias, m.target) for m in reference.models
        ]
        assert threshold == expected
    # The reference computes its means for each fit and for the
    # calibration: 12 + 1 per panel.
    targets = len(panels[0].pressure_indices)
    assert len(calls) == len(panels) * (1 + targets + 1)


def test_kept_window_means_answer_only_their_own_window():
    panel, scored = (random_panel(np.random.default_rng(seed)) for seed in (5, 6))
    ensemble = sensors.train_ensemble(panel, 3)
    # Scoring a panel keeps nothing on it, so a panel only detected on
    # holds no second copy of its size.
    detector.detect(ensemble, scored, 1.0)
    assert sensors._KEPT_MEANS in vars(panel) and sensors._KEPT_MEANS not in vars(scored)
    for window in (1, 2, 4):
        fresh = sensors.fit_virtual_sensor(panel.with_values(panel.values), 0, window)
        assert sensors.fit_virtual_sensor(panel, 0, window) == fresh
    for bad in (3.0, True):
        with pytest.raises(ValueError, match="^window must be an integer"):
            sensors.fit_virtual_sensor(panel, 0, bad)
