import numpy as np
import pytest

from faultprint import netgen, sensors
from conftest import constant_panel
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
    ],
)
def test_load_ensemble_invalid_model_error_names_file(tmp_path, text, message):
    path = tmp_path / "models.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        sensors.load_ensemble(path)
    assert str(excinfo.value) == f"{path}: {message}"
