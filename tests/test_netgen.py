import numpy as np
import pytest

from faultprint import detector, netgen
from conftest import constant_panel


def test_rank_one_noise_free_panel_is_affine_between_columns():
    cfg = netgen.ScenarioConfig(
        noise_std=0.0, latent_dim=1, n_steps=400, train_end=100, seed=3
    )
    panel = netgen.generate_clean(cfg)
    values = panel.values
    for j in range(1, panel.n_sensors):
        ref = values[:, j]
        if ref.std() < 1e-12:
            continue
        design = np.vstack([ref, np.ones_like(ref)]).T
        coeff, *_ = np.linalg.lstsq(design, values[:, 0], rcond=None)
        fitted = design @ coeff
        assert np.abs(fitted - values[:, 0]).max() < 1e-8


def test_generation_is_deterministic_for_fixed_seed():
    cfg = netgen.ScenarioConfig(seed=11)
    a = netgen.generate_clean(cfg)
    b = netgen.generate_clean(cfg)
    assert np.array_equal(a.values, b.values)
    assert a.labels == b.labels and a.kinds == b.kinds


def test_different_seeds_differ():
    a = netgen.generate_clean(netgen.ScenarioConfig(seed=1))
    b = netgen.generate_clean(netgen.ScenarioConfig(seed=2))
    assert not np.array_equal(a.values, b.values)


def test_default_config_residual_max_within_five_noise_std(default_panel, default_ensemble):
    cfg = netgen.ScenarioConfig()
    residuals = detector.residual_matrix(default_ensemble, default_panel)
    train = residuals[: cfg.train_end - 3]
    assert np.abs(train).max() <= 5.0 * cfg.noise_std


def test_pressure_channels_linearly_predictable(default_panel):
    values = default_panel.values
    for i in default_panel.pressure_indices:
        inputs = np.delete(values, i, axis=1)
        design = np.hstack([inputs, np.ones((len(inputs), 1))])
        coeff, *_ = np.linalg.lstsq(design, values[:, i], rcond=None)
        sse = float(((values[:, i] - design @ coeff) ** 2).sum())
        sst = float(((values[:, i] - values[:, i].mean()) ** 2).sum())
        assert 1.0 - sse / sst >= 0.95


def test_config_invariants_rejected():
    with pytest.raises(ValueError):
        netgen.ScenarioConfig(train_end=2000, n_steps=2000)
    with pytest.raises(ValueError):
        netgen.ScenarioConfig(latent_dim=0)
    with pytest.raises(ValueError):
        netgen.ScenarioConfig(n_pressure=1)
    with pytest.raises(ValueError):
        netgen.ScenarioConfig(noise_std=-0.1)


def test_power_failure_zeroes_readings(default_panel):
    fault = netgen.FaultSpec(kind=netgen.PowerFailure(), sensor=2, onset=800)
    faulty = netgen.inject_fault(default_panel, fault, seed=0)
    assert np.all(faulty.values[800:, 2] == 0.0)
    assert np.array_equal(faulty.values[:800], default_panel.values[:800])


def test_zero_constant_offset_is_identity(default_panel):
    fault = netgen.FaultSpec(kind=netgen.ConstantOffset(0.0), sensor=1, onset=750)
    faulty = netgen.inject_fault(default_panel, fault, seed=0)
    assert np.array_equal(faulty.values, default_panel.values)


def test_drift_arithmetic_from_formula():
    panel = constant_panel(50.0, n_steps=40)
    fault = netgen.FaultSpec(kind=netgen.Drift(rate=0.1, cap=100.0), sensor=0, onset=20)
    faulty = netgen.inject_fault(panel, fault, seed=0)
    assert faulty.values[30, 0] == pytest.approx(51.0, abs=1e-12)
    assert faulty.values[20, 0] == pytest.approx(50.0, abs=1e-12)


def test_drift_clips_reading_at_cap():
    panel = constant_panel(50.0, n_steps=40)
    fault = netgen.FaultSpec(kind=netgen.Drift(rate=10.0, cap=65.0), sensor=0, onset=10)
    faulty = netgen.inject_fault(panel, fault, seed=0)
    assert faulty.values[11, 0] == pytest.approx(60.0)
    assert np.all(faulty.values[12:, 0] == 65.0)


def test_proportional_offset_scales_readings():
    panel = constant_panel(8.0, n_steps=20)
    fault = netgen.FaultSpec(kind=netgen.ProportionalOffset(0.25), sensor=1, onset=5)
    faulty = netgen.inject_fault(panel, fault, seed=0)
    assert np.all(faulty.values[5:, 1] == 10.0)


def test_gaussian_noise_fault_is_seeded(default_panel):
    fault = netgen.FaultSpec(kind=netgen.GaussianNoise(0.5), sensor=3, onset=900)
    a = netgen.inject_fault(default_panel, fault, seed=5)
    b = netgen.inject_fault(default_panel, fault, seed=5)
    c = netgen.inject_fault(default_panel, fault, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_inject_rejects_bad_targets(default_panel):
    flow = default_panel.flow_indices[0]
    with pytest.raises(ValueError):
        netgen.inject_fault(
            default_panel,
            netgen.FaultSpec(kind=netgen.PowerFailure(), sensor=flow, onset=800),
        )
    with pytest.raises(ValueError):
        netgen.inject_fault(
            default_panel,
            netgen.FaultSpec(kind=netgen.PowerFailure(), sensor=0, onset=5000),
        )


def test_fault_locality_over_random_faults():
    rng = np.random.default_rng(42)
    panel = netgen.generate_clean(netgen.ScenarioConfig(n_steps=300, train_end=100, seed=9))
    kinds = [
        lambda: netgen.ConstantOffset(float(rng.normal())),
        lambda: netgen.GaussianNoise(float(rng.uniform(0.1, 2.0))),
        lambda: netgen.PowerFailure(),
        lambda: netgen.ProportionalOffset(float(rng.uniform(-0.5, 0.5))),
        lambda: netgen.Drift(rate=float(rng.uniform(0.01, 1.0)), cap=100.0),
    ]
    for case in range(100):
        kind = kinds[case % len(kinds)]()
        sensor = int(rng.integers(0, len(panel.pressure_indices)))
        onset = int(rng.integers(101, 299))
        fault = netgen.FaultSpec(kind=kind, sensor=sensor, onset=onset)
        faulty = netgen.inject_fault(panel, fault, seed=case)
        diff = faulty.values != panel.values
        assert not diff[:onset].any()
        other = np.delete(diff[onset:], sensor, axis=1)
        assert not other.any()


def test_detectability_monotone_in_offset_magnitude(default_panel, default_ensemble):
    maxima = []
    for c in (0.5, 1.0, 2.0, 4.0):
        fault = netgen.FaultSpec(kind=netgen.ConstantOffset(c), sensor=6, onset=900)
        faulty = netgen.inject_fault(default_panel, fault, seed=0)
        residuals = detector.residual_matrix(default_ensemble, faulty)
        maxima.append(np.abs(residuals[900 - 3 :]).max())
    assert all(b >= a - 1e-12 for a, b in zip(maxima, maxima[1:]))


def test_scenario_rejects_onset_inside_training(default_panel):
    fault = netgen.FaultSpec(kind=netgen.PowerFailure(), sensor=0, onset=100)
    faulty = netgen.inject_fault(default_panel, fault, seed=0)
    with pytest.raises(ValueError):
        netgen.Scenario(
            clean=default_panel,
            faulty=faulty,
            fault=fault,
            config=netgen.ScenarioConfig(),
        )


def test_csv_round_trip_is_exact(tmp_path, default_panel):
    path = tmp_path / "panel.csv"
    netgen.write_csv(default_panel, path)
    loaded = netgen.load_csv(path)
    assert np.array_equal(loaded.values, default_panel.values)
    assert loaded.labels == default_panel.labels
    assert loaded.kinds == default_panel.kinds


def test_csv_round_trip_random_panels(tmp_path):
    rng = np.random.default_rng(0)
    for case in range(100):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 5))
        values = rng.normal(scale=10.0 ** rng.integers(-6, 7), size=(rows, cols))
        kinds = tuple(
            netgen.SensorKind.PRESSURE if rng.random() < 0.7 else netgen.SensorKind.FLOW
            for _ in range(cols)
        )
        labels = tuple(f"c{j}" for j in range(cols))
        panel = netgen.ReadingsPanel(values=values, kinds=kinds, labels=labels)
        path = tmp_path / f"p{case}.csv"
        netgen.write_csv(panel, path)
        loaded = netgen.load_csv(path)
        assert np.array_equal(loaded.values, panel.values)


def test_csv_fixture_parses_to_known_matrix(tmp_path):
    path = tmp_path / "fixture.csv"
    path.write_text(
        "a:pressure,b:pressure,c:flow\n"
        "1.5,-2.25,0.125\n"
        "3.0,4.5,-6.75\n"
        "0.0,1e-3,2.5e2\n",
        encoding="utf-8",
    )
    panel = netgen.load_csv(path)
    expected = np.array([[1.5, -2.25, 0.125], [3.0, 4.5, -6.75], [0.0, 1e-3, 250.0]])
    assert np.array_equal(panel.values, expected)
    assert panel.kinds == (
        netgen.SensorKind.PRESSURE,
        netgen.SensorKind.PRESSURE,
        netgen.SensorKind.FLOW,
    )


def test_csv_missing_cell_error_names_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a:pressure,b:pressure\n1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(netgen.PanelFormatError, match="bad.csv: line 3 has 1 cells, expected 2"):
        netgen.load_csv(path)


def test_csv_non_numeric_cell_error_names_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a:pressure,b:pressure\n1.0,oops\n", encoding="utf-8")
    with pytest.raises(netgen.PanelFormatError, match="bad.csv: line 2, column 'b'.*'oops'"):
        netgen.load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_non_finite_cell_error_names_file_and_cell(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"a:pressure,b:pressure\n1.0,2.0\n3.0,{cell}\n", encoding="utf-8")
    with pytest.raises(netgen.PanelFormatError, match=f"bad.csv: line 3, column 'b'.*{cell}"):
        netgen.load_csv(path)


def test_csv_error_line_counts_lines_of_a_multiline_record(tmp_path):
    # A quoted cell may hold a line break; the editor's line number of the
    # bad record then exceeds its record index + 2.
    path = tmp_path / "bad.csv"
    path.write_text('a:pressure,b:pressure\n"\n1.0",2.0\n3.0,nan\n4.0\n', encoding="utf-8")
    with pytest.raises(netgen.PanelFormatError, match="bad.csv: line 5 has 1 cells"):
        netgen.load_csv(path)
    path.write_text('a:pressure,b:pressure\n"\n1.0",2.0\n3.0,nan\n', encoding="utf-8")
    with pytest.raises(netgen.PanelFormatError, match="bad.csv: line 4, column 'b'.*nan"):
        netgen.load_csv(path)


def test_csv_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a:pressure,b\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(netgen.PanelFormatError, match="column 1"):
        netgen.load_csv(path)
    path.write_text("a:pressure,b:steam\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(netgen.PanelFormatError, match="unknown kind"):
        netgen.load_csv(path)


def test_panel_values_are_immutable(default_panel):
    with pytest.raises(ValueError):
        default_panel.values[0, 0] = 1.0


@pytest.mark.parametrize("a", [0.5, 0.9, 0.995, netgen._WALK_REVERSION])
def test_random_walk_recurrence_matches_lfilter(a):
    from scipy.signal import lfilter

    kicks = np.random.default_rng(17).normal(size=(2000, 3))
    walk = netgen._ar1(kicks, a)
    assert walk.tobytes() == lfilter([1.0], [1.0, -a], kicks, axis=0).tobytes()


def test_generated_panels_match_lfilter_walk(monkeypatch):
    from scipy.signal import lfilter

    configs = [netgen.ScenarioConfig(seed=seed) for seed in (0, 1, 2, 3)]
    panels = [netgen.generate_clean(cfg).values for cfg in configs]
    monkeypatch.setattr(
        netgen, "_ar1", lambda x, a: lfilter([1.0], [1.0, -a], x, axis=0)
    )
    for cfg, values in zip(configs, panels):
        assert values.tobytes() == netgen.generate_clean(cfg).values.tobytes()
