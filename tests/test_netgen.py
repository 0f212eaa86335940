import re

import numpy as np
import pytest

from faultprint import detector, netgen
from conftest import constant_panel
from oracles import load_panel_csv, mixing_matrix_reference, write_panel_csv


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


@pytest.mark.parametrize(
    "field_name,value",
    [
        ("n_pressure", 12.0),
        ("n_pressure", True),
        ("n_flow", True),
        ("n_flow", 2.5),
        ("n_steps", 2000.5),
        ("train_end", 700.5),
        ("latent_dim", 3.0),
        ("seed", 1.5),
        ("seed", False),
        ("seed", -1),
    ],
)
def test_config_rejects_non_integer_sizes_and_seeds(field_name, value):
    with pytest.raises(ValueError, match=f"^{field_name} must be (an integer|at least 0)"):
        netgen.ScenarioConfig(**{field_name: value})


@pytest.mark.parametrize(
    "value, message",
    [
        ("0.1", "a real number, got '0.1'"),  # was a bare TypeError
        (True, "a real number, got True"),  # was taken as 1.0
        (None, "a real number, got None"),
        (np.nan, "finite, got nan"),
        (-np.inf, "finite, got -inf"),
        (-0.5, "nonnegative, got -0.5"),
    ],
)
def test_config_holds_noise_std_to_the_real_number_rule(value, message):
    with pytest.raises(ValueError, match=f"^noise_std must be {re.escape(message)}$"):
        netgen.ScenarioConfig(noise_std=value)


def test_config_accepts_numpy_integers():
    cfg = netgen.ScenarioConfig(
        n_pressure=np.int64(4), n_flow=np.int32(1), n_steps=np.int64(300),
        train_end=np.int64(100), latent_dim=np.int16(2), seed=np.uint32(5),
    )
    panel = netgen.generate_clean(cfg)
    assert panel.values.shape == (300, 5)
    assert panel.values.tobytes() == netgen.generate_clean(
        netgen.ScenarioConfig(n_pressure=4, n_flow=1, n_steps=300, train_end=100, latent_dim=2, seed=5)
    ).values.tobytes()


@pytest.mark.parametrize(
    "field, value",
    [("sensor", True), ("sensor", 2.0), ("sensor", 2.5), ("onset", False), ("onset", 800.0), ("onset", "800")],
)
def test_fault_spec_rejects_a_non_integer_sensor_or_onset(field, value):
    fields = {"sensor": 2, "onset": 800, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        netgen.FaultSpec(kind=netgen.PowerFailure(), **fields)


def test_fault_spec_accepts_numpy_integers():
    fault = netgen.FaultSpec(kind=netgen.PowerFailure(), sensor=np.int64(2), onset=np.int32(800))
    assert (fault.sensor, fault.onset) == (2, 800)


_FAULT_PARAMETERS = {
    "offset": (netgen.ConstantOffset, {"offset": 1.0}),
    "sigma": (netgen.GaussianNoise, {"sigma": 1.0}),
    "alpha": (netgen.ProportionalOffset, {"alpha": 0.2}),
    "rate": (netgen.Drift, {"rate": 0.1, "cap": 100.0}),
    "cap": (netgen.Drift, {"rate": 0.1, "cap": 100.0}),
}
_NOT_REAL = [True, False, np.bool_(True), "2", None, [1.0], 1j]
_NON_FINITE = [np.nan, np.inf, -np.inf, np.float32(np.nan)]


@pytest.mark.parametrize(
    "field, value, message",
    [(field, value, "a real number") for field in _FAULT_PARAMETERS for value in _NOT_REAL]
    + [
        (field, value, "finite")
        for field in ("offset", "sigma", "alpha", "rate")
        for value in _NON_FINITE
    ]
    + [("cap", np.nan, "above -inf"), ("cap", -np.inf, "above -inf"), ("sigma", -0.5, "nonnegative")]
    # Past float range, where float() overflows
    + [
        pytest.param(field, sign * 10**400, "a float can hold", id=f"{field}-{sign * 10}**400")
        for field, sign in [(field, 1) for field in _FAULT_PARAMETERS] + [("cap", -1)]
    ],
)
def test_fault_kinds_reject_a_bad_parameter_by_name(field, value, message):
    kind, fields = _FAULT_PARAMETERS[field]
    with pytest.raises(ValueError, match=f"^{field} must be .*{message}"):
        kind(**{**fields, field: value})
    # the same kind takes numpy and Python numbers, and a cap of +inf (uncapped)
    for number in (np.float64(0.5), np.int64(2), 3):
        assert getattr(kind(**{**fields, field: number}), field) == number
    assert netgen.Drift(rate=0.1, cap=np.inf).cap == np.inf


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
    with pytest.raises(ValueError, match=rf"^sensor must be one of the pressure channels .*, got {flow}$"):
        netgen.inject_fault(
            default_panel,
            netgen.FaultSpec(kind=netgen.PowerFailure(), sensor=flow, onset=800),
        )
    with pytest.raises(ValueError, match="^onset must be a step below 2000, got 5000$"):
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


def test_panels_compare_field_by_field(tmp_path, default_panel):
    path = tmp_path / "panel.csv"
    netgen.write_csv(default_panel, path)
    assert netgen.load_csv(path) == default_panel  # a round trip is the same panel
    values = default_panel.values.copy()
    values[7, 2] += 1e-9
    assert default_panel.with_values(values) != default_panel
    kinds, labels = default_panel.kinds, default_panel.labels
    flipped = (kinds[-1],) + kinds[:-1]
    assert kinds != flipped
    assert netgen.ReadingsPanel(default_panel.values, flipped, labels) != default_panel
    renamed = labels[:-1] + ("other",)
    assert netgen.ReadingsPanel(default_panel.values, kinds, renamed) != default_panel
    assert default_panel != "panel"  # another type is never equal


def _random_panel(rng, rows, cols, values=None) -> netgen.ReadingsPanel:
    if values is None:
        values = rng.normal(scale=10.0 ** rng.integers(-6, 7), size=(rows, cols))
    kinds = tuple(
        netgen.SensorKind.PRESSURE if rng.random() < 0.7 else netgen.SensorKind.FLOW
        for _ in range(cols)
    )
    return netgen.ReadingsPanel(values, kinds, tuple(f"c{j}" for j in range(cols)))


def test_csv_round_trip_random_panels(tmp_path):
    rng = np.random.default_rng(0)
    for case in range(100):
        panel = _random_panel(rng, int(rng.integers(1, 6)), int(rng.integers(1, 5)))
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


def test_csv_cell_beyond_the_field_size_limit_is_a_format_error(tmp_path):
    # The csv module reads at most 131072 characters per cell by default;
    # numpy cannot parse these cells, so the csv reader meets them.
    path = tmp_path / "bad.csv"
    long_cell = "1" * 140_000 + "x"
    path.write_text(f"a:pressure,b:pressure\r\n1.0,2.0\r\n{long_cell},3.0\r\n", encoding="utf-8")
    with pytest.raises(netgen.PanelFormatError, match="bad.csv: line 3: field larger"):
        netgen.load_csv(path)
    path.write_text(f"{long_cell}:pressure\r\n1.0\r\n", encoding="utf-8")
    with pytest.raises(netgen.PanelFormatError, match="bad.csv: line 1: field larger"):
        netgen.load_csv(path)


@pytest.mark.parametrize("label", ["", "a:b", ":"])
def test_panel_rejects_a_label_its_csv_header_cannot_hold(label):
    kinds = (netgen.SensorKind.PRESSURE,) * 2
    with pytest.raises(ValueError, match=f"sensor label {label!r}"):
        netgen.ReadingsPanel(np.zeros((2, 2)), kinds, (label, "c"))


def test_csv_round_trip_keeps_every_accepted_label(tmp_path):
    labels = ("a b", "a,b", 'q"uote', "line\nbreak", "cr\rx", " lead", "#hash", "ünï", "nan")
    kinds = tuple(netgen.SensorKind(k) for k in ("pressure", "flow") * 5)[: len(labels)]
    panel = netgen.ReadingsPanel(np.arange(2.0 * len(labels)).reshape(2, -1), kinds, labels)
    path = tmp_path / "labels.csv"
    netgen.write_csv(panel, path)
    loaded = netgen.load_csv(path)
    assert (loaded.labels, loaded.kinds) == (labels, kinds)
    assert np.array_equal(loaded.values, panel.values)


def _outcome(load, path):
    """What a reader makes of a file: the panel's values and layout, or its error."""
    try:
        panel = load(path)
    except Exception as exc:  # every error, not only PanelFormatError, must agree
        return type(exc), str(exc)
    return panel.values.tobytes(), panel.values.shape, panel.kinds, panel.labels


# Cells the csv reader and float() treat in ways numpy's parser may not.
_HOSTILE_CELLS = (
    "1_0", '"1.5"', '"1,5"', "#1", "nan", "inf", "-Infinity", "1e", "1d0", "0x1p0", "",
    " 2.5 ", "\t2.5\t", "\u30002.5", "2.5\xa0", "１２", "\ufeff1", "2.5\x1c",
    "\x1f2.5", "1\x00", "1e999",
)


def _hostile_variants(rng, header: str, rows: list[list[str]]):
    """File texts derived from one valid panel: each breaks or bends one rule."""
    def text(lines, eol="\r\n", final=True):
        return eol.join(lines) + (eol if final else "")

    lines = [header] + [",".join(row) for row in rows]
    i = int(rng.integers(1, len(lines)))  # a data line
    j = int(rng.integers(len(rows[0])))  # a column
    yield text(lines)
    yield text(lines, "\n")
    yield text(lines, "\r")
    yield "".join(line + ("\r\n", "\n", "\r")[k % 3] for k, line in enumerate(lines))
    yield text(lines[:i] + [""] + lines[i:])  # a blank line
    yield text(lines[:i] + ["  \t"] + lines[i:])  # a line of padding
    yield text(lines + [""])  # a trailing blank line
    yield text(lines, final=False)  # no final newline
    yield text(lines[:i] + ["# a note"] + lines[i:])
    yield text(lines[:i] + [lines[i] + ","] + lines[i + 1:])  # a trailing comma
    yield text(lines[:i] + [lines[i] + ",1.0"] + lines[i + 1:])  # one wide row
    yield text([header] + [line + ",1.0" for line in lines[1:]])  # all rows wide
    yield text(lines[:i] + [",".join(rows[i - 1][:-1])] + lines[i + 1:])  # a short row
    yield "\ufeff" + text(lines)  # a byte-order mark
    yield text([header])  # no data rows
    yield text([""] * len(lines))  # no columns
    yield ""
    for cell in _HOSTILE_CELLS:
        bent = [list(row) for row in rows]
        bent[i - 1][j] = cell
        yield text([header] + [",".join(row) for row in bent])


@pytest.mark.filterwarnings("error")  # numpy warns on a file with no data
def test_load_csv_agrees_with_the_csv_module_reader(tmp_path):
    # Same values (bit for bit) or the same error, on valid and hostile files.
    rng = np.random.default_rng(11)
    path = tmp_path / "panel.csv"
    for _ in range(12):
        panel = _random_panel(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        header = ",".join(f"{l}:{k.value}" for l, k in zip(panel.labels, panel.kinds))
        rows = [[repr(v) for v in row] for row in panel.values.tolist()]
        for text in _hostile_variants(rng, header, rows):
            path.write_text(text, encoding="utf-8", newline="")
            assert _outcome(netgen.load_csv, path) == _outcome(load_panel_csv, path), text


@pytest.mark.filterwarnings("error")  # numpy warns on a file with no data
def test_load_csv_agrees_with_the_csv_module_reader_on_random_cells(tmp_path):
    rng = np.random.default_rng(12)
    tokens = ("1", "2.5", "-", "+", ".", "e", "_", " ", "\t", "\x0b", "\x1d", "\xa0",
              "７", '"', "#", "nan", "inf", "\ufeff", "\x00")
    path = tmp_path / "panel.csv"
    for _ in range(300):
        cols = int(rng.integers(1, 4))
        lines = ["a:pressure,b:flow,c:pressure".rsplit(",", 3 - cols)[0]]
        for _ in range(int(rng.integers(1, 4))):
            cells = [
                repr(float(rng.normal())) if rng.random() < 0.6
                else "".join(rng.choice(tokens, size=int(rng.integers(0, 4))))
                for _ in range(cols)
            ]
            lines.append(",".join(cells))
        path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
        assert _outcome(netgen.load_csv, path) == _outcome(load_panel_csv, path), lines


def test_csv_module_cells_stay_valid(tmp_path):
    # numpy rejects these; the csv reader accepts them, so load_csv must too.
    path = tmp_path / "panel.csv"
    path.write_text(
        'a:pressure,b:pressure,c:flow\r\n1_0,"1.5",１２\r\n', encoding="utf-8"
    )
    assert netgen.load_csv(path).values.tolist() == [[10.0, 1.5, 12.0]]


def test_written_panels_are_parsed_without_the_csv_module(tmp_path, monkeypatch):
    rng = np.random.default_rng(13)
    path = tmp_path / "panel.csv"

    def unexpected(path):
        raise AssertionError(f"{path} fell back to the csv reader")

    monkeypatch.setattr(netgen, "_load_csv_records", unexpected)
    for rows, cols in ((1, 1), (1, 3), (4, 1), (50, 14)):
        panel = _random_panel(rng, rows, cols)
        netgen.write_csv(panel, path)
        assert np.array_equal(netgen.load_csv(path).values, panel.values)


def test_write_csv_bytes_match_the_csv_module_writer(tmp_path):
    rng = np.random.default_rng(14)
    tiny = np.finfo(float).tiny  # 2.2250738585072014e-308
    special = np.array([
        0.0, -0.0, 5e-324, -5e-324, tiny, tiny / 3.0, -tiny * 0.7,  # zeros, subnormals
        1.7976931348623157e308, -1.7976931348623157e308,
        0.30000000000000004, 1.0000000000000002, 1.2345678901234567,  # 17 digits
        1e16, 1e-5, 1 / 3,  # where repr switches to an exponent, and 16 digits
    ])
    for case in range(40):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        values = rng.normal(scale=10.0 ** rng.integers(-300, 300), size=(rows, cols))
        mask = rng.random(values.shape) < 0.5
        values[mask] = rng.choice(special, size=int(mask.sum()))
        panel = _random_panel(rng, rows, cols, values)
        if case % 4 == 0:  # labels the csv writer must quote
            panel = netgen.ReadingsPanel(
                values, panel.kinds, tuple(f'c"{j},\r\n' for j in range(cols))
            )
        netgen.write_csv(panel, tmp_path / "new.csv")
        write_panel_csv(panel, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        loaded = netgen.load_csv(tmp_path / "new.csv")
        assert loaded.values.tobytes() == panel.values.tobytes()
        assert loaded.labels == panel.labels


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


@pytest.mark.parametrize("k, dim", [(1, 1), (1, 3), (7, 1), (80, 3), (80, 6), (33, 14)])
def test_a_block_of_normals_reads_the_stream_as_one_row_at_a_time(k, dim):
    # The mixing-matrix sampler rewinds the generator and redraws a block
    # of as many rows as the one-at-a-time loop would have read.
    for seed in range(20):
        block, rows = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = block.normal(size=(k, dim))
        one_by_one = np.array([rows.normal(size=dim) for _ in range(k)])
        assert drawn.tobytes() == one_by_one.tobytes()
        assert block.bit_generator.state == rows.bit_generator.state


def _random_phasor(rng, dim: int) -> np.ndarray:
    kind = rng.integers(0, 4)
    if kind == 0:
        return np.zeros(dim, dtype=complex)
    amplitudes = rng.uniform(0.01, 1.0, size=dim) * (rng.uniform() if kind == 3 else 1.0)
    return amplitudes * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=dim))


@pytest.mark.parametrize("screen_noise", [0.0, 0.5])
def test_mixing_matrix_matches_the_one_candidate_at_a_time_sampler(monkeypatch, screen_noise):
    # Same matrix bytes (or the same error) and the same generator
    # afterwards, over random sizes, latent dims and phasors.  With noise,
    # every screened score is off by up to half the screen's margin, and
    # the exact score still decides every pick.
    pick_row, screen = netgen._pick_row, netgen._screen
    used = []
    noise = np.random.default_rng(7)

    def counted(*args):
        picked = pick_row(*args)
        used.append(picked[0])
        return picked

    def noisy(*args):
        scores = screen(*args)
        return scores + screen_noise * netgen._SCREEN_MARGIN * noise.uniform(-1, 1, scores.shape)

    monkeypatch.setattr(netgen, "_pick_row", counted)
    monkeypatch.setattr(netgen, "_screen", noisy)
    meta = np.random.default_rng(2024)
    errors, dims = 0, set()
    for _ in range(600):
        seed = int(meta.integers(0, 2**31))
        n_sensors, dim = int(meta.integers(1, 16)), int(meta.integers(1, 6))
        phasor = _random_phasor(meta, dim)
        outcomes = []
        for sampler in (netgen._mixing_matrix, mixing_matrix_reference):
            rng = np.random.default_rng(seed)
            try:
                outcome = sampler(rng, n_sensors, dim, phasor).tobytes()
            except RuntimeError as exc:
                outcome = str(exc)
            outcomes.append((outcome, rng.normal()))
        assert outcomes[0] == outcomes[1], (seed, n_sensors, dim, phasor)
        errors += isinstance(outcomes[0][0], str)
        dims.add(dim)
    # Every kind of row came up: accepted at once, after some draws, and
    # the best of all 80; and some matrices were rank deficient.
    assert {1, netgen._ROW_DRAWS} <= set(used) and len(set(used)) > 10
    assert errors > 0 and dims == {1, 2, 3, 4, 5}


def test_generated_panels_match_the_one_candidate_at_a_time_sampler(monkeypatch):
    configs = [netgen.ScenarioConfig(seed=seed) for seed in range(4)]
    configs.append(netgen.ScenarioConfig(latent_dim=1, seed=5))
    panels = [netgen.generate_clean(cfg).values for cfg in configs]
    monkeypatch.setattr(netgen, "_mixing_matrix", mixing_matrix_reference)
    for cfg, values in zip(configs, panels):
        assert values.tobytes() == netgen.generate_clean(cfg).values.tobytes()
