import ast
import dataclasses
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from faultprint import detector, explain, localize, netgen, optim, pipeline, plots, values
from faultprint.cli import main
from conftest import count_program_builds, fresh_copy, record_solves, run_fresh

TINY_CONFIG = """
[scenario]
n_pressure = 8
n_flow = 1
n_steps = 1200
train_end = 500

[grid]
seeds = 1
constant_offset = 2.0
gaussian_noise =
power_failure = 0
proportional_offset =
drift =

[detector]
margin = 2.0

[evaluate]
alarm_steps = 8

[output]
dir = {out}
"""


@pytest.fixture()
def tiny_run(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfg_path.write_text(TINY_CONFIG.format(out=out), encoding="utf-8")
    return cfg_path, out


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[detector]\nmargim = 2.0\n", encoding="utf-8")
    with pytest.raises(pipeline.ConfigError, match="margim"):
        pipeline.load_run_config(path)


def test_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[detectors]\nmargin = 2.0\n", encoding="utf-8")
    with pytest.raises(pipeline.ConfigError, match="detectors"):
        pipeline.load_run_config(path)


def test_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[detector]\nmargin = fast\n", encoding="utf-8")
    with pytest.raises(pipeline.ConfigError, match="margin"):
        pipeline.load_run_config(path)


def test_config_rejects_non_integer_seed(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[grid]\nseeds = 1.7\n", encoding="utf-8")
    with pytest.raises(pipeline.ConfigError, match="seeds"):
        pipeline.load_run_config(path)


@pytest.mark.parametrize(
    "line", ["max_iters = 0", "max_iters = -5", "tol_abs = 0", "tol_rel = -1e-6"]
)
def test_config_rejects_bad_solver_values(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[solver]\n{line}\n", encoding="utf-8")
    with pytest.raises(pipeline.ConfigError, match=line.split()[0]):
        pipeline.load_run_config(path)


def test_config_round_trip_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[scenario]\nn_pressure = 6\nnoise_std = 0.02\n"
        "[grid]\nseeds = 4, 5\nconstant_offset = 1.5\n"
        "[counterfactual]\ncomplexity = l2\n",
        encoding="utf-8",
    )
    run = pipeline.load_run_config(path)
    assert run.scenario.n_pressure == 6
    assert run.scenario.noise_std == 0.02
    assert run.seeds == (4, 5)
    assert run.magnitudes["constant_offset"] == (1.5,)
    assert run.complexity == "l2"
    assert run.margin == 2.0  # default preserved


# A valid value other than the default, for every key of the config schema.
NON_DEFAULT_VALUES = {
    "n_pressure": "10", "n_flow": "3", "n_steps": "2500", "train_end": "800",
    "latent_dim": "2", "noise_std": "0.02",
    "seeds": "4, 5", "constant_offset": "3.0", "gaussian_noise": "0.5 1.5",
    "power_failure": "0, 0", "proportional_offset": "0.3", "drift": "0.2",
    "drift_cap": "50",
    "window": "4", "margin": "3.0",
    "slack_penalty": "500", "complexity": "l2", "dist": "squared",
    "tol_abs": "1e-7", "tol_rel": "1e-5", "max_iters": "5000",
    "alarm_steps": "10",
    "dir": "elsewhere",
}


def _flat_fields(run: pipeline.RunConfig) -> dict:
    flat = {f.name: getattr(run, f.name) for f in dataclasses.fields(run)}
    scenario, magnitudes = flat.pop("scenario"), flat.pop("magnitudes")
    flat.update(
        {f"scenario.{f.name}": getattr(scenario, f.name) for f in dataclasses.fields(scenario)}
    )
    flat.update({f"magnitudes.{kind}": values for kind, values in magnitudes.items()})
    return flat


@pytest.mark.parametrize(
    "section,key",
    [(section, key) for section, keys in pipeline._CONFIG_SCHEMA.items() for key in keys],
)
def test_config_key_sets_only_its_own_field(tmp_path, section, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"[{section}]\n{key} = {NON_DEFAULT_VALUES[key]}\n", encoding="utf-8")
    got = _flat_fields(pipeline.load_run_config(path))
    default = _flat_fields(pipeline.RunConfig())
    if section == "scenario":
        field_name = f"scenario.{key}"
    elif key in netgen.FAULT_KIND_NAMES:
        field_name = f"magnitudes.{key}"
    else:
        field_name = "outdir" if key == "dir" else key
    changed = {name for name in got.keys() | default.keys() if got.get(name) != default.get(name)}
    assert changed == {field_name}
    # Read as the type of its default, element by element for lists.
    value, default_value = got[field_name], default[field_name]
    assert type(value) is type(default_value)
    if isinstance(value, tuple):
        assert {type(v) for v in value} == {type(default_value[0])}


@pytest.mark.parametrize(
    "section,line",
    [
        ("grid", "constant_offset = 1, x"),
        ("scenario", "train_end = 5000"),
        ("scenario", "train_end = 40"),  # too few steps to calibrate on
        ("scenario", "train_end = 60\nn_pressure = 60"),  # too few to fit 62 sensors
        ("scenario", "train_end = 1750"),  # no room for a fault onset
        ("detector", "window = 0"),
        ("counterfactual", "complexity = l3"),
    ],
)
def test_config_error_names_the_bad_value(tmp_path, section, line):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
    with pytest.raises(pipeline.ConfigError, match=line.split()[0]):
        pipeline.load_run_config(path)


@pytest.mark.parametrize(
    "section,line",
    [
        ("detector", "margin = nan"),
        ("detector", "margin = inf"),
        ("counterfactual", "slack_penalty = nan"),
        ("counterfactual", "slack_penalty = inf"),
        ("scenario", "noise_std = nan"),
        ("scenario", "noise_std = inf"),
        ("grid", "drift_cap = nan"),
        ("grid", "drift_cap = -inf"),
        ("grid", "constant_offset = nan"),
        ("grid", "proportional_offset = inf"),
        ("grid", "drift = nan"),
        ("grid", "power_failure = -inf"),
        ("grid", "gaussian_noise = 1, -1"),  # a negative noise sigma
        ("grid", "seeds = 1, -2"),  # a negative seed
        ("grid", "seeds = 1, 1"),  # a repeated seed
        ("solver", "tol_abs = nan"),
        ("solver", "tol_abs = inf"),
        ("solver", "tol_rel = nan"),
        ("solver", "tol_rel = inf"),
    ],
)
def test_config_rejects_non_finite_values_before_writing(tmp_path, capsys, section, line):
    out = tmp_path / "out"
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{line}\n[output]\ndir = {out}\n", encoding="utf-8")
    field_name = line.split()[0]
    with pytest.raises(pipeline.ConfigError, match=field_name):
        pipeline.load_run_config(path)
    assert main(["--config", str(path), "simulate"]) == 2
    assert field_name in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_fails_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(f"[output]\ndir = {out}\n", encoding="utf-8")
    assert main(["--config", str(path), "--seed", "-1", "simulate"]) == 2
    assert "seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field_name,value",
    [
        ("seeds", (1.5,)),
        ("seeds", (True,)),
        ("seeds", (1, 2, 1)),
        ("window", 2.5),
        ("window", True),
        ("alarm_steps", 2.5),
        ("max_iters", 10.5),
        ("max_iters", True),
    ],
)
def test_run_config_rejects_non_integers_before_writing(tmp_path, field_name, value):
    out = tmp_path / "out"
    with pytest.raises(pipeline.ConfigError, match=field_name):
        pipeline.simulate_batch(pipeline.RunConfig(outdir=str(out), **{field_name: value}))
    assert not out.exists()


@pytest.mark.parametrize(
    "field_name, value",
    [
        ("margin", "2"),
        ("margin", True),
        ("tol_abs", None),
        ("tol_abs", True),
        ("tol_rel", "0"),
        ("tol_rel", False),
        ("slack_penalty", -1.0),
        ("slack_penalty", True),
        ("complexity", "l3"),
        ("dist", "cubed"),
    ],
)
def test_run_config_refuses_a_bad_real_or_counterfactual_field_as_a_config_error(
    tmp_path, field_name, value
):
    # A string or None was a bare TypeError, a bool was taken as 1.0, and
    # the counterfactual settings' errors escaped as plain ValueErrors.
    out = tmp_path / "out"
    with pytest.raises(pipeline.ConfigError, match=field_name):
        pipeline.simulate_batch(pipeline.RunConfig(outdir=str(out), **{field_name: value}))
    assert not out.exists()


def test_run_config_refuses_seeds_that_are_not_a_sequence():
    # seeds=5 failed with a bare TypeError: 'int' object is not iterable.
    for seeds in (5, 1.5, None):
        with pytest.raises(pipeline.ConfigError, match=r"^seeds must be a sequence"):
            pipeline.RunConfig(seeds=seeds)


def test_run_config_refuses_an_outdir_that_is_not_a_string():
    # outdir=5 was accepted, and failed only in resolved_outdir(), with a
    # bare TypeError.
    for outdir in (5, None, b"out"):
        message = r"^outdir \(\[output\] dir\) must be a string"
        with pytest.raises(pipeline.ConfigError, match=message):
            pipeline.RunConfig(outdir=outdir)


@pytest.mark.parametrize(
    "key, fields",
    [
        ("drift_cap", {"drift_cap": True}),
        ("drift_cap", {"drift_cap": "100"}),
        ("drift_cap", {"drift_cap": 10**400}),
        ("constant_offset", {"magnitudes": {"constant_offset": (1.0, True)}}),
        ("gaussian_noise", {"magnitudes": {"gaussian_noise": ("1.0",)}}),
        ("gaussian_noise", {"magnitudes": {"gaussian_noise": (10**400,)}}),
        ("gaussian_noise", {"magnitudes": {"gaussian_noise": (-1.0,)}}),
        ("power_failure", {"magnitudes": {"power_failure": (0.0, True)}}),
        ("power_failure", {"magnitudes": {"power_failure": ("0",)}}),
        ("power_failure", {"magnitudes": {"power_failure": (np.nan,)}}),
        ("proportional_offset", {"magnitudes": {"proportional_offset": (-np.inf,)}}),
        ("drift", {"magnitudes": {"drift": (10**400,)}}),
        ("drift", {"magnitudes": {"drift": 0.1}}),
        ("drift", {"magnitudes": {"drift": "0.1"}}),
    ],
    ids=[
        "drift_cap-bool", "drift_cap-str", "drift_cap-huge", "constant_offset-bool",
        "gaussian_noise-str", "gaussian_noise-huge", "gaussian_noise-negative",
        "power_failure-bool", "power_failure-str", "power_failure-nan",
        "proportional_offset-inf", "drift-huge", "drift-scalar", "drift-str",
    ],
)
def test_run_config_holds_magnitudes_and_drift_cap_to_the_fault_kinds_rules(tmp_path, key, fields):
    # A bad value fails as a ConfigError naming its key before any scenario
    # is written, not while the grid is simulated (a drift_cap of True got
    # 12 of 15 seed-1 scenarios written) or as a TypeError or OverflowError.
    out = tmp_path / "out"
    with pytest.raises(pipeline.ConfigError, match=key):
        pipeline.simulate_batch(pipeline.RunConfig(outdir=str(out), **fields))
    assert not out.exists()


def test_run_config_accepts_numpy_integers(tmp_path):
    run = pipeline.RunConfig(
        seeds=(np.int64(2),),
        magnitudes={"constant_offset": (2.0,)},
        window=np.int32(10),
        alarm_steps=np.int64(5),
        max_iters=np.int64(optim.DEFAULT_MAX_ITERS),
        outdir=str(tmp_path / "out"),
    )
    assert pipeline.simulate_batch(run) == ["constant_offset-m0-s2"]
    meta = tmp_path / "out/scenarios/constant_offset-m0-s2/fault.json"
    assert json.loads(meta.read_text(encoding="utf-8"))["seed"] == 2
    pipeline.train_batch(run)
    (result,) = pipeline.evaluate_batch(run)
    assert result.prediction.scenario_id == "constant_offset-m0-s2"
    assert result.detection.detected


def test_config_allows_an_infinite_drift_cap(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[grid]\ndrift_cap = inf\n", encoding="utf-8")
    assert pipeline.load_run_config(path).drift_cap == np.inf


def test_readme_config_defaults_match_the_code(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    path = tmp_path / "defaults.cfg"
    path.write_text(blocks[0], encoding="utf-8")
    assert pipeline.load_run_config(path) == pipeline.RunConfig()


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # in order: the second warm-starts from the first
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "4\n0 True\n"
    assert namespace["cf_next"].solution.iterations == 0


def test_build_scenario_rejects_unknown_fault_kind():
    spec = pipeline.ScenarioSpec("x", "bogus", 1.0, 0, 1)
    with pytest.raises(pipeline.ConfigError, match="bogus"):
        pipeline.build_scenario(pipeline.RunConfig(), spec)


def test_grid_expansion_covers_kinds_magnitudes_seeds():
    run = pipeline.RunConfig()
    specs = pipeline.expand_grid(run)
    assert len(specs) == 5 * 3 * 3
    assert len({s.scenario_id for s in specs}) == len(specs)


def test_scenarios_are_deterministic_and_distinct():
    run = pipeline.RunConfig()
    specs = pipeline.expand_grid(run)[:4]
    first = [pipeline.build_scenario(run, s) for s in specs]
    second = [pipeline.build_scenario(run, s) for s in specs]
    for a, b in zip(first, second):
        assert np.array_equal(a.faulty.values, b.faulty.values)
        assert a.fault == b.fault
    onsets = {(s.fault.sensor, s.fault.onset) for s in first}
    assert len(onsets) > 1


def test_power_failure_slots_differ_by_magnitude_index():
    run = pipeline.RunConfig()
    a = pipeline.build_scenario(
        run, pipeline.ScenarioSpec("power_failure-m0-s1", "power_failure", 0.0, 0, 1)
    )
    b = pipeline.build_scenario(
        run, pipeline.ScenarioSpec("power_failure-m1-s1", "power_failure", 0.0, 1, 1)
    )
    assert not np.array_equal(a.clean.values, b.clean.values)


def test_cli_full_pipeline(tiny_run, capsys):
    cfg_path, out = tiny_run
    assert main(["--config", str(cfg_path), "simulate"]) == 0
    assert main(["--config", str(cfg_path), "train"]) == 0
    assert main(["--config", str(cfg_path), "detect"]) == 0
    assert main(["--config", str(cfg_path), "evaluate"]) == 0

    scen_dir = out / "scenarios" / "constant_offset-m0-s1"
    assert not (scen_dir / "clean.csv").exists()  # build_scenario remakes it
    assert (scen_dir / "faulty.csv").exists()
    assert (scen_dir / "fault.json").exists()
    # one model line per pressure channel
    model_lines = (scen_dir / "models.txt").read_text().strip().splitlines()
    assert len(model_lines) == 8
    assert float((scen_dir / "threshold.txt").read_text()) > 0
    assert (out / "detection.csv").exists()
    assert (out / "localization.csv").exists()
    assert (out / "summary.md").exists()

    meta = json.loads((scen_dir / "fault.json").read_text())
    sid = "constant_offset-m0-s1"
    assert main(["--config", str(cfg_path), "explain", "--scenario", sid, "--baseline"]) == 0
    explain_dir = out / "explain" / sid
    fingerprints = list(explain_dir.glob("fingerprint-t*.csv"))
    assert fingerprints
    assert list(explain_dir.glob("fingerprint-t*.svg"))
    baseline = next(explain_dir.glob("baseline-t*.csv"))
    # one count per channel: how many models' own explanations change it most
    run = pipeline.load_run_config(cfg_path)
    panel, _, _ = pipeline.load_scenario_files(run, sid)
    ensemble, threshold = pipeline.load_model_files(run, sid)
    snapshot = explain.snapshot_at_alarm(panel, ensemble, int(baseline.stem.split("-t")[1]))
    per_model = [
        explain.independent_counterfactual(
            model, snapshot, 0.0, run.cf_config(threshold), run.solver_options()
        )
        for model in ensemble.models
    ]
    votes = localize.baseline_votes(per_model, exclude=panel.flow_indices)
    assert baseline.read_text().splitlines() == ["label,votes"] + [
        f"{label},{count}" for label, count in zip(panel.labels, votes)
    ]
    header = fingerprints[0].read_text().splitlines()[0]
    assert header == "label,delta,normalized,slack"

    summary = (out / "summary.md").read_text()
    assert "Localization accuracy" in summary
    assert "consistent explanation" in summary


def test_cli_outputs_are_byte_deterministic(tmp_path):
    outputs = []
    for name in ("a", "b"):
        cfg_path = tmp_path / f"{name}.cfg"
        out = tmp_path / name
        cfg_path.write_text(TINY_CONFIG.format(out=out), encoding="utf-8")
        assert main(["--config", str(cfg_path), "simulate"]) == 0
        assert main(["--config", str(cfg_path), "train"]) == 0
        assert main(["--config", str(cfg_path), "detect"]) == 0
        assert main(["--config", str(cfg_path), "evaluate"]) == 0
        sid = "constant_offset-m0-s1"
        assert main(["--config", str(cfg_path), "explain", "--scenario", sid]) == 0
        outputs.append(out)

    a, b = outputs
    for rel in sorted(
        p.relative_to(a) for p in a.rglob("*") if p.is_file()
    ):
        assert (b / rel).exists(), rel
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_cli_jobs_flag_gives_identical_results(tiny_run, tmp_path):
    cfg_path, out = tiny_run
    assert main(["--config", str(cfg_path), "--jobs", "2", "simulate"]) == 0
    assert main(["--config", str(cfg_path), "--jobs", "2", "train"]) == 0
    assert main(["--config", str(cfg_path), "--jobs", "2", "detect"]) == 0
    serial_out = tmp_path / "serial"
    cfg2 = tmp_path / "serial.cfg"
    cfg2.write_text(TINY_CONFIG.format(out=serial_out), encoding="utf-8")
    assert main(["--config", str(cfg2), "simulate"]) == 0
    assert main(["--config", str(cfg2), "train"]) == 0
    assert main(["--config", str(cfg2), "detect"]) == 0
    assert (out / "detection.csv").read_bytes() == (
        serial_out / "detection.csv"
    ).read_bytes()


def test_cli_zero_magnitude_fault_is_undetected(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfg_path.write_text(
        TINY_CONFIG.format(out=out).replace("constant_offset = 2.0", "constant_offset = 0.0"),
        encoding="utf-8",
    )
    assert main(["--config", str(cfg_path), "simulate"]) == 0
    assert main(["--config", str(cfg_path), "train"]) == 0
    assert main(["--config", str(cfg_path), "detect"]) == 0
    detection = (out / "detection.csv").read_text().splitlines()
    row = next(line for line in detection if line.startswith("constant_offset"))
    fields = dict(zip(detection[0].split(","), row.split(",")))
    assert fields["detected"] == "0"
    assert fields["delay"] == "inf"


def test_cli_errors_on_missing_upstream(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY_CONFIG.format(out=tmp_path / "out"), encoding="utf-8")
    assert main(["--config", str(cfg_path), "detect"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_errors_on_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[detector]\nmagrin = 1.0\n", encoding="utf-8")
    assert main(["--config", str(cfg_path), "simulate"]) == 2
    assert "magrin" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,line,words",
    [
        ("seeds = 1\n", 1, "before any [section]"),
        ("[grid]\nseeds = 1\nseeds = 2\n", 3, "'seeds' given twice in [grid]"),
        ("[grid]\nseeds = 1\n[grid]\nseeds = 2\n", 3, "section [grid] given twice"),
        ("[grid]\nseeds\n", 2, "neither a [section] header nor key = value"),
    ],
)
def test_cli_errors_on_malformed_config_file(tmp_path, capsys, text, line, words):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(text, encoding="utf-8")
    assert main(["--config", str(cfg_path), "detect"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("faultprint: error:")
    assert f"{cfg_path}, line {line}: " in err
    assert words in err


def test_config_keeps_a_percent_sign_in_a_value(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text("[output]\ndir = out%x\n", encoding="utf-8")
    assert pipeline.load_run_config(cfg_path).outdir == "out%x"


@pytest.mark.parametrize("text", ["nan", "inf", "-1.0", "abc"])
def test_cli_errors_on_corrupt_threshold_file(tiny_run, capsys, text):
    cfg_path, out = tiny_run
    for command in ("simulate", "train"):
        assert main(["--config", str(cfg_path), command]) == 0
    threshold_path = out / "scenarios" / "constant_offset-m0-s1" / "threshold.txt"
    threshold_path.write_text(text + "\n", encoding="utf-8")
    capsys.readouterr()
    for command in ("detect", "evaluate"):
        assert main(["--config", str(cfg_path), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("faultprint: error:")
        assert str(threshold_path) in err
        assert repr(text) in err
    assert not (out / "detection.csv").exists()


@pytest.mark.parametrize(
    "train_end", [100.9, 100.0, True, "100", None], ids=["fraction", "float", "bool", "text", "missing"]
)
def test_cli_errors_on_a_non_integer_train_end(tiny_run, capsys, train_end):
    cfg_path, out = tiny_run
    for command in ("simulate", "train"):
        assert main(["--config", str(cfg_path), command]) == 0
    meta_path = out / "scenarios" / "constant_offset-m0-s1" / "fault.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if train_end is None:
        del meta["train_end"]
    else:
        meta["train_end"] = train_end
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "detect"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("faultprint: error:")
    assert f"{meta_path}: train_end must be an integer, got {train_end!r}" in err
    assert not (out / "detection.csv").exists()


_MISSING = object()
_PRESSURE = tuple(range(8))


# Each case sets the value at a key path of a written fault.json (deletes it
# for _MISSING), or with no keys replaces the whole text.  The tiny panel has
# 9 channels, pressure channels 0-7 and flow channel 8, and 1200 steps;
# training ends at step 500.
@pytest.mark.parametrize(
    "keys, value, message",
    [
        ((), "{", "not valid JSON"),
        ((), "[]", "must hold a JSON object"),
        (("train_end",), 0, "train_end must lie in [1, 1200), got 0"),
        (("train_end",), 1200, "train_end must lie in [1, 1200), got 1200"),
        (("fault",), _MISSING, "fault is missing"),
        (("fault",), None, "fault must be an object, got None"),
        (("fault", "kind"), _MISSING, "fault.kind is missing"),
        (("fault", "params"), _MISSING, "fault.params is missing"),
        (("fault", "sensor"), _MISSING, "fault.sensor is missing"),
        (("fault", "onset"), _MISSING, "fault.onset is missing"),
        (("fault", "kind"), "meteor", "unknown fault.kind 'meteor'"),
        (("fault", "kind"), "gaussian_noise", "fault.params {'offset': 2.0} do not fit gaussian_noise"),
        (("fault", "params"), {}, "fault.params {} do not fit constant_offset"),
        (("fault", "params"), {"offset": "2"},
         "fault.params {'offset': '2'} do not fit constant_offset: "
         "offset must be a real number, got '2'"),
        (("fault", "params"), [2.0], "fault.params [2.0] do not fit constant_offset: "),
        (("fault", "params"), {"offset": 10**400},
         f"fault.params {{'offset': {10**400}}} do not fit constant_offset: "
         "offset must be a real number a float can hold: int too large"),
        (("fault", "sensor"), 9, f"fault.sensor must be one of the pressure channels {_PRESSURE}, got 9"),
        (("fault", "sensor"), 8, f"fault.sensor must be one of the pressure channels {_PRESSURE}, got 8"),
        (("fault", "sensor"), -1, "fault.sensor must be at least 0, got -1"),
        (("fault", "sensor"), 1.0, "fault.sensor must be an integer, got 1.0"),
        (("fault", "onset"), 500, "fault.onset 500 is not after train_end 500"),
        (("fault", "onset"), 1200, "fault.onset must be a step below 1200, got 1200"),
        (("fault", "onset"), True, "fault.onset must be an integer, got True"),
    ],
    ids=[
        "malformed", "not-an-object", "train_end-zero", "train_end-past-the-panel",
        "no-fault", "fault-null", "no-kind", "no-params", "no-sensor", "no-onset",
        "unknown-kind", "params-of-another-kind", "params-empty", "params-text", "params-list",
        "params-huge", "sensor-past-the-panel", "sensor-flow", "sensor-negative", "sensor-float",
        "onset-in-training", "onset-past-the-panel", "onset-bool",
    ],
)
def test_cli_names_the_bad_key_of_fault_json(tiny_run, capsys, keys, value, message):
    cfg_path, out = tiny_run
    for command in ("simulate", "train"):
        assert main(["--config", str(cfg_path), command]) == 0
    meta_path = out / "scenarios" / "constant_offset-m0-s1" / "fault.json"
    text = value
    if keys:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        *parents, last = keys
        target = meta
        for key in parents:
            target = target[key]
        if value is _MISSING:
            del target[last]
        else:
            target[last] = value
        text = json.dumps(meta)
    meta_path.write_text(text, encoding="utf-8")
    for command in ("detect", "evaluate"):
        capsys.readouterr()
        assert main(["--config", str(cfg_path), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"faultprint: error: {meta_path}: ")
        assert message in err
        assert err.count("\n") == 1
    for name in ("detection.csv", "localization.csv", "summary.md"):
        assert not (out / name).exists()


def test_cli_explains_the_given_step_inside_the_evaluated_range(tiny_run, capsys):
    cfg_path, out = tiny_run
    for command in ("simulate", "train"):
        assert main(["--config", str(cfg_path), command]) == 0
    run = pipeline.load_run_config(cfg_path)
    sid = "constant_offset-m0-s1"
    panel, _, _ = pipeline.load_scenario_files(run, sid)
    ensemble, threshold = pipeline.load_model_files(run, sid)
    stream = detector.detect(ensemble, panel, threshold)
    explain_cmd = ["--config", str(cfg_path), "explain", "--scenario", sid, "--step"]
    capsys.readouterr()
    for step in (stream.start - 1, stream.end):
        assert main(explain_cmd + [str(step)]) == 2
        assert f"--step {step} outside evaluated range" in capsys.readouterr().err
    # A step without an alarm is explained too, but not called an alarm.
    assert not stream.alarms[0]
    for step in (stream.start, int(stream.alarm_steps()[0]), stream.end - 1):
        assert main(explain_cmd + [str(step)]) == 0
        printed = capsys.readouterr().out
        alarmed = bool(stream.alarms[step - stream.start])
        assert (f"alarm step {step}:" in printed) == alarmed
        assert (f"step {step} (no alarm raised):" in printed) != alarmed
        assert (out / "explain" / sid / f"fingerprint-t{step}.csv").exists()


def test_cli_explain_prints_its_solve(tiny_run, capsys):
    # The status, path, iterations, worst KKT ratio and slack total of the
    # explained step go to stdout; the files it writes are the same.
    cfg_path, out = tiny_run
    for command in ("simulate", "train"):
        assert main(["--config", str(cfg_path), command]) == 0
    run = pipeline.load_run_config(cfg_path)
    sid = "constant_offset-m0-s1"
    panel, _, _ = pipeline.load_scenario_files(run, sid)
    ensemble, threshold = pipeline.load_model_files(run, sid)
    t = int(detector.detect(ensemble, panel, threshold).alarm_steps()[0])
    cf = explain.ensemble_counterfactual(
        ensemble,
        explain.snapshot_at_alarm(panel, ensemble, t),
        run.cf_config(threshold),
        solver_options=run.solver_options(),
    )
    solution = cf.solution
    ratio = max(r / tol for r, tol in zip(solution.kkt, solution.kkt_tol))
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "explain", "--scenario", sid]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == (
        f"solve: optimal by {solution.path} after {solution.iterations} iterations, "
        f"worst KKT ratio {ratio:.3g}, slack total {float(cf.slacks.sum()):.6g}"
    )
    assert solution.status is optim.SolveStatus.OPTIMAL
    written = sorted(p.name for p in (out / "explain" / sid).iterdir())
    assert written == [f"fingerprint-t{t}.csv", f"fingerprint-t{t}.svg"]


def test_cli_explain_without_alarms_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfg_path.write_text(
        TINY_CONFIG.format(out=out).replace("constant_offset = 2.0", "constant_offset = 0.0"),
        encoding="utf-8",
    )
    for command in ("simulate", "train"):
        assert main(["--config", str(cfg_path), command]) == 0
    sid = "constant_offset-m0-s1"
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "explain", "--scenario", sid]) == 1
    assert "no alarms raised; nothing to explain" in capsys.readouterr().out
    assert not (out / "explain").exists()


def test_cli_rejects_untrainable_config_before_writing(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    config = TINY_CONFIG.format(out=out).replace("train_end = 500", "train_end = 40")
    cfg_path.write_text(config, encoding="utf-8")
    assert main(["--config", str(cfg_path), "simulate"]) == 2
    assert "train_end" in capsys.readouterr().err
    assert not (out / "scenarios").exists()


def test_cli_reports_uncertified_solve_as_error(tmp_path, capsys):
    # One iteration cannot certify an optimum; evaluate must fail cleanly.
    cfg_path = tmp_path / "run.cfg"
    config = TINY_CONFIG.format(out=tmp_path / "out").replace(
        "power_failure = 0", "power_failure ="
    )
    cfg_path.write_text(config + "\n[solver]\nmax_iters = 1\n", encoding="utf-8")
    for command in ("simulate", "train"):
        assert main(["--config", str(cfg_path), command]) == 0
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "evaluate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("faultprint: error:")
    assert "max_iters" in err


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv(pipeline.ENV_OUTDIR, str(override))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY_CONFIG.format(out=tmp_path / "ignored"), encoding="utf-8")
    assert main(["--config", str(cfg_path), "simulate"]) == 0
    assert (override / "scenarios").exists()
    assert not (tmp_path / "ignored").exists()


def test_explain_chart_of_labels_with_markup_characters_is_well_formed(tiny_run):
    cfg_path, out = tiny_run
    assert main(["--config", str(cfg_path), "simulate"]) == 0
    assert main(["--config", str(cfg_path), "train"]) == 0
    sid = "constant_offset-m0-s1"
    csv_path = out / "scenarios" / sid / "faulty.csv"
    panel = netgen.load_csv(csv_path)
    labels = ("T&P", "a<b", "c>d") + panel.labels[3:]
    netgen.write_csv(dataclasses.replace(panel, labels=labels), csv_path)
    assert main(["--config", str(cfg_path), "explain", "--scenario", sid]) == 0
    (svg_path,) = (out / "explain" / sid).glob("fingerprint-t*.svg")
    root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
    texts = [element.text for element in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[2 : 2 + len(labels)] == list(labels)  # after the two tick labels
    chart = ET.fromstring(plots.bar_chart_svg(["a&b"], [1.0], title="<T&P>"))
    assert chart.find("{http://www.w3.org/2000/svg}title").text == "<T&P>"


def test_empty_output_dir_fails_before_writing(tmp_path, monkeypatch, capsys):
    # An empty path would put every output in the working directory.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.cfg"
    path.write_text("[output]\ndir =\n", encoding="utf-8")
    with pytest.raises(pipeline.ConfigError, match=r"\[output\] dir"):
        pipeline.load_run_config(path)
    assert main(["--config", str(path), "simulate"]) == 2
    assert "[output] dir" in capsys.readouterr().err
    monkeypatch.setenv(pipeline.ENV_OUTDIR, "")
    path.write_text(TINY_CONFIG.format(out=tmp_path / "out"), encoding="utf-8")
    assert main(["--config", str(path), "simulate"]) == 2
    assert pipeline.ENV_OUTDIR in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_seed_flag_restricts_grid(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfg_path.write_text(
        TINY_CONFIG.format(out=out).replace("seeds = 1", "seeds = 1, 2, 3"),
        encoding="utf-8",
    )
    assert main(["--config", str(cfg_path), "--seed", "2", "simulate"]) == 0
    scenario_dirs = sorted(p.name for p in (out / "scenarios").iterdir())
    assert scenario_dirs == ["constant_offset-m0-s2", "power_failure-m0-s2"]


def _trained_tiny_run(cfg_path):
    assert main(["--config", str(cfg_path), "simulate"]) == 0
    assert main(["--config", str(cfg_path), "train"]) == 0
    run = pipeline.load_run_config(cfg_path)
    return run, pipeline.expand_grid(run)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_explanation_that_fails_names_its_scenario_and_alarm_step(tmp_path, capsys, jobs):
    # 10 ADMM iterations do not reach a certified l2/squared optimum, so the
    # first ensemble explanation fails; its one error line says where.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        TINY_CONFIG.format(out=tmp_path / "out")
        + "\n[counterfactual]\ncomplexity = l2\ndist = squared\n"
        + "\n[solver]\nmax_iters = 10\n",
        encoding="utf-8",
    )
    run, specs = _trained_tiny_run(cfg_path)
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--jobs", jobs, "evaluate"]) == 2
    err = capsys.readouterr().err.splitlines()
    ids = "|".join(re.escape(spec.scenario_id) for spec in specs)
    assert len(err) == 1
    assert re.fullmatch(
        rf"faultprint: error: scenario ({ids}): alarm step \d+: counterfactual solve "
        rf"ended with status max_iters after 10 iterations \(.*\)",
        err[0],
    )
    if jobs == "1":  # the grid's first scenario fails first
        assert err[0].startswith(f"faultprint: error: scenario {specs[0].scenario_id}: ")
    # and the step is one the scenario's detector raised an alarm at
    spec = next(spec for spec in specs if f"scenario {spec.scenario_id}:" in err[0])
    panel, _, _ = pipeline.load_scenario_files(run, spec.scenario_id)
    ensemble, threshold = pipeline.load_model_files(run, spec.scenario_id)
    alarms = detector.detect(ensemble, panel, threshold).alarm_steps()
    assert int(re.search(r"alarm step (\d+)", err[0]).group(1)) in alarms


def _failed_baseline(run, spec, monkeypatch, failing_call):
    """The error ``evaluate_scenario_files`` raises when its solve number
    ``failing_call`` (from 1) comes back non-optimal, and the scenario's
    explained alarm steps."""
    panel, _, _ = pipeline.load_scenario_files(run, spec.scenario_id)
    ensemble, threshold = pipeline.load_model_files(run, spec.scenario_id)
    steps = detector.detect(ensemble, panel, threshold).alarm_steps()[: run.alarm_steps]
    solve, calls = optim.solve, []

    def one_fails(problem, **kwargs):
        calls.append(solve(problem, **kwargs))
        if len(calls) == failing_call:
            return dataclasses.replace(calls[-1], status=optim.SolveStatus.MAX_ITERS)
        return calls[-1]

    monkeypatch.setattr(optim, "solve", one_fails)
    with pytest.raises(explain.ExplainError) as caught:
        pipeline.evaluate_scenario_files(run, spec)
    assert len(calls) == failing_call  # no solve after the failed one
    return str(caught.value), steps


def test_a_failed_baseline_solve_names_its_scenario_step_and_model(tiny_run, monkeypatch):
    # Every alarm step's per-model baselines are solved before the ensemble
    # chain, a step's models in order, so the first solve of all is the
    # first model's at the first alarm step; it comes back non-optimal.
    run, specs = _trained_tiny_run(tiny_run[0])
    ensemble, _ = pipeline.load_model_files(run, specs[0].scenario_id)
    message, steps = _failed_baseline(run, specs[0], monkeypatch, 1)
    assert re.fullmatch(
        rf"scenario {re.escape(specs[0].scenario_id)}: alarm step {steps[0]}: per-model baseline "
        rf"for sensor {ensemble.models[0].target}: counterfactual solve ended with status "
        r"max_iters after 0 iterations \(.*\)",
        message,
    )


def test_a_baseline_that_fails_at_a_later_step_names_that_step(tiny_run, monkeypatch):
    # The fourth model's solve at the third alarm step fails: the error
    # names that step, which the ensemble chain has not reached yet.
    run, specs = _trained_tiny_run(tiny_run[0])
    ensemble, _ = pipeline.load_model_files(run, specs[0].scenario_id)
    k = len(ensemble.models)
    message, steps = _failed_baseline(run, specs[0], monkeypatch, 2 * k + 4)
    assert steps[2] != steps[0]
    assert re.fullmatch(
        rf"scenario {re.escape(specs[0].scenario_id)}: alarm step {steps[2]}: per-model baseline "
        rf"for sensor {ensemble.models[3].target}: counterfactual solve ended with status "
        r"max_iters after 0 iterations \(.*\)",
        message,
    )


def test_squared_error_certificate_is_measured_squared(tmp_path):
    # With dist = squared the program bounds e**2 by the threshold, so the
    # certificate of a slack-free explanation must measure e**2 as well.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        TINY_CONFIG.format(out=tmp_path / "out")
        + "\n[counterfactual]\ncomplexity = l2\ndist = squared\n",
        encoding="utf-8",
    )
    run, specs = _trained_tiny_run(cfg_path)
    excess = [pipeline.evaluate_scenario_files(run, s).certificate_excess for s in specs]
    assert max(excess) > -np.inf  # some alarm step was explained without slack
    assert all(e <= 1e-6 for e in excess)


def test_scenario_audit_counts_every_solve(tiny_run, monkeypatch):
    run, specs = _trained_tiny_run(tiny_run[0])
    solutions = record_solves(monkeypatch)
    result = pipeline.evaluate_scenario_files(run, specs[0])
    # each alarm step solves the ensemble program and one per model
    assert result.audit.solves == len(solutions) == 9 * run.alarm_steps
    assert result.audit.non_optimal == 0
    assert result.audit.max_ratio == max(
        r / t for s in solutions for r, t in zip(s.kkt, s.kkt_tol)
    )


def test_warm_started_localization_matches_cold(tiny_run, monkeypatch):
    run, specs = _trained_tiny_run(tiny_run[0])
    solutions = record_solves(monkeypatch)

    def localize_all():
        outcomes, first = [], len(solutions)
        for spec in specs:
            panel, _, _ = pipeline.load_scenario_files(run, spec.scenario_id)
            ensemble, threshold = pipeline.load_model_files(run, spec.scenario_id)
            stream = detector.detect(ensemble, panel, threshold)
            found = pipeline.localize_scenario(run, panel, ensemble, threshold, stream)
            outcomes.append((
                found.ensemble_prediction, found.baseline_prediction, found.alarm_steps,
                found.audit.solves, found.audit.non_optimal,
            ))
        return outcomes, [s.iterations for s in solutions[first:]]

    warm, warm_iterations = localize_all()

    def without_warm_start(cold_solver):
        return lambda *args, warm_start=None, **kwargs: cold_solver(*args, **kwargs)

    # Only the ensemble takes a warm start; a per-model solve starts at its
    # closed-form optimum unless that start is taken away too.
    monkeypatch.setattr(
        explain,
        "ensemble_counterfactual",
        without_warm_start(explain.ensemble_counterfactual),
    )
    monkeypatch.setattr(explain._Stack, "vertex_duals", lambda stack, bounds, r0: None)
    cold, cold_iterations = localize_all()
    assert warm == cold
    assert 0 in warm_iterations
    assert 0 not in cold_iterations
    assert sum(warm_iterations) < sum(cold_iterations)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_an_error(tiny_run, capsys, jobs):
    cfg_path, out = tiny_run
    assert main(["--config", str(cfg_path), "--jobs", jobs, "simulate"]) == 2
    assert "jobs" in capsys.readouterr().err
    assert not (out / "scenarios").exists()


def test_batch_with_no_jobs_is_an_error(tiny_run):
    run = pipeline.load_run_config(tiny_run[0])
    with pytest.raises(ValueError, match="jobs"):
        pipeline.simulate_batch(run, jobs=0)
    assert not (tiny_run[1] / "scenarios").exists()


def _scipy_imports(module) -> set[str]:
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name for name in names if name.split(".")[0] == "scipy"}


_SCIPY_BY_STAGE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

stages = {}
import faultprint
stages["import faultprint"] = scipy_modules()
from faultprint import cli, optim
stages["import faultprint.cli"] = scipy_modules()
for command in ("simulate", "train", "detect"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--config", sys.argv[1], command]) == 0
    stages[command] = scipy_modules()
import numpy as np
one = np.ones(1)
optim.solve(optim.ConvexProblem.linear(one, np.eye(1), one, np.full(1, np.inf)))
stages["solve"] = scipy_modules()
print(json.dumps(stages))
"""


def test_cli_import_leaves_out_heavy_scipy_modules(tiny_run):
    # simulate, train and detect solve nothing, so a fresh process that
    # imports faultprint.cli and runs them holds no scipy module; its first
    # solve binds LAPACK through scipy.linalg.lapack.
    cfg_path, out = tiny_run
    stages = run_fresh(_SCIPY_BY_STAGE, str(cfg_path))
    assert (out / "detection.csv").exists()
    solve = stages.pop("solve")
    assert stages == dict.fromkeys(
        ["import faultprint", "import faultprint.cli", "simulate", "train", "detect"], []
    )
    assert "scipy.linalg.lapack" in solve
    assert "scipy.signal" not in solve
    assert "scipy.stats" not in solve
    assert _scipy_imports(values) == set()
    assert _scipy_imports(netgen) == set()
    assert _scipy_imports(optim) == {"scipy.linalg.lapack"}


def test_localize_scenario_builds_one_program_per_ensemble_and_model(
    default_ensemble, default_threshold, power_failure_scenario, monkeypatch
):
    # The ensemble and each of its models keep their program across the
    # alarm steps: 1 + 12 builds per scenario, and none on a second pass.
    built = count_program_builds(monkeypatch)
    ensemble = fresh_copy(default_ensemble)
    panel = power_failure_scenario.faulty
    stream = detector.detect(ensemble, panel, default_threshold)
    run = pipeline.RunConfig()
    first = pipeline.localize_scenario(run, panel, ensemble, default_threshold, stream)
    assert first.alarm_steps == run.alarm_steps
    assert len(built) == 1 + len(ensemble.models) == 13
    again = pipeline.localize_scenario(run, panel, ensemble, default_threshold, stream)
    assert len(built) == 13
    assert again == first


def test_localize_scenario_matches_a_step_by_step_reference(
    default_ensemble, default_threshold, power_failure_scenario
):
    # The scenario's baselines in one pass, before the ensemble chain, give
    # what explaining each step's ensemble and then its models did.
    panel = power_failure_scenario.faulty
    stream = detector.detect(default_ensemble, panel, default_threshold)
    run = pipeline.RunConfig()
    found = pipeline.localize_scenario(
        run, panel, fresh_copy(default_ensemble), default_threshold, stream
    )
    ensemble = fresh_copy(default_ensemble)
    config, options = run.cf_config(default_threshold), run.solver_options()
    flow = panel.flow_indices
    cf, ensemble_steps, baseline_steps, excess, solutions = None, [], [], -np.inf, []
    for t in stream.alarm_steps()[: run.alarm_steps]:
        snapshot = explain.snapshot_at_alarm(panel, ensemble, int(t))
        cf = explain.ensemble_counterfactual(
            ensemble, snapshot, config, solver_options=options, warm_start=cf
        )
        (per_model,) = explain.baseline_counterfactuals(
            ensemble, snapshot[None], config, solver_options=options
        )
        ensemble_steps.append(localize.predict_faulty_sensor(cf.delta, exclude=flow))
        baseline_steps.append(localize.aggregate_baseline(per_model, exclude=flow))
        if cf.feasible_without_slack:
            excess = max(excess, cf.excess)
        solutions += [cf.solution] + [m.solution for m in per_model]
    reference = pipeline.Localization(
        localize.aggregate_alarm_sequence(ensemble_steps, run.alarm_steps),
        localize.aggregate_alarm_sequence(baseline_steps, run.alarm_steps),
        len(ensemble_steps),
        excess,
        pipeline.SolveAudit.from_records(solutions),
    )
    assert found == reference
    assert found.alarm_steps == run.alarm_steps
    assert found.audit.solves == 13 * run.alarm_steps
