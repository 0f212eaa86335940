import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from faultprint import detector, explain, netgen, optim, pipeline
from faultprint.cli import main

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
        ("counterfactual", "complexity = l3"),
    ],
)
def test_config_error_names_the_bad_value(tmp_path, section, line):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
    with pytest.raises(pipeline.ConfigError, match=line.split()[0]):
        pipeline.load_run_config(path)


def test_readme_config_defaults_match_the_code(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    path = tmp_path / "defaults.cfg"
    path.write_text(blocks[0], encoding="utf-8")
    assert pipeline.load_run_config(path) == pipeline.RunConfig()


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
    assert (scen_dir / "clean.csv").exists()
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
    assert list(explain_dir.glob("baseline-t*.csv"))
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


def test_audit_blocks_nest_around_scenario_evaluation(tiny_run):
    run, specs = _trained_tiny_run(tiny_run[0])
    with optim.audit_solves() as outer:
        result = pipeline.evaluate_scenario_files(run, specs[0])
        with optim.audit_solves() as inner:
            pipeline.evaluate_scenario_files(run, specs[1])
    assert result.audit.solves > 0
    assert len(outer) == result.audit.solves + len(inner)
    assert not optim._audit_sinks


def test_warm_started_localization_matches_cold(tiny_run, monkeypatch):
    run, specs = _trained_tiny_run(tiny_run[0])

    def localize_all():
        outcomes, iterations = [], []
        for spec in specs:
            panel, _, _ = pipeline.load_scenario_files(run, spec.scenario_id)
            ensemble, threshold = pipeline.load_model_files(run, spec.scenario_id)
            stream = detector.detect(ensemble, panel, threshold)
            with optim.audit_solves() as records:
                ens, base, used, _, audit = pipeline.localize_scenario(
                    run, panel, ensemble, threshold, stream
                )
            outcomes.append((ens, base, used, audit.solves, audit.non_optimal))
            iterations += [rec.iterations for rec in records]
        return outcomes, iterations

    warm, warm_iterations = localize_all()
    cold_solver = explain.ensemble_counterfactual

    def without_warm_start(*args, warm_start=None, **kwargs):
        return cold_solver(*args, **kwargs)

    monkeypatch.setattr(explain, "ensemble_counterfactual", without_warm_start)
    cold, cold_iterations = localize_all()
    assert warm == cold
    assert 0 in warm_iterations
    assert 0 not in cold_iterations
    assert sum(warm_iterations) < sum(cold_iterations)


def _scipy_imports(module) -> set[str]:
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name for name in names if name.split(".")[0] == "scipy"}


def test_cli_import_leaves_out_heavy_scipy_modules():
    src = str(Path(optim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, faultprint.cli; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "faultprint.cli" in loaded
    assert "scipy.signal" not in loaded
    assert "scipy.stats" not in loaded
    assert _scipy_imports(netgen) == set()
    assert _scipy_imports(optim) == {"scipy.linalg.lapack"}
