"""Batch orchestration: scenario grid, per-scenario pipeline, file layout.

Every command is a pure function of the run configuration and the files
already on disk, so reruns produce byte-identical CSV output.  Scenario
seeds are derived from (grid seed, fault kind, magnitude slot), which keeps
scenarios distinct and reproducible even for parameter-free faults.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import detector, explain, localize, netgen, optim, sensors

ENV_OUTDIR = "FAULTPRINT_OUTDIR"

DEFAULT_MAGNITUDES: dict[str, tuple[float, ...]] = {
    "constant_offset": (1.0, 2.0, 4.0),
    "gaussian_noise": (1.0, 2.0, 4.0),
    "power_failure": (0.0, 0.0, 0.0),  # value unused; slots vary the seed
    "proportional_offset": (0.1, 0.2, 0.4),
    "drift": (0.1, 0.25, 0.5),
}

_ONSET_LEAD = 100  # clean steps kept between training prefix and earliest onset
_ONSET_TAIL = 200  # faulty steps guaranteed after the latest onset


class ConfigError(ValueError):
    """Raised for unknown or invalid run-configuration entries."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one batch run depends on."""

    scenario: netgen.ScenarioConfig = netgen.ScenarioConfig()
    seeds: tuple[int, ...] = (1, 2, 3)
    magnitudes: dict[str, tuple[float, ...]] = field(
        default_factory=lambda: dict(DEFAULT_MAGNITUDES)
    )
    drift_cap: float = 100.0
    window: int = sensors.DEFAULT_WINDOW
    margin: float = 2.0
    slack_penalty: float = 1e3
    complexity: str = "l1"
    dist: str = "abs"
    alarm_steps: int = localize.DEFAULT_ALARM_STEPS
    tol_abs: float = 1e-6
    tol_rel: float = 1e-6
    max_iters: int = optim.DEFAULT_MAX_ITERS
    outdir: str = "out"

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigError("at least one grid seed is required")
        if not self.magnitudes:
            raise ConfigError("the fault grid must not be empty")
        for kind in self.magnitudes:
            if kind not in netgen.FAULT_KIND_NAMES:
                raise ConfigError(f"unknown fault kind in grid: {kind!r}")
            if not self.magnitudes[kind]:
                raise ConfigError(f"fault kind {kind!r} has no magnitudes")
        if self.margin < 1.0:
            raise ConfigError("detector margin must be at least 1")
        if self.alarm_steps < 1:
            raise ConfigError("alarm_steps must be positive")
        if self.max_iters < 1:
            raise ConfigError("solver max_iters must be at least 1")
        if not self.tol_abs > 0:
            raise ConfigError("solver tol_abs must be positive")
        if not self.tol_rel >= 0:
            raise ConfigError("solver tol_rel must be nonnegative")
        explain.CfConfig(  # reuse its validation for the shared fields
            slack_penalty=self.slack_penalty, complexity=self.complexity, dist=self.dist
        )

    def cf_config(self, threshold: float) -> explain.CfConfig:
        return explain.CfConfig(
            slack_penalty=self.slack_penalty,
            complexity=self.complexity,
            dist=self.dist,
            tolerances=threshold,
        )

    def solver_options(self) -> dict:
        return {
            "tol_abs": self.tol_abs,
            "tol_rel": self.tol_rel,
            "max_iters": self.max_iters,
        }

    def resolved_outdir(self) -> Path:
        return Path(os.environ.get(ENV_OUTDIR, self.outdir))


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the fault grid."""

    scenario_id: str
    kind_name: str
    magnitude: float
    magnitude_index: int
    seed: int


def expand_grid(run: RunConfig) -> tuple[ScenarioSpec, ...]:
    specs = []
    for kind_name in netgen.FAULT_KIND_NAMES:
        if kind_name not in run.magnitudes:
            continue
        for m_idx, magnitude in enumerate(run.magnitudes[kind_name]):
            for seed in run.seeds:
                specs.append(
                    ScenarioSpec(
                        scenario_id=f"{kind_name}-m{m_idx}-s{seed}",
                        kind_name=kind_name,
                        magnitude=float(magnitude),
                        magnitude_index=m_idx,
                        seed=seed,
                    )
                )
    return tuple(specs)


def _fault_kind(run: RunConfig, spec: ScenarioSpec) -> netgen.FaultKind:
    kind = netgen.FAULT_KINDS[spec.kind_name]
    if kind is netgen.PowerFailure:
        return kind()
    if kind is netgen.Drift:
        return kind(rate=spec.magnitude, cap=run.drift_cap)
    return kind(spec.magnitude)


def build_scenario(run: RunConfig, spec: ScenarioSpec) -> netgen.Scenario:
    """Deterministically realize one grid cell as a clean/faulty panel pair."""
    if spec.kind_name not in netgen.FAULT_KINDS:
        raise ConfigError(f"unknown fault kind: {spec.kind_name!r}")
    kind_index = netgen.FAULT_KIND_NAMES.index(spec.kind_name)
    ss = np.random.SeedSequence((spec.seed, kind_index, spec.magnitude_index))
    panel_seed, fault_seed, noise_seed = (int(s) for s in ss.generate_state(3))

    scenario_cfg = replace(run.scenario, seed=panel_seed)
    clean = netgen.generate_clean(scenario_cfg)

    rng = np.random.default_rng(fault_seed)
    pressure = clean.pressure_indices
    sensor = int(pressure[rng.integers(len(pressure))])
    low = scenario_cfg.train_end + _ONSET_LEAD
    high = scenario_cfg.n_steps - _ONSET_TAIL
    if low >= high:
        raise ConfigError("scenario too short to place a fault onset")
    onset = int(rng.integers(low, high))

    fault = netgen.FaultSpec(kind=_fault_kind(run, spec), sensor=sensor, onset=onset)
    faulty = netgen.inject_fault(clean, fault, seed=noise_seed)
    return netgen.Scenario(clean=clean, faulty=faulty, fault=fault, config=scenario_cfg)


# ---------------------------------------------------------------------------
# file layout


def scenario_dir(run: RunConfig, scenario_id: str) -> Path:
    return run.resolved_outdir() / "scenarios" / scenario_id


def _fault_to_json(fault: netgen.FaultSpec) -> dict:
    params = dataclasses.asdict(fault.kind)
    return {
        "kind": fault.kind.name,
        "params": params,
        "sensor": fault.sensor,
        "onset": fault.onset,
    }


def _fault_from_json(data: dict) -> netgen.FaultSpec:
    kind = netgen.FAULT_KINDS[data["kind"]](**data["params"])
    return netgen.FaultSpec(kind=kind, sensor=data["sensor"], onset=data["onset"])


def write_scenario(run: RunConfig, spec: ScenarioSpec, scenario: netgen.Scenario) -> None:
    folder = scenario_dir(run, spec.scenario_id)
    folder.mkdir(parents=True, exist_ok=True)
    netgen.write_csv(scenario.clean, folder / "clean.csv")
    netgen.write_csv(scenario.faulty, folder / "faulty.csv")
    payload = {
        "scenario_id": spec.scenario_id,
        "seed": spec.seed,
        "magnitude": spec.magnitude,
        "fault": _fault_to_json(scenario.fault),
        "train_end": scenario.config.train_end,
    }
    (folder / "fault.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_scenario_files(
    run: RunConfig, scenario_id: str
) -> tuple[netgen.ReadingsPanel, netgen.FaultSpec, int]:
    """Faulty panel, fault ground truth and training prefix, from disk."""
    folder = scenario_dir(run, scenario_id)
    faulty_path = folder / "faulty.csv"
    meta_path = folder / "fault.json"
    if not faulty_path.exists() or not meta_path.exists():
        raise FileNotFoundError(
            f"scenario {scenario_id!r} not found under {folder}; run 'simulate' first"
        )
    panel = netgen.load_csv(faulty_path)
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    return panel, _fault_from_json(meta["fault"]), int(meta["train_end"])


def load_model_files(run: RunConfig, scenario_id: str) -> tuple[sensors.Ensemble, float]:
    folder = scenario_dir(run, scenario_id)
    models_path = folder / "models.txt"
    threshold_path = folder / "threshold.txt"
    if not models_path.exists() or not threshold_path.exists():
        raise FileNotFoundError(
            f"no trained models for scenario {scenario_id!r}; run 'train' first"
        )
    ensemble = sensors.load_ensemble(models_path)
    threshold = float(threshold_path.read_text(encoding="utf-8").strip())
    return ensemble, threshold


# ---------------------------------------------------------------------------
# per-scenario work


def train_scenario(
    panel: netgen.ReadingsPanel, train_end: int, window: int, margin: float
) -> tuple[sensors.Ensemble, float]:
    """Fit the ensemble and calibrate the alarm threshold on the clean prefix."""
    ensemble = sensors.train_ensemble(panel, window, (window, train_end))
    threshold = detector.calibrate_threshold(
        ensemble, panel, (window, train_end), margin=margin
    )
    return ensemble, threshold


@dataclass(frozen=True)
class ScenarioResult:
    """Everything the reports need about one evaluated scenario."""

    prediction: localize.ScenarioPrediction
    detection: detector.DetectionReport
    certificate_excess: float
    audit: optim.SolveAudit


def localize_scenario(
    run: RunConfig,
    panel: netgen.ReadingsPanel,
    ensemble: sensors.Ensemble,
    threshold: float,
    stream: detector.AlarmStream,
) -> tuple[Optional[int], Optional[int], int, float, optim.SolveAudit]:
    """Explain the first alarm steps and aggregate both methods' estimates."""
    steps = stream.alarm_steps()[: run.alarm_steps]
    if steps.size == 0:
        return None, None, 0, -math.inf, optim.SolveAudit()

    cf_config = run.cf_config(threshold)
    solver_options = run.solver_options()
    flow = panel.flow_indices
    ensemble_steps: list[Optional[int]] = []
    baseline_steps: list[Optional[int]] = []
    certificate_excess = -math.inf

    # Consecutive alarm steps have near-identical snapshots, so each step's
    # explanations warm-start the next step's matching programs, which also
    # reuses the programs themselves and their KKT factors.
    cf: Optional[explain.Counterfactual] = None
    per_model: list[Optional[explain.Counterfactual]] = [None] * len(ensemble.models)
    with optim.audit_solves() as records:
        for t in steps:
            snapshot = explain.snapshot_at_alarm(panel, ensemble, int(t))
            cf = explain.ensemble_counterfactual(
                ensemble, snapshot, cf_config, solver_options=solver_options, warm_start=cf
            )
            ensemble_steps.append(localize.predict_faulty_sensor(cf.delta, exclude=flow))
            if cf.feasible_without_slack:
                certificate_excess = max(
                    certificate_excess,
                    explain.certificate_margin(ensemble, cf, threshold, dist=run.dist),
                )
            per_model = [
                explain.independent_counterfactual(
                    model,
                    snapshot,
                    0.0,
                    cf_config,
                    solver_options=solver_options,
                    warm_start=previous,
                )
                for model, previous in zip(ensemble.models, per_model)
            ]
            baseline_steps.append(localize.aggregate_baseline(per_model, exclude=flow))
    ensemble_pred = localize.aggregate_alarm_sequence(ensemble_steps, run.alarm_steps)
    baseline_pred = localize.aggregate_alarm_sequence(baseline_steps, run.alarm_steps)
    return (
        ensemble_pred,
        baseline_pred,
        int(steps.size),
        certificate_excess,
        optim.SolveAudit.from_records(records),
    )


def evaluate_scenario_files(run: RunConfig, spec: ScenarioSpec) -> ScenarioResult:
    """Full per-scenario evaluation from on-disk artifacts."""
    panel, fault, _ = load_scenario_files(run, spec.scenario_id)
    ensemble, threshold = load_model_files(run, spec.scenario_id)
    stream = detector.detect(ensemble, panel, threshold)
    report = detector.detection_metrics(stream, fault)
    ens_pred, base_pred, _, excess, audit = localize_scenario(
        run, panel, ensemble, threshold, stream
    )
    prediction = localize.ScenarioPrediction(
        scenario_id=spec.scenario_id,
        fault_kind=spec.kind_name,
        magnitude=spec.magnitude,
        true_sensor=fault.sensor,
        ensemble_prediction=ens_pred,
        baseline_prediction=base_pred,
    )
    return ScenarioResult(prediction, report, excess, audit)


# ---------------------------------------------------------------------------
# batch runners (scenario-level parallelism)


def _run_grid(worker, run: RunConfig, jobs: int) -> list:
    """``worker(run, spec)`` for every grid cell, in grid order.

    Workers are module-private so they pickle by name even when the public
    functions they call through module attributes are wrapped.
    """
    cells = [(run, spec) for spec in expand_grid(run)]
    if jobs <= 1 or len(cells) <= 1:
        return [worker(*cell) for cell in cells]
    with multiprocessing.Pool(min(jobs, len(cells))) as pool:
        return pool.starmap(worker, cells)


def _simulate_worker(run: RunConfig, spec: ScenarioSpec) -> str:
    write_scenario(run, spec, build_scenario(run, spec))
    return spec.scenario_id


def simulate_batch(run: RunConfig, jobs: int = 1) -> list[str]:
    return _run_grid(_simulate_worker, run, jobs)


def _train_worker(run: RunConfig, spec: ScenarioSpec) -> str:
    panel, _, train_end = load_scenario_files(run, spec.scenario_id)
    ensemble, threshold = train_scenario(panel, train_end, run.window, run.margin)
    folder = scenario_dir(run, spec.scenario_id)
    sensors.save_ensemble(ensemble, folder / "models.txt")
    (folder / "threshold.txt").write_text(repr(threshold) + "\n", encoding="utf-8")
    return spec.scenario_id


def train_batch(run: RunConfig, jobs: int = 1) -> list[str]:
    return _run_grid(_train_worker, run, jobs)


def _detect_worker(run: RunConfig, spec: ScenarioSpec):
    panel, fault, _ = load_scenario_files(run, spec.scenario_id)
    ensemble, threshold = load_model_files(run, spec.scenario_id)
    stream = detector.detect(ensemble, panel, threshold)
    return spec, fault, detector.detection_metrics(stream, fault)


def detect_batch(run: RunConfig, jobs: int = 1):
    return _run_grid(_detect_worker, run, jobs)


def _evaluate_worker(run: RunConfig, spec: ScenarioSpec) -> ScenarioResult:
    return evaluate_scenario_files(run, spec)


def evaluate_batch(run: RunConfig, jobs: int = 1) -> list[ScenarioResult]:
    return _run_grid(_evaluate_worker, run, jobs)


def results_to_predictions(
    results: list[ScenarioResult],
) -> list[localize.ScenarioPrediction]:
    return [r.prediction for r in results]


# ---------------------------------------------------------------------------
# run-configuration file parsing

_CONFIG_SCHEMA: dict[str, tuple[str, ...]] = {
    "scenario": ("n_pressure", "n_flow", "n_steps", "train_end", "latent_dim", "noise_std"),
    "grid": ("seeds",) + netgen.FAULT_KIND_NAMES + ("drift_cap",),
    "detector": ("window", "margin"),
    "counterfactual": ("slack_penalty", "complexity", "dist"),
    "solver": ("tol_abs", "tol_rel", "max_iters"),
    "evaluate": ("alarm_steps",),
    "output": ("dir",),
}


def _parse_like(default, raw: str):
    """``raw`` as the type of ``default``; a tuple reads as a list of its element type."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(tok) for tok in raw.replace(",", " ").split())
    return type(default)(raw)


def load_run_config(path) -> RunConfig:
    """Parse a sectioned key=value run configuration; unknown keys error out.

    Each value is read as its default's type into the field of the same name;
    ``dir`` sets ``outdir``, a fault kind its magnitudes (empty drops the kind).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    base = RunConfig()
    scenario: dict = {}
    magnitudes = dict(DEFAULT_MAGNITUDES)
    fields: dict = {}
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            if section == "scenario":
                target, name, default = scenario, key, getattr(base.scenario, key)
            elif key in DEFAULT_MAGNITUDES:
                target, name, default = magnitudes, key, DEFAULT_MAGNITUDES[key]
            else:
                name = "outdir" if key == "dir" else key
                target, default = fields, getattr(base, name)
            try:
                target[name] = _parse_like(default, raw)
            except ValueError:
                raise ConfigError(
                    f"invalid value for {key!r} in [{section}]: {raw!r}"
                ) from None
    try:
        return RunConfig(
            scenario=replace(base.scenario, **scenario),
            magnitudes={kind: values for kind, values in magnitudes.items() if values},
            **fields,
        )
    except ValueError as exc:  # ScenarioConfig and CfConfig validate their fields
        raise ConfigError(str(exc)) from None
