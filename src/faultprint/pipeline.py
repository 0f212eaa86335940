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
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import detector, explain, localize, netgen, optim, sensors, values

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
        if isinstance(self.seeds, str) or not isinstance(self.seeds, Iterable):
            raise ConfigError(f"seeds must be a sequence of grid seeds, got seeds = {self.seeds!r}")
        if not self.seeds:
            raise ConfigError("at least one grid seed is required")
        if not all(values.is_integer(seed) and seed >= 0 for seed in self.seeds):
            raise ConfigError(f"grid seeds must be nonnegative integers, got seeds = {self.seeds}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"grid seeds must not repeat, got seeds = {self.seeds}")
        for name in ("window", "alarm_steps", "max_iters"):
            value = getattr(self, name)
            if not values.is_integer(value) or value < 1:
                raise ConfigError(f"{name} must be an integer of at least 1, got {value!r}")
        if not self.magnitudes:
            raise ConfigError("the fault grid must not be empty")
        # The fault kinds' own rules, checked whether or not the grid runs drift.
        try:
            netgen.Drift(rate=0.0, cap=self.drift_cap)
        except ValueError as exc:
            raise ConfigError(f"drift_cap: {exc}") from None
        for kind, magnitudes in self.magnitudes.items():
            if kind not in netgen.FAULT_KIND_NAMES:
                raise ConfigError(f"unknown fault kind in grid: {kind!r}")
            if isinstance(magnitudes, str) or not isinstance(magnitudes, Iterable):
                raise ConfigError(f"{kind} magnitudes must be a sequence, got {magnitudes!r}")
            if not magnitudes:
                raise ConfigError(f"fault kind {kind!r} has no magnitudes")
            for value in magnitudes:
                try:
                    _fault_kind(kind, value, self.drift_cap)
                except ValueError as exc:
                    raise ConfigError(f"{kind} magnitudes: {exc}") from None
        try:  # the real-number rule, and CfConfig's own for the fields it shares
            for name in ("margin", "tol_abs", "tol_rel"):
                values.check_real(name, getattr(self, name))
            explain.CfConfig(
                slack_penalty=self.slack_penalty, complexity=self.complexity, dist=self.dist
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 1.0 <= self.margin < math.inf:
            raise ConfigError("detector margin must be finite and at least 1")
        if not isinstance(self.outdir, str):
            raise ConfigError(f"outdir ([output] dir) must be a string, got {self.outdir!r}")
        if not self.outdir:
            raise ConfigError("outdir ([output] dir) must not be empty")
        if not 0 < self.tol_abs < math.inf:
            raise ConfigError("solver tol_abs must be positive and finite")
        if not 0 <= self.tol_rel < math.inf:
            raise ConfigError("solver tol_rel must be nonnegative and finite")
        # Training fits and calibrates on [window, train_end); faults start
        # between train_end + _ONSET_LEAD and n_steps - _ONSET_TAIL.
        train_end, n_steps = self.scenario.train_end, self.scenario.n_steps
        fit_steps = max(detector.MIN_CALIBRATION_STEPS, self.scenario.n_sensors + 2)
        if train_end - self.window < fit_steps:
            raise ConfigError(
                f"train_end = {train_end} leaves {train_end - self.window} steps after "
                f"the {self.window}-step window to fit and calibrate on; "
                f"at least {fit_steps} are needed"
            )
        if train_end + _ONSET_LEAD >= n_steps - _ONSET_TAIL:
            raise ConfigError(
                f"train_end = {train_end} leaves no room for a fault onset in "
                f"{n_steps} steps; it must be below {n_steps - _ONSET_LEAD - _ONSET_TAIL}"
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
        outdir = os.environ.get(ENV_OUTDIR, self.outdir)
        if not outdir:
            raise ConfigError(f"{ENV_OUTDIR} must not be empty")
        return Path(outdir)


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
                        seed=int(seed),
                    )
                )
    return tuple(specs)


def _fault_kind(name: str, magnitude, drift_cap) -> netgen.FaultKind:
    """Fault kind ``name`` at ``magnitude``; it raises ``ValueError`` for a bad one.

    A power failure's magnitude only varies the seed; it is held to the
    kinds' rule for a parameter, :func:`values.check_real`.
    """
    kind = netgen.FAULT_KINDS[name]
    if kind is netgen.PowerFailure:
        values.check_real("magnitude", magnitude)
        return kind()
    if kind is netgen.Drift:
        return kind(rate=magnitude, cap=drift_cap)
    return kind(magnitude)


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
    low = scenario_cfg.train_end + _ONSET_LEAD  # RunConfig keeps low < high
    onset = int(rng.integers(low, scenario_cfg.n_steps - _ONSET_TAIL))

    kind = _fault_kind(spec.kind_name, spec.magnitude, run.drift_cap)
    fault = netgen.FaultSpec(kind=kind, sensor=sensor, onset=onset)
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


def _fault_from_json(
    data, where: Path, train_end: int, panel: netgen.ReadingsPanel
) -> netgen.FaultSpec:
    """The fault in ``data``, ``fault.json``'s ``fault`` object, checked key by key.

    The fault kind checks ``params`` and :class:`netgen.FaultSpec` the
    integers; :func:`netgen.check_placement` holds the sensor to a pressure
    channel of ``panel`` and the onset to its steps.  The file adds that the
    onset falls after ``train_end``.  ``where`` names the file in the error.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: fault must be an object, got {data!r}")
    for key in ("kind", "params", "sensor", "onset"):
        if key not in data:
            raise ConfigError(f"{where}: fault.{key} is missing")
    name, params = data["kind"], data["params"]
    if name not in netgen.FAULT_KIND_NAMES:
        raise ConfigError(f"{where}: unknown fault.kind {name!r}")
    try:
        kind = netgen.FAULT_KINDS[name](**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: fault.params {params!r} do not fit {name}: {exc}") from None
    try:
        fault = netgen.FaultSpec(kind=kind, sensor=data["sensor"], onset=data["onset"])
        netgen.check_placement(panel, fault)
    except ValueError as exc:  # its message begins with the field's name
        raise ConfigError(f"{where}: fault.{exc}") from None
    if fault.onset <= train_end:
        raise ConfigError(f"{where}: fault.onset {fault.onset} is not after train_end {train_end}")
    return fault


def write_scenario(run: RunConfig, spec: ScenarioSpec, scenario: netgen.Scenario) -> None:
    """Write the faulty panel and the fault ground truth.

    No command reads the clean panel; ``build_scenario`` remakes it bit for bit.
    """
    folder = scenario_dir(run, spec.scenario_id)
    folder.mkdir(parents=True, exist_ok=True)
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
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # also undecodable bytes
        raise ConfigError(f"{meta_path}: not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ConfigError(f"{meta_path}: must hold a JSON object, got {meta!r}")
    train_end = meta.get("train_end")
    if not values.is_integer(train_end):
        raise ConfigError(f"{meta_path}: train_end must be an integer, got {train_end!r}")
    if not 0 < train_end < panel.n_steps:
        raise ConfigError(
            f"{meta_path}: train_end must lie in [1, {panel.n_steps}), got {train_end}"
        )
    if "fault" not in meta:
        raise ConfigError(f"{meta_path}: fault is missing")
    return panel, _fault_from_json(meta["fault"], meta_path, train_end, panel), train_end


def load_model_files(run: RunConfig, scenario_id: str) -> tuple[sensors.Ensemble, float]:
    folder = scenario_dir(run, scenario_id)
    models_path = folder / "models.txt"
    threshold_path = folder / "threshold.txt"
    if not models_path.exists() or not threshold_path.exists():
        raise FileNotFoundError(
            f"no trained models for scenario {scenario_id!r}; run 'train' first"
        )
    ensemble = sensors.load_ensemble(models_path)
    text = threshold_path.read_text(encoding="utf-8").strip()
    try:
        threshold = float(text)
    except ValueError:
        threshold = math.nan
    if not 0 <= threshold < math.inf:  # also false for NaN
        raise ValueError(
            f"{threshold_path}: alarm threshold must be a nonnegative finite number, got {text!r}"
        )
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
class SolveAudit:
    """Summary of the :class:`optim.Solution` list of one unit of work."""

    solves: int = 0
    non_optimal: int = 0
    max_ratio: float = 0.0  # worst residual over its tolerance, any component

    @staticmethod
    def from_records(records) -> "SolveAudit":
        non_optimal, worst = 0, 0.0
        for rec in records:
            non_optimal += rec.status is not optim.SolveStatus.OPTIMAL
            worst = max(worst, rec.kkt_ratio)
        return SolveAudit(len(records), non_optimal, worst)

    def merge(self, other: "SolveAudit") -> "SolveAudit":
        return SolveAudit(
            self.solves + other.solves,
            self.non_optimal + other.non_optimal,
            max(self.max_ratio, other.max_ratio),
        )


@dataclass(frozen=True)
class ScenarioResult:
    """Everything the reports need about one evaluated scenario."""

    prediction: localize.ScenarioPrediction
    detection: detector.DetectionReport
    certificate_excess: float
    audit: SolveAudit


class Localization(NamedTuple):
    """Both methods' estimates for one scenario, and what explaining cost.

    ``alarm_steps`` counts the steps explained; ``certificate_excess`` is
    the largest excess of a slack-free ensemble explanation (``-inf`` when
    there is none); ``audit`` summarizes every solve.
    """

    ensemble_prediction: Optional[int]
    baseline_prediction: Optional[int]
    alarm_steps: int
    certificate_excess: float
    audit: SolveAudit


def localize_scenario(
    run: RunConfig,
    panel: netgen.ReadingsPanel,
    ensemble: sensors.Ensemble,
    threshold: float,
    stream: detector.AlarmStream,
) -> Localization:
    """Explain the first alarm steps and aggregate both methods' estimates.

    An explanation that cannot be certified raises :class:`ExplainError`
    naming its alarm step.  Every per-model baseline is explained before
    the first consistent explanation, so a baseline that fails at a later
    step is raised before an ensemble explanation that fails at an earlier
    one.
    """
    steps = stream.alarm_steps()[: run.alarm_steps]
    if steps.size == 0:
        return Localization(None, None, 0, -math.inf, SolveAudit())

    cf_config = run.cf_config(threshold)
    solver_options = run.solver_options()
    flow = panel.flow_indices
    ensemble_steps: list[Optional[int]] = []
    baseline_steps: list[Optional[int]] = []
    certificate_excess = -math.inf

    # A per-model explanation starts from its snapshot's closed-form
    # optimum and depends on no other step, so every step's baselines are
    # one stacked pass, run first; each model's problems are still solved
    # one by one, in step order.  Consecutive alarm steps have
    # near-identical snapshots, so each step's ensemble explanation then
    # warm-starts the next step's.  The ensemble keeps both its consistent
    # and its per-model programs, and their factorizations, across the
    # steps.  The audit reads the certified solution each explanation
    # returns.
    snapshots = np.array([explain.snapshot_at_alarm(panel, ensemble, int(t)) for t in steps])
    try:
        baselines = explain.baseline_counterfactuals(
            ensemble, snapshots, cf_config, solver_options=solver_options
        )
    except explain.ExplainError as exc:
        raise explain.ExplainError(f"alarm step {steps[exc.row]}: {exc}") from exc
    cf: Optional[explain.Counterfactual] = None
    solutions: list[optim.Solution] = []
    for t, snapshot, per_model in zip(steps, snapshots, baselines):
        try:
            cf = explain.ensemble_counterfactual(
                ensemble, snapshot, cf_config, solver_options=solver_options, warm_start=cf
            )
        except explain.ExplainError as exc:
            raise explain.ExplainError(f"alarm step {t}: {exc}") from exc
        ensemble_steps.append(localize.predict_faulty_sensor(cf.delta, exclude=flow))
        if cf.feasible_without_slack:
            certificate_excess = max(certificate_excess, cf.excess)
        baseline_steps.append(localize.aggregate_baseline(per_model, exclude=flow))
        solutions += [cf.solution] + [m.solution for m in per_model]
    ensemble_pred = localize.aggregate_alarm_sequence(ensemble_steps, run.alarm_steps)
    baseline_pred = localize.aggregate_alarm_sequence(baseline_steps, run.alarm_steps)
    return Localization(
        ensemble_pred,
        baseline_pred,
        int(steps.size),
        certificate_excess,
        SolveAudit.from_records(solutions),
    )


def evaluate_scenario_files(run: RunConfig, spec: ScenarioSpec) -> ScenarioResult:
    """Full per-scenario evaluation from on-disk artifacts.

    An explanation that cannot be certified raises :class:`ExplainError`
    naming the scenario and its alarm step.
    """
    panel, fault, _ = load_scenario_files(run, spec.scenario_id)
    ensemble, threshold = load_model_files(run, spec.scenario_id)
    stream = detector.detect(ensemble, panel, threshold)
    report = detector.detection_metrics(stream, fault)
    try:
        found = localize_scenario(run, panel, ensemble, threshold, stream)
    except explain.ExplainError as exc:
        raise explain.ExplainError(f"scenario {spec.scenario_id}: {exc}") from exc
    prediction = localize.ScenarioPrediction(
        scenario_id=spec.scenario_id,
        fault_kind=spec.kind_name,
        magnitude=spec.magnitude,
        true_sensor=fault.sensor,
        ensemble_prediction=found.ensemble_prediction,
        baseline_prediction=found.baseline_prediction,
    )
    return ScenarioResult(prediction, report, found.certificate_excess, found.audit)


# ---------------------------------------------------------------------------
# batch runners (scenario-level parallelism)


def _run_grid(worker, run: RunConfig, jobs: int) -> list:
    """``worker(run, spec)`` for every grid cell, in grid order.

    Workers are module-private so they pickle by name even when the public
    functions they call through module attributes are wrapped.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cells = [(run, spec) for spec in expand_grid(run)]
    if jobs == 1 or len(cells) <= 1:
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


def _syntax_error(path, exc: configparser.Error) -> ConfigError:
    """A malformed config file's error, naming the file and the line."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        what = "a key before any [section] header"
    elif isinstance(exc, configparser.DuplicateSectionError):
        what = f"section [{exc.section}] given twice"
    elif isinstance(exc, configparser.DuplicateOptionError):
        what = f"key {exc.option!r} given twice in [{exc.section}]"
    elif isinstance(exc, configparser.ParsingError):
        what = "a line that is neither a [section] header nor key = value"
    else:
        what = exc.message
    line = getattr(exc, "lineno", None)
    if line is None and getattr(exc, "errors", None):
        line = exc.errors[0][0]
    where = "" if line is None else f", line {line}"
    return ConfigError(f"config file {path}{where}: {what}")


def _parse_like(default, raw: str):
    """``raw`` as the type of ``default``; a tuple reads as a list of its element type."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(tok) for tok in raw.replace(",", " ").split())
    return type(default)(raw)


def load_run_config(path) -> RunConfig:
    """Parse a sectioned key=value run configuration; unknown keys error out.

    Each value is read as its default's type into the field of the same name;
    ``dir`` sets ``outdir``, a fault kind its magnitudes (empty drops the kind).
    Values are taken literally, so a ``%`` in a path is kept.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise _syntax_error(path, exc) from None
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
            magnitudes={kind: given for kind, given in magnitudes.items() if given},
            **fields,
        )
    except ValueError as exc:  # ScenarioConfig and CfConfig validate their fields
        raise ConfigError(str(exc)) from None
