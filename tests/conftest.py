import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from faultprint import detector, explain, netgen, optim, sensors


@pytest.fixture(scope="session")
def default_panel() -> netgen.ReadingsPanel:
    return netgen.generate_clean(netgen.ScenarioConfig())


@pytest.fixture(scope="session")
def default_ensemble(default_panel) -> sensors.Ensemble:
    cfg = netgen.ScenarioConfig()
    return sensors.train_ensemble(default_panel, 3, (3, cfg.train_end))


@pytest.fixture(scope="session")
def default_threshold(default_panel, default_ensemble) -> float:
    cfg = netgen.ScenarioConfig()
    return detector.calibrate_threshold(
        default_ensemble, default_panel, (3, cfg.train_end), margin=2.0
    )


@pytest.fixture(scope="session")
def power_failure_scenario(default_panel) -> netgen.Scenario:
    fault = netgen.FaultSpec(kind=netgen.PowerFailure(), sensor=4, onset=900)
    faulty = netgen.inject_fault(default_panel, fault, seed=7)
    return netgen.Scenario(
        clean=default_panel, faulty=faulty, fault=fault, config=netgen.ScenarioConfig()
    )


def constant_panel(value: float, n_steps: int = 30, n_sensors: int = 4) -> netgen.ReadingsPanel:
    kinds = (netgen.SensorKind.PRESSURE,) * n_sensors
    labels = tuple(f"p{i:02d}" for i in range(n_sensors))
    return netgen.ReadingsPanel(
        values=np.full((n_steps, n_sensors), float(value)), kinds=kinds, labels=labels
    )


def fresh_copy(ensemble: sensors.Ensemble) -> sensors.Ensemble:
    """An equal ensemble of equal models that has built no program yet."""
    models = tuple(dataclasses.replace(model) for model in ensemble.models)
    return sensors.Ensemble(models=models, window=ensemble.window)


def kept_program(owner):
    """The programs (an ``explain._Stack``) an ensemble keeps for its
    consistent explanation, or a model for its own; None if none."""
    per_model = isinstance(owner, sensors.LinearModel)
    slot = explain._KEPT_BASELINE if per_model else explain._KEPT_PROGRAM
    return vars(owner).get(slot, (None, None))[1]


def problem_at(stack, r0):
    """The problem of a stack of one program at residuals ``r0``."""
    return stack.problems(stack.bounds(r0[None, None]))[0]


def count_program_builds(monkeypatch) -> list:
    """The arguments of the ``explain._Stack`` that built each counterfactual
    program from now on, once per program."""
    built = []

    class Counted(explain._Stack):
        def __init__(self, G, *args):
            built.extend([(G,) + args] * G.shape[0])
            super().__init__(G, *args)

    monkeypatch.setattr(explain, "_Stack", Counted)
    return built


def record_solves(monkeypatch) -> list:
    """The solution of every ``optim.solve`` call from now on."""
    solutions = []
    solve = optim.solve

    def recorded(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(optim, "solve", recorded)
    return solutions


def run_fresh(code: str, *args: str):
    """The JSON value ``code`` prints last, run by a fresh interpreter.

    The interpreter imports faultprint from this tree and has loaded
    nothing else yet, so the modules it holds are the ones ``code`` loads;
    this process already holds scipy through the oracles.
    """
    src = str(Path(optim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])
