"""The solve-digest script that compares two source trees solve by solve."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).with_name("solve_digest.py")
SRC = Path(__file__).resolve().parent.parent / "src"


def _digest(workload: str, count: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--src", str(SRC), "--workload", workload,
         "--seeds", "1", "--scenarios", str(count)],
        capture_output=True, text=True, check=True,
    ).stdout
    return dict(line.split(": ", 1) for line in out.splitlines())


def test_solve_digest_of_one_scenario_is_repeatable():
    first, second = _digest("lp-grid", 1), _digest("lp-grid", 1)
    assert first == second
    # 20 alarm steps, each explained by the ensemble and its 12 models
    assert first["solves"] == "260"
    # one program for the ensemble and one for each of its 12 models
    assert first["programs"] == "13"
    assert "warm=" in first["paths"]
    # every per-model solve starts from its closed form, and hits
    assert first["guessed_paths"] == "warm=240"
    assert int(first["kkt_maps"]) > 0  # the warm and vertex starts' affine maps
    assert len(first["sha256"]) == 64
    assert len(first["points_sha256"]) == 64
    # the explanations and the scenario's localize_scenario result
    assert len(first["explanations_sha256"]) == 64
    assert first["explanations_sha256"] != hashlib.sha256().hexdigest()
    # the scenario's threshold, alarm flags and detection metrics
    assert len(first["detection_sha256"]) == 64
    assert first["detection_sha256"] != hashlib.sha256().hexdigest()
    # the scenario's two predictions and step count
    assert len(first["predictions_sha256"]) == 64
    assert first["predictions_sha256"] != hashlib.sha256().hexdigest()


@pytest.mark.parametrize(
    "workload, counts",
    [
        # the first 67 alarms, each explained once by the l2/squared ensemble
        ("stream", {"solves": "67", "programs": "1", "x_step_maps": "1", "guessed_paths": "none"}),
        # 20 alarm steps, each explained by the ensemble and its 12 models,
        # every per-model solve from its closed form
        ("l2-grid", {"solves": "260", "programs": "13", "guessed_paths": "warm=240"}),
    ],
)
def test_solve_digest_of_one_squared_error_scenario(workload, counts):
    digest = _digest(workload, 1)
    assert {key: digest[key] for key in counts} == counts
    assert digest["explain_errors"] == "0"
    assert digest["explanations_sha256"] != hashlib.sha256().hexdigest()
    assert digest["detection_sha256"] != hashlib.sha256().hexdigest()
    assert digest["predictions_sha256"] != hashlib.sha256().hexdigest()


def test_solve_digest_of_random_problems_is_repeatable():
    first, second = _digest("random", 20), _digest("random", 20)
    assert first == second
    # each problem cold and warm from the cold solution, at two tolerances
    assert first["solves"] == "80"
    assert first["programs"] == "0"
    assert int(first["polish"]) > 0
    assert first["points_sha256"] != first["sha256"]
    assert first["explanations_sha256"] == hashlib.sha256().hexdigest()  # none made
    assert first["detection_sha256"] == hashlib.sha256().hexdigest()
    assert first["predictions_sha256"] == hashlib.sha256().hexdigest()
