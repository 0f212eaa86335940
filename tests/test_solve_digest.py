"""The solve-digest script that compares two source trees solve by solve."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).with_name("solve_digest.py")
SRC = Path(__file__).resolve().parent.parent / "src"


FAMILY_DIGESTS = ("family_sha256", "family_points_sha256", "family_explanations_sha256")
# Runs the digest script with each alarm step's baselines explained right
# after that step's ensemble explanation, one step at a time.
STEP_BY_STEP = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from faultprint import explain, pipeline
import solve_digest

def step_by_step(run, panel, ensemble, threshold, stream):
    cf, config, options = None, run.cf_config(threshold), run.solver_options()
    for t in stream.alarm_steps()[: run.alarm_steps]:
        x = explain.snapshot_at_alarm(panel, ensemble, int(t))
        cf = explain.ensemble_counterfactual(
            ensemble, x, config, solver_options=options, warm_start=cf
        )
        explain.baseline_counterfactuals(ensemble, x[None], config, solver_options=options)
    return pipeline.Localization(None, None, 0, 0.0, pipeline.SolveAudit())

pipeline.localize_scenario = step_by_step
solve_digest.main(sys.argv[3:])
"""


def _lines(out: str) -> dict:
    return dict(line.split(": ", 1) for line in out.splitlines())


def _arguments(workload: str, count: int) -> list:
    return ["--src", str(SRC), "--workload", workload, "--seeds", "1", "--scenarios", str(count)]


def _digest(workload: str, count: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(SCRIPT), *_arguments(workload, count)],
        capture_output=True, text=True, check=True,
    ).stdout
    return _lines(out)


def _framed_digest(hexdigests) -> str:
    combined = hashlib.sha256()
    for hexdigest in sorted(hexdigests):
        part = hexdigest.encode()
        combined.update(len(part).to_bytes(8, "little") + part)
    return combined.hexdigest()


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
    # one problem family per program
    assert first["families"] == "13"
    for key in FAMILY_DIGESTS:
        assert len(first[key]) == 64


@pytest.mark.parametrize("workload", ["lp-grid", "l2-grid"])
def test_family_digests_leave_out_the_order_of_families(workload):
    # Explaining a step's baselines right after its ensemble explanation
    # reorders the solves of different families, not those of one family:
    # the call-order digests move, the family digests do not.
    ours = _digest(workload, 1)
    out = subprocess.run(
        [sys.executable, "-c", STEP_BY_STEP, str(SRC), str(SCRIPT.parent),
         *_arguments(workload, 1)],
        capture_output=True, text=True, check=True,
    ).stdout
    step_by_step = _lines(out)
    for key in FAMILY_DIGESTS + ("solves", "iterations", "families", "guessed_paths"):
        assert step_by_step[key] == ours[key], key
    for key in ("sha256", "points_sha256", "explanations_sha256"):
        assert step_by_step[key] != ours[key], key


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
    # a problem and its widened copy are one family, which decodes nothing
    assert first["families"] == "20"
    empty = hashlib.sha256().hexdigest()
    assert first["family_explanations_sha256"] == _framed_digest([empty] * 20)
    assert first["family_sha256"] != first["family_points_sha256"]
    assert first["detection_sha256"] == hashlib.sha256().hexdigest()
    assert first["predictions_sha256"] == hashlib.sha256().hexdigest()


def test_solve_digest_of_classifier_ensembles_is_repeatable():
    first, second = _digest("classifier", 20), _digest("classifier", 20)
    assert first == second
    # one program of one-sided rows and one solve per ensemble
    assert first["solves"] == first["programs"] == first["families"] == "20"
    assert first["explain_errors"] == "0"
    assert first["guessed_paths"] == "none"
    assert first["explanations_sha256"] != hashlib.sha256().hexdigest()
    assert first["predictions_sha256"] != hashlib.sha256().hexdigest()
    assert first["detection_sha256"] == hashlib.sha256().hexdigest()  # none made
