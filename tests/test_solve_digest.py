"""The solve-digest script that compares two source trees solve by solve."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("solve_digest.py")
SRC = Path(__file__).resolve().parent.parent / "src"


def _digest() -> dict:
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--src", str(SRC), "--workload", "lp-grid",
         "--seeds", "1", "--scenarios", "1"],
        capture_output=True, text=True, check=True,
    ).stdout
    return dict(line.split(": ", 1) for line in out.splitlines())


def test_solve_digest_of_one_scenario_is_repeatable():
    first, second = _digest(), _digest()
    assert first == second
    # 20 alarm steps, each explained by the ensemble and its 12 models
    assert first["solves"] == "260"
    assert "warm=" in first["paths"]
    assert len(first["sha256"]) == 64
