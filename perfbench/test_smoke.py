"""Fast smoke test of the benchmark itself, on one- and two-scenario grids.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
from faultprint import netgen  # noqa: E402
from spans import Instrument  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 1


def small(name: str, magnitudes: str = "2.0") -> harness.Workload:
    """The named workload restricted to constant-offset faults."""
    workload = harness.WORKLOADS[name]
    config = {section: dict(entries) for section, entries in workload.config.items()}
    config["grid"] = {kind: "" for kind in netgen.FAULT_KIND_NAMES}
    config["grid"]["constant_offset"] = magnitudes
    return dataclasses.replace(
        workload, config=config, alarms_per_scenario=min(workload.alarms_per_scenario, 30)
    )


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


def run_unit(workload: harness.Workload, out_root: Path):
    bench = harness.Bench(workload, SEED, out_root)
    bench.dir.mkdir(parents=True)
    bench.setup()
    with Instrument(bench.dir / "workers", full=False) as inst:
        unit = bench.unit(inst, 0)
    return bench, unit


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace, listed", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_prints_with_its_unit(tmp_path, name, trace, listed):
    if trace and name == "grid-lp":
        pytest.skip("grid-lp-j2 covers the traced grid code path")
    report = harness.Bench(small(name), SEED, tmp_path).run(0, trace)
    result = report["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["info"]["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[listed]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if listed == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


def test_corrupted_localization_fails_the_check(tmp_path):
    bench, unit = run_unit(small("grid-lp"), tmp_path)
    assert unit.failures == []
    out = bench.dir / "unit-0"
    run = bench.run_config()
    assert harness.check_pipeline_outputs(out, run, unit.spans) == []

    path = out / "localization.csv"
    header, row = path.read_text(encoding="utf-8").splitlines()
    cells = row.split(",")
    true_sensor = int(cells[3])
    cells[4] = str((true_sensor + 1) % 12)  # ensemble_prediction now wrong
    path.write_text(f"{header}\n{','.join(cells)}\n", encoding="utf-8")
    failures = harness.check_pipeline_outputs(out, run, unit.spans)
    assert any("ensemble_correct disagrees" in f for f in failures)
    assert any("accuracy" in f for f in failures)


def test_jobs2_outputs_match_serial_bytes(tmp_path):
    serial, serial_unit = run_unit(small("grid-lp", "1.0, 2.0"), tmp_path / "serial")
    parallel, parallel_unit = run_unit(small("grid-lp-j2", "1.0, 2.0"), tmp_path / "parallel")
    assert serial_unit.failures == [] and parallel_unit.failures == []
    for name in ("detection.csv", "localization.csv"):
        assert (serial.dir / "unit-0" / name).read_bytes() == (
            parallel.dir / "unit-0" / name
        ).read_bytes()
    workers = {s.pid for s in parallel_unit.spans if s.name == "pipeline.evaluate_scenario_files"}
    assert len(workers) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "grid-lp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
