"""Acceptance gate: every criterion checked at its stated tolerance.

Runs the full default grid (5 fault kinds x 3 magnitudes x 3 seeds) through
the real pipeline in a temporary directory, then asserts each criterion and
prints one PASS/FAIL line for it (run pytest with -s to see them inline).
"""

import math
import statistics
import time

import numpy as np
import pytest

from faultprint import detector, explain, localize, netgen, optim, pipeline, sensors
from oracles import lp_vertex_objective, random_bounded_lp

JOBS = 2


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    flag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{flag}] {criterion}{suffix}")


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    """One full pipeline run on the default grid, with phase timings."""
    out = tmp_path_factory.mktemp("grid") / "out"
    run = pipeline.RunConfig(outdir=str(out))

    t0 = time.time()
    pipeline.simulate_batch(run, jobs=JOBS)
    pipeline.train_batch(run, jobs=JOBS)
    detection = pipeline.detect_batch(run, jobs=JOBS)
    detect_seconds = time.time() - t0

    t1 = time.time()
    results = pipeline.evaluate_batch(run, jobs=JOBS)
    evaluate_seconds = time.time() - t1

    audit = pipeline.SolveAudit()
    for res in results:
        audit = audit.merge(res.audit)
    return {
        "run": run,
        "detection": detection,
        "results": results,
        "detect_seconds": detect_seconds,
        "evaluate_seconds": evaluate_seconds,
        "audit": audit,
    }


def test_criterion_1_detection(grid_run):
    reports = [report for _, _, report in grid_run["detection"]]
    n = len(reports)
    all_detected = all(r.detected for r in reports)
    max_fp = max(r.false_positive_rate for r in reports)
    median_delay = statistics.median(r.detection_delay for r in reports)
    seconds = grid_run["detect_seconds"]
    ok = (
        n == 45
        and all_detected
        and max_fp == 0.0
        and median_delay <= 3.0
        and seconds <= 120.0
    )
    _report(
        "criterion 1: detection",
        ok,
        f"{n} scenarios, detected={all_detected}, fp={max_fp:g}, "
        f"median delay={median_delay:g}, {seconds:.1f}s",
    )
    assert n == 45
    assert all_detected
    assert max_fp == 0.0
    assert median_delay <= 3.0
    assert seconds <= 120.0


def test_criterion_2_localization_gap(grid_run):
    predictions = pipeline.results_to_predictions(grid_run["results"])
    report = localize.localization_report(predictions)
    seconds = grid_run["evaluate_seconds"]
    ok = (
        report.ensemble_accuracy >= 0.90
        and report.accuracy_gap >= 0.30
        and seconds <= 600.0
    )
    _report(
        "criterion 2: localization gap",
        ok,
        f"consistent={report.ensemble_accuracy:.3f}, "
        f"baseline={report.baseline_accuracy:.3f}, gap={report.accuracy_gap:.3f}, "
        f"{seconds:.1f}s",
    )
    assert report.ensemble_accuracy >= 0.90
    assert report.accuracy_gap >= 0.30
    assert seconds <= 600.0


def test_criterion_3_solver_oracles():
    rng = np.random.default_rng(8675309)
    lp_worst = 0.0
    solutions = []
    for _ in range(100):
        q, A, l, u = random_bounded_lp(rng)
        solution = optim.solve(optim.ConvexProblem.linear(q, A, l, u))
        solutions.append(solution)
        assert solution.status is optim.SolveStatus.OPTIMAL
        oracle = lp_vertex_objective(q, A, l, u)
        lp_worst = max(lp_worst, abs(solution.objective - oracle))

    qp_worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        diag = rng.uniform(0.3, 5.0, n)
        q = rng.normal(scale=3.0, size=n)
        lo = rng.uniform(-3.0, 0.0, n)
        hi = rng.uniform(0.1, 3.0, n)
        problem = optim.ConvexProblem(P=np.diag(diag), q=q, A=np.eye(n), l=lo, u=hi)
        solution = optim.solve(problem)
        solutions.append(solution)
        assert solution.status is optim.SolveStatus.OPTIMAL
        qp_worst = max(
            qp_worst, float(np.abs(solution.z - np.clip(-q / diag, lo, hi)).max())
        )
    test_criterion_3_solver_oracles.audit = pipeline.SolveAudit.from_records(solutions)
    ok = lp_worst <= 1e-5 and qp_worst <= 1e-6
    _report(
        "criterion 3: solver oracle equivalence",
        ok,
        f"LP objective err={lp_worst:.2e} (tol 1e-5), "
        f"box-QP err={qp_worst:.2e} (tol 1e-6)",
    )
    assert lp_worst <= 1e-5
    assert qp_worst <= 1e-6


def test_criterion_4_kkt_certification(grid_run):
    pipeline_audit = grid_run["audit"]
    oracle_audit = getattr(test_criterion_3_solver_oracles, "audit", None)
    combined = pipeline_audit if oracle_audit is None else pipeline_audit.merge(oracle_audit)
    ok = combined.non_optimal == 0 and combined.max_ratio <= 10.0
    _report(
        "criterion 4: KKT certification",
        ok,
        f"{combined.solves} solves, non-optimal={combined.non_optimal}, "
        f"worst residual ratio={combined.max_ratio:.3g} (limit 10)",
    )
    assert combined.solves >= 11700
    assert combined.non_optimal == 0
    assert combined.max_ratio <= 10.0


def test_criterion_5_reduction_equivalence():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 8))
        target = int(rng.integers(n))
        model = sensors.LinearModel(
            weights=rng.normal(size=n - 1), bias=float(rng.normal()), target=target, window=3
        )
        x = rng.normal(scale=2.0, size=n)
        config = explain.CfConfig(tolerances=float(rng.uniform(0.0, 0.3)))
        y_cf = float(rng.normal())
        as_ensemble = explain.ensemble_counterfactual(
            sensors.Ensemble(models=(model,), window=3), x, config, targets=y_cf
        )
        direct = explain.independent_counterfactual(model, x, y_cf, config)
        worst = max(worst, abs(as_ensemble.objective - direct.objective))
    ok = worst <= 1e-6
    _report(
        "criterion 5: reduction equivalence",
        ok,
        f"worst objective gap={worst:.2e} (tol 1e-6) over 50 instances",
    )
    assert worst <= 1e-6


def test_criterion_6_feasibility_certificate(grid_run):
    results = grid_run["results"]
    worst_pipeline = max(res.certificate_excess for res in results)

    # direct re-evaluation on a fixture scenario, outside the pipeline path
    run = grid_run["run"]
    spec = pipeline.expand_grid(run)[0]
    scenario = pipeline.build_scenario(run, spec)
    ensemble, threshold = pipeline.train_scenario(
        scenario.faulty, scenario.config.train_end, run.window, run.margin
    )
    stream = detector.detect(ensemble, scenario.faulty, threshold)
    config = run.cf_config(threshold)
    worst_direct = -math.inf
    for t in stream.alarm_steps()[:10]:
        snapshot = explain.snapshot_at_alarm(scenario.faulty, ensemble, int(t))
        cf = explain.ensemble_counterfactual(ensemble, snapshot, config)
        if cf.feasible_without_slack:
            residuals = np.abs(explain.snapshot_residuals(ensemble, cf.x_cf))
            worst_direct = max(worst_direct, float((residuals - threshold).max()))
    worst = max(worst_pipeline, worst_direct)
    ok = worst <= 1e-6
    _report(
        "criterion 6: feasibility certificate",
        ok,
        f"worst re-evaluated excess={worst:.2e} (tol 1e-6)",
    )
    assert worst <= 1e-6


def test_criterion_7_property_suites(default_panel, default_ensemble):
    rng = np.random.default_rng(777)
    cfg = netgen.ScenarioConfig()

    # fault locality, 100 cases
    for case in range(100):
        kind = [
            netgen.ConstantOffset(float(rng.normal(scale=2))),
            netgen.GaussianNoise(float(rng.uniform(0.1, 2))),
            netgen.PowerFailure(),
            netgen.ProportionalOffset(float(rng.uniform(-0.5, 0.5))),
            netgen.Drift(rate=float(rng.uniform(0.01, 0.5)), cap=100.0),
        ][case % 5]
        sensor = int(rng.integers(cfg.n_pressure))
        onset = int(rng.integers(cfg.train_end + 1, cfg.n_steps))
        faulty = netgen.inject_fault(
            default_panel, netgen.FaultSpec(kind=kind, sensor=sensor, onset=onset), seed=case
        )
        diff = faulty.values != default_panel.values
        assert not diff[:onset].any()
        assert not np.delete(diff[onset:], sensor, axis=1).any()

    # alarm monotonicity in the threshold, 100 cases
    fault = netgen.FaultSpec(kind=netgen.GaussianNoise(0.5), sensor=3, onset=900)
    faulty = netgen.inject_fault(default_panel, fault, seed=1)
    residuals = detector.residual_matrix(default_ensemble, faulty)
    peaks = np.abs(residuals).max(axis=1)
    for _ in range(100):
        low, high = np.sort(rng.uniform(0.0, float(peaks.max()), size=2))
        assert not ((peaks > high) & ~(peaks > low)).any()

    # slack monotonicity in the penalty, 100 cases
    for case in range(100):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(2, n + 1))
        models = tuple(
            sensors.LinearModel(
                weights=rng.normal(size=n - 1), bias=float(rng.normal()), target=int(t), window=3
            )
            for t in rng.choice(n, size=k, replace=False)
        )
        ensemble = sensors.Ensemble(models=models, window=3)
        x = rng.normal(scale=2.0, size=n)
        targets = rng.normal(scale=3.0, size=k)
        lam_lo, lam_hi = np.sort(rng.uniform(0.05, 5.0, size=2))
        lam_hi = max(lam_hi, lam_lo + 1e-3)
        totals = [
            float(
                explain.ensemble_counterfactual(
                    ensemble,
                    x,
                    explain.CfConfig(slack_penalty=float(lam)),
                    targets=targets,
                    solver_options={"tol_abs": 1e-10, "tol_rel": 1e-10},
                ).slacks.sum()
            )
            for lam in (lam_lo, lam_hi)
        ]
        assert totals[1] <= totals[0] + 1e-8

    # normalization keeps the argmax, 100 cases
    for _ in range(100):
        delta = rng.normal(size=int(rng.integers(2, 20)))
        assert localize.predict_faulty_sensor(delta) == localize.predict_faulty_sensor(
            localize.normalize_explanation(delta)
        )

    # CSV round trip identity, 100 cases (tmp files via numpy tobytes check)
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for case in range(100):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            panel = netgen.ReadingsPanel(
                values=rng.normal(scale=10.0 ** rng.integers(-4, 5), size=(rows, cols)),
                kinds=(netgen.SensorKind.PRESSURE,) * cols,
                labels=tuple(f"c{j}" for j in range(cols)),
            )
            path = Path(tmp) / f"{case}.csv"
            netgen.write_csv(panel, path)
            assert np.array_equal(netgen.load_csv(path).values, panel.values)

    _report(
        "criterion 7: property suites",
        True,
        "fault locality, threshold monotonicity, slack monotonicity, "
        "argmax invariance, CSV round trip - 100 cases each",
    )
