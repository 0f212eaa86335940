import collections
import copy
import dataclasses
import re
import struct

import numpy as np
import pytest

from faultprint import detector, explain, netgen, optim, pipeline, sensors
from conftest import count_program_builds, fresh_copy, kept_program, problem_at, record_solves
from oracles import (
    counterfactual_program_rows,
    kkt_residuals_reference,
    kkt_tolerances_reference,
    l1_one_row_oracle,
    lp_vertex_objective,
    one_row_oracle,
    squared_error_epigraph_program,
)

TIGHT = {"tol_abs": 1e-8, "tol_rel": 1e-8}


def single_model(weights, bias=0.0, target=None):
    weights = np.asarray(weights, dtype=float)
    target = len(weights) if target is None else target
    return sensors.LinearModel(weights=weights, bias=float(bias), target=target, window=3)


def toy_ensemble():
    """Three sensors, models chosen so a constant snapshot is consistent."""
    models = (
        single_model([0.5, 0.5], bias=0.0, target=0),
        single_model([1.0, 0.0], bias=0.0, target=1),
        single_model([0.0, 1.0], bias=0.0, target=2),
    )
    return sensors.Ensemble(models=models, window=3)


def test_snapshot_is_panel_row(default_panel, default_ensemble):
    snapshot = explain.snapshot_at_alarm(default_panel, default_ensemble, 1000)
    assert np.array_equal(snapshot, default_panel.values[1000])
    with pytest.raises(ValueError):
        explain.snapshot_at_alarm(default_panel, default_ensemble, 2)


def test_clean_snapshot_residuals_within_threshold(
    default_panel, default_ensemble, default_threshold
):
    for t in range(800, 1900, 50):
        residuals = explain.snapshot_residuals(
            default_ensemble, default_panel.values[t]
        )
        assert np.abs(residuals).max() <= default_threshold


def test_power_failure_snapshot_violates_faulty_constraint(
    default_ensemble, default_threshold, power_failure_scenario
):
    fault = power_failure_scenario.fault
    snapshot = power_failure_scenario.faulty.values[fault.onset + 5]
    residuals = explain.snapshot_residuals(default_ensemble, snapshot)
    faulty_row = default_ensemble.targets.index(fault.sensor)
    assert abs(residuals[faulty_row]) > default_threshold


def test_feasible_origin_gives_zero_change():
    ensemble = toy_ensemble()
    x = np.array([2.0, 2.0, 2.0])  # all residuals exactly zero
    cf = explain.ensemble_counterfactual(
        ensemble, x, explain.CfConfig(tolerances=0.1), solver_options=TIGHT
    )
    assert cf.feasible_without_slack
    assert np.abs(cf.delta).max() <= 1e-8
    assert cf.objective <= 1e-8
    assert np.array_equal(cf.x_cf, x + cf.delta)


def test_build_returns_always_feasible_program():
    ensemble = toy_ensemble()
    cf = explain.ensemble_counterfactual(
        ensemble, np.array([50.0, -3.0, 8.0]), config=explain.CfConfig()
    )
    assert cf.solution.status is optim.SolveStatus.OPTIMAL


def random_ensemble(rng, n, k):
    models = tuple(
        single_model(rng.normal(size=n - 1), bias=rng.normal(), target=t)
        for t in rng.choice(n, size=k, replace=False)
    )
    return sensors.Ensemble(models=models, window=3)


@pytest.mark.parametrize("complexity", ["l1", "l2"])
@pytest.mark.parametrize("dist", ["abs", "squared"])
def test_program_matches_row_by_row_reference(complexity, dist):
    # Bit for bit, signed zeros included, so the solver runs identically;
    # one program serves several snapshots, as along an alarm sequence.
    rng = np.random.default_rng(59)
    for _ in range(50):
        k = int(rng.integers(1, 14))
        n = int(rng.integers(2, 15))
        G = rng.normal(size=(k, n)) * (rng.random((k, n)) < 0.6)
        tol = rng.uniform(0.0, 0.3, size=k) * (rng.random(k) < 0.7)
        one_sided = (rng.random(k) < 0.5) & (dist == "abs")
        config = explain.CfConfig(
            slack_penalty=float(rng.uniform(0.1, 2e3)), complexity=complexity, dist=dist
        )
        stack = explain._Stack(
            G[None], np.zeros((1, k)), np.zeros((1, k)), tol[None], one_sided, config
        )
        for _ in range(3):
            r0 = rng.normal(size=k) * (rng.random(k) < 0.8)
            r0[rng.random(k) < 0.2] = -0.0
            problem = problem_at(stack, r0)
            expected = counterfactual_program_rows(
                G, r0, tol, one_sided, complexity, dist, config.slack_penalty
            )
            for name, reference in zip("PqAlu", expected):
                assert getattr(problem, name).tobytes() == reference.tobytes(), name


@pytest.mark.parametrize("complexity", ["l1", "l2"])
@pytest.mark.parametrize("dist", ["abs", "squared"])
def test_decoded_objective_matches_solver_objective(complexity, dist):
    # The decoded objective prices slack from the change vector alone; at
    # the optimum it must equal the solver's objective over all variables.
    # For squared error this is the pricing identity: with v = c s at its
    # optimum max(0, |e| - sqrt(tol)), v^2 + 2 sqrt(tol) v = max(0, e^2 - tol).
    rng = np.random.default_rng(47)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n + 1))
        config = explain.CfConfig(
            slack_penalty=float(rng.uniform(0.5, 20.0)),
            complexity=complexity,
            dist=dist,
            tolerances=rng.uniform(0.0, 0.5, size=k),
        )
        cf = explain.ensemble_counterfactual(
            random_ensemble(rng, n, k),
            rng.normal(scale=2.0, size=n),
            config,
            targets=rng.normal(scale=2.0, size=k),
            solver_options=TIGHT,
        )
        assert cf.solution.status is optim.SolveStatus.OPTIMAL
        assert cf.objective == pytest.approx(cf.solution.objective, abs=1e-6)


@pytest.mark.parametrize("complexity", ["l1", "l2"])
def test_classifier_decoded_objective_matches_solver_objective(complexity):
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        classifiers = [
            explain.LinearClassifier(weights=rng.normal(size=n), bias=float(rng.normal()))
            for _ in range(k)
        ]
        config = explain.CfConfig(
            slack_penalty=float(rng.uniform(0.5, 20.0)), complexity=complexity
        )
        cf = explain.classification_ensemble_cf(
            classifiers,
            rng.normal(scale=2.0, size=n),
            rng.choice([-1, 1], size=k),
            config,
            solver_options=TIGHT,
        )
        assert cf.solution.status is optim.SolveStatus.OPTIMAL
        assert cf.objective == pytest.approx(cf.solution.objective, abs=1e-6)


def test_violated_constraint_concentrates_on_largest_coefficient():
    # one model w = (2, 1), bias 0: residual 2*x0 + x1 - x2; L1 change
    # concentrates on the coefficient-2 coordinate.
    model = single_model([2.0, 1.0], bias=0.0, target=2)
    x = np.array([1.0, 1.0, 0.0])  # residual 3
    cf = explain.independent_counterfactual(
        model, x, 0.0, explain.CfConfig(tolerances=0.0), solver_options=TIGHT
    )
    assert cf.feasible_without_slack
    assert np.abs(cf.delta[0] + 1.5) <= 1e-6
    assert np.abs(cf.delta[[1, 2]]).max() <= 1e-6


def test_tiny_penalty_pushes_violation_into_slack():
    model = single_model([2.0, 1.0], bias=0.0, target=2)
    x = np.array([1.0, 1.0, 0.0])
    cf = explain.independent_counterfactual(
        model, x, 0.0, explain.CfConfig(slack_penalty=1e-6), solver_options=TIGHT
    )
    assert np.abs(cf.delta).max() <= 1e-6
    assert not cf.feasible_without_slack
    assert cf.slacks[0] == pytest.approx(3.0, abs=1e-5)


def test_power_failure_fingerprint_points_at_faulty_sensor(
    default_ensemble, default_threshold, power_failure_scenario
):
    fault = power_failure_scenario.fault
    stream = detector.detect(
        default_ensemble, power_failure_scenario.faulty, default_threshold
    )
    t = int(stream.alarm_steps()[0])
    snapshot = explain.snapshot_at_alarm(power_failure_scenario.faulty, default_ensemble, t)
    cf = explain.ensemble_counterfactual(
        default_ensemble, snapshot, explain.CfConfig(tolerances=default_threshold)
    )
    assert int(np.argmax(np.abs(cf.delta))) == fault.sensor


def test_single_model_ensemble_matches_independent_path():
    rng = np.random.default_rng(31)
    for case in range(10):
        n = int(rng.integers(3, 7))
        weights = rng.normal(size=n - 1)
        target = int(rng.integers(n))
        model = single_model(weights, bias=rng.normal(), target=target)
        x = rng.normal(scale=2.0, size=n)
        config = explain.CfConfig(tolerances=float(rng.uniform(0.0, 0.2)))
        via_ensemble = explain.ensemble_counterfactual(
            sensors.Ensemble(models=(model,), window=3), x, config, solver_options=TIGHT
        )
        direct = explain.independent_counterfactual(
            model, x, 0.0, config, solver_options=TIGHT
        )
        assert via_ensemble.objective == pytest.approx(direct.objective, abs=1e-6)


def test_independent_baselines_are_sparse(
    default_ensemble, default_threshold, power_failure_scenario
):
    fault = power_failure_scenario.fault
    snapshot = power_failure_scenario.faulty.values[fault.onset + 3]
    config = explain.CfConfig(tolerances=default_threshold)
    for model in default_ensemble.models:
        cf = explain.independent_counterfactual(model, snapshot, 0.0, config)
        assert int((np.abs(cf.delta) > 1e-6).sum()) <= 2


def test_feasibility_certificate_on_fixture(
    default_ensemble, default_threshold, power_failure_scenario
):
    fault = power_failure_scenario.fault
    config = explain.CfConfig(tolerances=default_threshold)
    for offset in range(0, 20, 4):
        snapshot = power_failure_scenario.faulty.values[fault.onset + offset]
        cf = explain.ensemble_counterfactual(default_ensemble, snapshot, config)
        if cf.feasible_without_slack:
            margin = explain.certificate_margin(default_ensemble, cf, default_threshold)
            assert margin <= 1e-6


@pytest.mark.parametrize("complexity, dist", [("l1", "abs"), ("l2", "squared")])
def test_excess_is_the_certificate_margin_bit_for_bit(complexity, dist):
    # certificate_margin rebuilds the residual rows from the models, apart
    # from the program the explanation was solved on: along the seed-1
    # alarm chains, one scenario per fault kind, it measures every
    # slack-free explanation's excess to the bit.
    run = pipeline.RunConfig(seeds=(1,), complexity=complexity, dist=dist)
    checked = 0
    for spec in pipeline.expand_grid(run)[::3]:
        scenario = pipeline.build_scenario(run, spec)
        panel = scenario.faulty
        ensemble, threshold = pipeline.train_scenario(
            panel, scenario.config.train_end, run.window, run.margin
        )
        config, options = run.cf_config(threshold), run.solver_options()
        cf = None
        for t in detector.detect(ensemble, panel, threshold).alarm_steps()[: run.alarm_steps]:
            x = explain.snapshot_at_alarm(panel, ensemble, int(t))
            cf = explain.ensemble_counterfactual(
                ensemble, x, config, solver_options=options, warm_start=cf
            )
            if cf.feasible_without_slack:
                margin = explain.certificate_margin(ensemble, cf, threshold, dist)
                assert struct.pack("<d", cf.excess) == struct.pack("<d", margin)
                checked += 1
    assert checked == 5 * run.alarm_steps  # every explanation is slack-free


def test_certificate_margin_rejects_an_unknown_distance():
    ensemble = toy_ensemble()
    cf = explain.ensemble_counterfactual(ensemble, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="'bogus'"):
        explain.certificate_margin(ensemble, cf, 0.0, dist="bogus")


@pytest.mark.parametrize(
    "tolerances, message",
    [
        (np.nan, "tolerances must be nonnegative and finite"),
        (-1.0, "tolerances must be nonnegative and finite"),
        (np.full(1, 0.1), r"tolerances has shape \(1,\), not \(\) or \(2,\) for 2 models"),
        (np.full(3, 0.1), r"tolerances has shape \(3,\), not \(\) or \(2,\) for 2 models"),
    ],
    ids=["nan", "negative", "one-for-two-models", "three-for-two-models"],
)
def test_certificate_margin_checks_its_tolerances(tolerances, message):
    # As CfConfig and the explanations check them: a NaN tolerance would
    # make every margin NaN, which no `margin > bound` gate fails.
    ensemble = sensors.Ensemble(models=toy_ensemble().models[:2], window=3)
    cf = explain.ensemble_counterfactual(ensemble, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match=message):
        explain.certificate_margin(ensemble, cf, tolerances)


def test_slack_total_is_monotone_in_penalty():
    rng = np.random.default_rng(17)
    for case in range(100):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(2, n + 1))
        models = tuple(
            single_model(rng.normal(size=n - 1), bias=rng.normal(), target=t)
            for t in rng.choice(n, size=k, replace=False)
        )
        ensemble = sensors.Ensemble(models=models, window=3)
        x = rng.normal(scale=2.0, size=n)
        # conflicting targets force genuine slack use at moderate penalties
        targets = rng.normal(scale=3.0, size=k)
        lam_small, lam_large = np.sort(rng.uniform(0.05, 5.0, size=2))
        if lam_large - lam_small < 1e-3:
            lam_large += 0.1
        totals = []
        for lam in (lam_small, lam_large):
            cf = explain.ensemble_counterfactual(
                ensemble,
                x,
                explain.CfConfig(slack_penalty=float(lam)),
                targets=targets,
                solver_options={"tol_abs": 1e-10, "tol_rel": 1e-10},
            )
            totals.append(float(cf.slacks.sum()))
        assert totals[1] <= totals[0] + 1e-8


def test_zero_change_optimality_when_origin_feasible():
    rng = np.random.default_rng(23)
    for case in range(50):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, 4))
        models = tuple(
            single_model(rng.normal(size=n - 1), bias=0.0, target=t)
            for t in rng.choice(n, size=k, replace=False)
        )
        ensemble = sensors.Ensemble(models=models, window=3)
        x = rng.normal(size=n)
        residuals = explain.snapshot_residuals(ensemble, x)
        config = explain.CfConfig(tolerances=np.abs(residuals) + 0.1)
        cf = explain.ensemble_counterfactual(
            ensemble, x, config, solver_options={"tol_abs": 1e-10, "tol_rel": 1e-10}
        )
        assert cf.objective <= 1e-8
        assert np.abs(cf.delta).max() <= 1e-8


def test_scaling_leaves_argmax_unchanged():
    rng = np.random.default_rng(29)
    for _ in range(100):
        delta = rng.normal(size=8)
        scale = float(rng.uniform(1e-6, 1e6))
        assert int(np.argmax(np.abs(delta))) == int(np.argmax(np.abs(scale * delta)))


def test_squared_dist_zero_tolerance_matches_quadratic_penalty():
    # single constraint, L1 complexity: minimize |m| + lam*(e0 - m)^2 over the
    # best coordinate; optimum leaves |e| = min(|e0|, 1/(2 lam)).
    model = single_model([0.5], bias=0.0, target=1)
    x = np.array([4.0, 0.0])  # residual e0 = 2.0
    lam = 2.0
    config = explain.CfConfig(slack_penalty=lam, dist="squared", tolerances=0.0)
    cf = explain.independent_counterfactual(model, x, 0.0, config, solver_options=TIGHT)
    expected_final = 1.0 / (2.0 * lam)  # residual left when the penalty balances
    residual = explain.snapshot_residuals(
        sensors.Ensemble(models=(model,), window=3), cf.x_cf
    )[0]
    assert residual == pytest.approx(expected_final, abs=1e-5)
    assert cf.slacks[0] == pytest.approx(expected_final**2, abs=1e-5)


def test_squared_dist_with_tolerance_stops_at_deadzone_edge():
    # with a generous penalty the change stops once e^2 <= tolerance
    model = single_model([0.5], bias=0.0, target=1)
    x = np.array([4.0, 0.0])
    tol = 0.25
    config = explain.CfConfig(slack_penalty=1e3, dist="squared", tolerances=tol)
    cf = explain.independent_counterfactual(model, x, 0.0, config, solver_options=TIGHT)
    residual = explain.snapshot_residuals(
        sensors.Ensemble(models=(model,), window=3), cf.x_cf
    )[0]
    assert abs(residual) == pytest.approx(np.sqrt(tol), abs=1e-4)
    assert cf.feasible_without_slack


def test_l2_complexity_spreads_change():
    # two equally-weighted inputs: L2 splits the change evenly
    model = single_model([1.0, 1.0], bias=0.0, target=2)
    x = np.array([1.0, 1.0, 0.0])  # residual 2
    config = explain.CfConfig(complexity="l2", tolerances=0.0)
    cf = explain.independent_counterfactual(model, x, 0.0, config, solver_options=TIGHT)
    assert cf.feasible_without_slack
    assert cf.delta[0] == pytest.approx(cf.delta[1], abs=1e-6)


@pytest.mark.parametrize("one_sided", [False, True])
def test_slack_free_result_is_rechecked_on_corrected_snapshot(one_sided):
    # Slack is priced from the change vector; the re-check applies the rows
    # to x_cf itself and rejects an excess over FEASIBLE_SLACK_TOL there.
    G, r0, tol = np.array([[1.0, -1.0]]), np.array([0.1]), np.array([0.1])
    sense = np.array([one_sided])
    stack = explain._Stack(
        G[None], r0[None], np.zeros((1, 1)), tol[None], sense, explain.CfConfig()
    )
    solution = optim.solve(problem_at(stack, r0), **TIGHT)
    sign = 1.0 if one_sided else -1.0  # toward violating the row

    def decode(excess):
        at_x_cf = tol - sign * excess
        stack.residuals = lambda x: at_x_cf[None, None]
        return explain._decode([solution], stack, r0[None, None], np.zeros((1, 2)))[0]

    cf = decode(0.5 * explain.FEASIBLE_SLACK_TOL)
    assert cf.feasible_without_slack
    assert cf.excess == pytest.approx(0.5 * explain.FEASIBLE_SLACK_TOL)
    with pytest.raises(explain.ExplainError, match="re-evaluation"):
        decode(2.0 * explain.FEASIBLE_SLACK_TOL)


def test_classification_already_satisfied():
    clf = explain.LinearClassifier(weights=np.array([1.0, 0.0]), bias=-1.0)
    cf = explain.classification_ensemble_cf(
        [clf], np.array([3.0, 0.0]), [1], solver_options=TIGHT
    )
    assert np.abs(cf.delta).max() <= 1e-8
    assert cf.feasible_without_slack


def test_classification_two_half_planes():
    cls = [
        explain.LinearClassifier(weights=np.array([1.0, 0.0]), bias=-1.0),
        explain.LinearClassifier(weights=np.array([0.0, 1.0]), bias=-1.0),
    ]
    cf = explain.classification_ensemble_cf(
        cls, np.zeros(2), [1, 1], solver_options=TIGHT
    )
    assert cf.feasible_without_slack
    assert np.all(np.abs(cf.delta - 1.0) <= 1e-4)
    for clf in cls:
        assert clf.predict(cf.x_cf) == 1


def test_classification_contradictory_targets_need_slack():
    clf = explain.LinearClassifier(weights=np.array([1.0, 0.0]), bias=0.0)
    cf = explain.classification_ensemble_cf(
        [clf, clf], np.array([0.5, 0.0]), [1, -1], solver_options=TIGHT
    )
    # both constraints cannot hold; the optimum keeps slack exactly at the
    # two-sided margin 2 * 1e-6, which is nonzero by construction
    assert not cf.feasible_without_slack
    assert np.max(cf.slacks) > explain.FEASIBLE_SLACK_TOL
    # a slacked result is kept, with the excess measured at x_cf
    assert cf.excess == pytest.approx(np.max(cf.slacks))
    assert cf.slacks.sum() == pytest.approx(2e-6, rel=0.5)


def test_classification_rejects_bad_targets():
    clf = explain.LinearClassifier(weights=np.array([1.0]), bias=0.0)
    with pytest.raises(ValueError):
        explain.classification_ensemble_cf([clf], np.zeros(1), [2])
    with pytest.raises(ValueError):
        explain.classification_ensemble_cf([clf], np.zeros(1), [1, 1])


def test_classification_rejects_classifiers_of_different_lengths():
    # Named before any stacking: numpy's own concatenation error names no
    # classifier.
    classifiers = [
        explain.LinearClassifier(weights=np.ones(2), bias=0.0),
        explain.LinearClassifier(weights=np.ones(2), bias=1.0),
        explain.LinearClassifier(weights=np.ones(3), bias=0.0),
    ]
    message = r"^classifier 2 has 3 weights, expected 2 as classifier 0 has$"
    with pytest.raises(ValueError, match=message):
        explain.classification_ensemble_cf(classifiers, np.zeros(2), [1, 1, 1])


@pytest.mark.parametrize(
    "config, field",
    [
        (explain.CfConfig(dist="squared"), "dist"),
        (explain.CfConfig(tolerances=0.5), "tolerances"),
        (explain.CfConfig(tolerances=np.array([0.0, 0.1])), "tolerances"),
        (explain.CfConfig(dist="squared", tolerances=0.5), "dist"),
    ],
)
def test_classification_refuses_config_fields_its_rows_cannot_take(config, field):
    # One-sided rows are priced as absolute error against a fixed margin, so
    # a squared error or a tolerance would be dropped without a word.
    clf = explain.LinearClassifier(weights=np.array([1.0, 0.0]), bias=-1.0)
    with pytest.raises(ValueError, match=rf"^classifier rows [^:]*: {field} must be"):
        explain.classification_ensemble_cf([clf, clf], np.zeros(2), [1, 1], config)


def test_classification_takes_zero_tolerances_and_the_complexity_as_given():
    classifiers = [
        explain.LinearClassifier(weights=np.array([1.0, 2.0]), bias=-2.0),
        explain.LinearClassifier(weights=np.array([1.0, 0.0]), bias=5.0),
    ]
    x = np.zeros(2)
    config = explain.CfConfig(complexity="l2")
    same = dataclasses.replace(config, tolerances=np.zeros(2))
    ours, theirs = (
        explain.classification_ensemble_cf(classifiers, x, [1, 1], c, solver_options=TIGHT)
        for c in (config, same)
    )
    assert ours.delta.tobytes() == theirs.delta.tobytes()
    l1 = explain.classification_ensemble_cf(classifiers, x, [1, 1], solver_options=TIGHT)
    # the complexity applies: l2 moves along the weights, l1 one coordinate
    assert np.allclose(ours.delta, [0.4, 0.8], atol=1e-6)
    assert np.allclose(l1.delta, [0.0, 1.0], atol=1e-6)


def explain_three_sensor_snapshot(entry, x):
    """Explain ``x`` through one of the three entry points, each for 3 sensors."""
    if entry == "ensemble":
        return explain.ensemble_counterfactual(toy_ensemble(), x)
    if entry == "independent":
        return explain.independent_counterfactual(single_model([1.0, 1.0]), x)
    if entry == "baseline":  # the snapshot as the one row of (S, 3) snapshots
        return explain.baseline_counterfactuals(toy_ensemble(), np.asarray(x)[None])
    clf = explain.LinearClassifier(weights=np.ones(3), bias=0.0)
    return explain.classification_ensemble_cf([clf], x, [1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", ["ensemble", "independent", "baseline", "classifier"])
def test_non_finite_snapshot_is_rejected_before_any_solve(monkeypatch, entry, bad):
    solutions = record_solves(monkeypatch)
    with pytest.raises(ValueError, match="snapshot"):
        explain_three_sensor_snapshot(entry, np.array([1.0, bad, 1.0]))
    assert not solutions


@pytest.mark.parametrize(
    "x",
    [np.ones(4), np.ones(2), np.ones((1, 3)), np.float64(1.0)],
    ids=["longer", "shorter", "row", "scalar"],
)
@pytest.mark.parametrize("entry", ["ensemble", "independent", "baseline", "classifier"])
def test_snapshot_of_another_shape_is_rejected_before_any_solve(monkeypatch, entry, x):
    solutions = record_solves(monkeypatch)
    if entry == "baseline":
        message = re.escape(f"snapshots have shape {(1,) + x.shape}, expected (S, 3)")
    else:
        message = re.escape(f"snapshot has shape {x.shape}, expected (3,)")
    with pytest.raises(ValueError, match=message):
        explain_three_sensor_snapshot(entry, x)
    assert not solutions


@pytest.mark.parametrize(
    "field, given",
    [
        ("targets", np.zeros(2)),
        ("targets", np.zeros(4)),
        ("tolerances", np.full(2, 0.1)),
        ("tolerances", np.full((3, 1), 0.1)),  # 2-D, with the model count
        ("tolerances", np.full((1, 1), 0.1)),
    ],
    ids=["targets-short", "targets-long", "tolerances-short", "tolerances-2d", "tolerances-1x1"],
)
def test_per_model_arrays_of_another_length_are_named(field, given):
    # One value per model, or a scalar; numpy's broadcasting error is not
    # an answer a caller can act on.
    ensemble = toy_ensemble()
    config = explain.CfConfig(tolerances=given if field == "tolerances" else 0.0)
    targets = given if field == "targets" else 0.0
    shape = re.escape(str(given.shape))
    with pytest.raises(ValueError, match=rf"{field} has shape {shape}, not \(\) or \(3,\) for 3 models"):
        explain.ensemble_counterfactual(ensemble, np.ones(3), config, targets)
    if field == "tolerances":  # the per-model path has one model
        model = ensemble.models[0]
        with pytest.raises(ValueError, match=rf"tolerances has shape {shape}, .* for 1 models"):
            explain.independent_counterfactual(model, np.ones(3), 0.0, config)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_targets_are_refused_before_a_program_is_kept(bad):
    # Refused by name, rather than by the solver's check of the bounds they
    # give, and before the owner keeps a program built from them.
    ensemble = toy_ensemble()
    model = ensemble.models[0]
    x = np.array([1.0, 2.0, 3.0])
    calls = [(model, explain.independent_counterfactual, (x, bad))]
    for targets in (bad, np.array([0.0, bad, 0.0])):
        calls += [
            (ensemble, explain.ensemble_counterfactual, (x, explain.CfConfig(), targets)),
            (ensemble, explain.baseline_counterfactuals, (x[None], explain.CfConfig(), targets)),
        ]
    for owner, call, args in calls:
        with pytest.raises(ValueError, match="^targets must be finite$"):
            call(owner, *args)
        assert not vars(owner).keys() & {explain._KEPT_PROGRAM, explain._KEPT_BASELINE}


def test_classifier_keeps_a_frozen_copy_of_its_weights():
    weights = np.array([1.0, 0.0])
    clf = explain.LinearClassifier(weights=weights, bias=-1.0)
    weights[0] = -5.0
    assert clf.weights.tolist() == [1.0, 0.0]
    assert clf.predict(np.array([3.0, 0.0])) == 1
    with pytest.raises(ValueError):
        clf.weights[0] = 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classifier_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="finite"):
        explain.LinearClassifier(weights=np.array([1.0, bad]), bias=0.0)
    with pytest.raises(ValueError, match="finite"):
        explain.LinearClassifier(weights=np.array([1.0, 0.0]), bias=bad)


def test_classifier_weights_must_be_a_vector():
    with pytest.raises(ValueError, match="vector"):
        explain.LinearClassifier(weights=np.ones((2, 2)), bias=0.0)


def test_classifiers_compare_field_by_field():
    clf = explain.LinearClassifier(np.array([1.0, 2.0]), 0.0)
    assert clf == explain.LinearClassifier(np.array([1.0, 2.0]), 0.0)
    assert clf == explain.LinearClassifier([1, 2], 0)  # same values, other types
    assert clf != explain.LinearClassifier(np.array([1.0, 2.5]), 0.0)
    assert clf != explain.LinearClassifier(np.array([1.0, 2.0, 0.0]), 0.0)
    assert clf != explain.LinearClassifier(np.array([1.0, 2.0]), 1.0)
    assert clf != "classifier"


def test_solver_failure_is_propagated_with_diagnostics():
    # Two models: a one-row program starts at its closed-form optimum and
    # needs no iteration.
    ensemble = sensors.Ensemble(
        models=(
            single_model([2.0, 1.0], bias=0.0, target=2),
            single_model([1.0, -1.0], bias=0.5, target=0),
        ),
        window=3,
    )
    with pytest.raises(explain.ExplainError, match="max_iters"):
        explain.ensemble_counterfactual(
            ensemble,
            np.array([5.0, 5.0, 0.0]),
            explain.CfConfig(complexity="l2", dist="squared"),
            solver_options={"max_iters": 1},
        )


def test_cf_config_validation():
    with pytest.raises(ValueError):
        explain.CfConfig(slack_penalty=0.0)
    with pytest.raises(ValueError):
        explain.CfConfig(complexity="l3")
    with pytest.raises(ValueError):
        explain.CfConfig(dist="cubic")
    with pytest.raises(ValueError):
        explain.CfConfig(tolerances=-1.0)


def test_cf_config_keeps_a_frozen_copy_of_its_tolerances():
    tolerances = np.array([0.5, 0.5])
    config = explain.CfConfig(tolerances=tolerances)
    tolerances[0] = np.nan
    assert config.tolerance_vector(2).tolist() == [0.5, 0.5]
    with pytest.raises(ValueError):
        config.tolerances[0] = 2.0
    assert explain.CfConfig(tolerances=np.array(0.25)).tolerances == 0.25


def test_cf_configs_compare_field_by_field():
    config = explain.CfConfig(tolerances=np.array([0.5, 0.5]))
    assert config != explain.CfConfig()
    assert config == explain.CfConfig(tolerances=[0.5, 0.5])  # same values, other types
    assert config != explain.CfConfig(tolerances=np.array([0.5, 0.25]))
    assert config != explain.CfConfig(tolerances=0.5)
    assert config != explain.CfConfig(tolerances=[0.5, 0.5], slack_penalty=10.0)
    assert config != "config"
    assert explain.CfConfig(tolerances=0) == explain.CfConfig()


def test_program_is_kept_for_equal_tolerance_arrays(monkeypatch):
    built = count_program_builds(monkeypatch)
    rng = np.random.default_rng(79)
    ensemble = random_ensemble(rng, 5, 3)
    x = rng.normal(size=5)
    tolerances = np.array([0.05, 0.1, 0.2])
    explain.ensemble_counterfactual(ensemble, x, explain.CfConfig(tolerances=tolerances))
    tolerances[0] = 0.5  # the config keeps its own copy
    equal = explain.CfConfig(tolerances=[0.05, 0.1, 0.2])
    explain.ensemble_counterfactual(ensemble, x, equal)
    assert len(built) == 1
    explain.ensemble_counterfactual(ensemble, x, explain.CfConfig(tolerances=tolerances))
    assert len(built) == 2


@pytest.mark.parametrize(
    "field,bad",
    [
        ("slack_penalty", np.nan),
        ("slack_penalty", np.inf),
        ("tolerances", np.nan),
        ("tolerances", np.inf),
        ("tolerances", np.array([0.1, np.nan])),
    ],
)
def test_cf_config_rejects_non_finite_values(field, bad):
    with pytest.raises(ValueError, match=field):
        explain.CfConfig(**{field: bad})


def residual_coefficients(model, n):
    """g with the model's weights on its inputs and -1 on its target."""
    g = np.empty(n)
    g[np.arange(n) != model.target] = model.weights
    g[model.target] = -1.0
    return g


def random_single_model(rng, n):
    """A model whose residual coefficients have one clear largest magnitude."""
    while True:
        target = int(rng.integers(n))
        model = single_model(rng.normal(scale=1.5, size=n - 1), target=target)
        g = np.abs(residual_coefficients(model, n))
        top, runner_up = np.sort(g)[::-1][:2]
        if top - runner_up > 0.05:
            return model


def l1_single_model_oracle(model, x, tol):
    """Closed-form optimum of the per-model L1 program with ample penalty."""
    g = residual_coefficients(model, x.shape[0])
    return l1_one_row_oracle(g, float(g @ x + model.bias), tol, np.inf)


def snapshot_with_residual(rng, model, n, r0):
    """A random snapshot on which the model's residual is exactly r0."""
    x = rng.normal(scale=2.0, size=n)
    g = residual_coefficients(model, n)
    others = np.arange(n) != model.target
    # solve for the target reading: g'x + b = r0 with g[target] = -1
    x[model.target] = float(g[others] @ x[others] + model.bias - r0)
    return x


def test_per_model_l1_matches_closed_form_cold_and_warm():
    # "cold" is a copy of the model that has built no program; "warm" has
    # explained another snapshot, of either residual sign, and keeps its
    # program and factors.  Both start at the closed-form vertex of their
    # snapshot, so the call history changes no bit.
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        model = random_single_model(rng, n)
        config = explain.CfConfig(tolerances=float(rng.uniform(0.0, 0.3)))
        sign, sign_prev = rng.choice([-1.0, 1.0], size=2)
        x_prev = snapshot_with_residual(rng, model, n, sign_prev * rng.uniform(0.5, 3.0))
        x = snapshot_with_residual(rng, model, n, sign * rng.uniform(0.5, 3.0))
        previous = explain.independent_counterfactual(
            model, x_prev, 0.0, config, solver_options=TIGHT
        )
        warm = explain.independent_counterfactual(
            model, x, 0.0, config, solver_options=TIGHT
        )
        cold = explain.independent_counterfactual(
            dataclasses.replace(model), x, 0.0, config, solver_options=TIGHT
        )
        expected = l1_single_model_oracle(model, x, float(config.tolerances))
        for cf in (previous, cold, warm):
            assert cf.solution.status is optim.SolveStatus.OPTIMAL
        assert cold.solution.iterations == 0
        assert np.abs(cold.delta - expected).max() <= 1e-6
        _assert_same_solution(warm.solution, cold.solution)
        assert warm.solution.path == cold.solution.path == "warm"
        assert warm.delta.tobytes() == cold.delta.tobytes()


def snapshot_with_residuals(rng, ensemble, n, r0):
    """A random snapshot on which the ensemble's residuals are r0."""
    x = rng.normal(scale=2.0, size=n)
    G, bias = explain._residual_geometry(ensemble.models, n)
    return x + np.linalg.lstsq(G, r0 - (G @ x + bias), rcond=None)[0]


def test_warm_start_from_unrelated_snapshot_falls_back_to_admm():
    # A program of two or more rows has no closed-form start, so a caller's
    # warm start decides where its solve starts.
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        ensemble = random_ensemble(rng, n, 2)
        config = explain.CfConfig(tolerances=0.1, dist="squared")
        # the opposite residual signs need the opposite constraints active
        x_prev = snapshot_with_residuals(rng, ensemble, n, np.array([2.0, 2.0]))
        x = snapshot_with_residuals(rng, ensemble, n, np.array([-1.5, -1.5]))
        previous = explain.ensemble_counterfactual(
            ensemble, x_prev, config, solver_options=TIGHT
        )
        cold = explain.ensemble_counterfactual(ensemble, x, config, solver_options=TIGHT)
        warm = explain.ensemble_counterfactual(
            ensemble, x, config, solver_options=TIGHT, warm_start=previous
        )
        assert warm.solution.iterations > 0
        assert warm.solution.iterations == cold.solution.iterations
        assert np.array_equal(warm.delta, cold.delta)
        solution = warm.solution
        assert solution.status is optim.SolveStatus.OPTIMAL
        assert solution.kkt.primal <= solution.kkt_tol.primal
        assert solution.kkt.dual <= solution.kkt_tol.dual


VERTEX_CASES = ("above", "below", "inside", "slack", "tie")
ONE_ROW_CONFIGS = (("l1", "abs"), ("l1", "squared"), ("l2", "abs"), ("l2", "squared"))


def _one_row_program(rng, case, complexity, dist):
    """A one-row, two-sided program, a snapshot, its residual r0 and
    whether the program's optimum is unique.

    ``above`` and ``below`` put r0 past +edge and -edge, where the penalty
    starts (tol, or sqrt(tol) for squared error), ``inside`` within them.
    ``slack`` prices the penalty so low that the change stops short of the
    edge: l1/abs makes no change (the slack is cheaper than 1/max|g_i|),
    and the other configs stop between the edge and r0.  ``tie`` gives two
    channels the largest |g_i|, which makes an l1 optimum a face.
    """
    n = int(rng.integers(2, 8))
    while True:
        g = rng.normal(scale=1.5, size=n)
        if case == "tie":
            i, j = rng.choice(n, size=2, replace=False)
            g[[i, j]] = 1.2 * np.abs(g).max() * rng.choice([-1.0, 1.0], size=2)
        top, runner_up = np.sort(np.abs(g))[::-1][:2]
        if top > 0.1 and (case == "tie" or top - runner_up > 0.05):
            break
    tol = float(rng.uniform(0.05, 0.3))
    edge = np.sqrt(tol) if dist == "squared" else tol
    share = float(rng.uniform(0.1, 0.9)) if case == "slack" else None
    if case == "inside":
        r0 = float(rng.uniform(-0.9, 0.9)) * edge
    else:
        r0 = (edge + float(rng.uniform(0.5, 3.0))) * (-1.0 if case == "below" else 1.0)
    if share is None:
        penalty = 1e3
    elif (complexity, dist) == ("l1", "abs"):
        penalty = share / top
    else:
        # the penalty whose marginal cost meets the change's at |e| = stop
        stop = edge + share * (abs(r0) - edge)
        norm2 = float(g @ g)
        penalty = {
            ("l1", "squared"): 1.0 / (2.0 * top * stop),
            ("l2", "abs"): 2.0 * (abs(r0) - stop) / norm2,
            ("l2", "squared"): (abs(r0) / stop - 1.0) / norm2,
        }[complexity, dist]
    x = rng.normal(size=n)
    config = explain.CfConfig(
        slack_penalty=penalty, complexity=complexity, dist=dist, tolerances=tol
    )
    stack = explain._Stack(
        g[None, None], np.array([[r0 - g @ x]]), np.zeros((1, 1)), np.array([[tol]]),
        np.zeros(1, dtype=bool), config,
    )
    return stack, x, r0, case != "tie" or complexity == "l2"


@pytest.mark.parametrize(
    "complexity, dist, case",
    [
        # an l1/abs id is the bare case name
        pytest.param(c, d, case, id=case if (c, d) == ("l1", "abs") else f"{c}-{d}-{case}")
        for c, d in ONE_ROW_CONFIGS
        for case in VERTEX_CASES
    ],
)
def test_one_row_l1_programs_start_at_their_closed_form_vertex(complexity, dist, case):
    rng = np.random.default_rng(97 + VERTEX_CASES.index(case))
    for _ in range(25):
        stack, x, r0, unique = _one_row_program(rng, case, complexity, dist)
        residual = stack.residuals(x)[0, 0]
        assert residual[0] == pytest.approx(r0, abs=1e-12)
        (cf,) = explain._explain(stack, x[None], TIGHT)
        solution = cf.solution
        assert solution.status is optim.SolveStatus.OPTIMAL
        assert (solution.iterations, solution.path) == (0, "warm") or solution.iterations > 0
        problem = problem_at(stack, residual)
        g, tol, penalty = stack.G[0, 0, 0], float(stack.tol[0, 0, 0]), stack.cfg.slack_penalty
        best, e = one_row_oracle(g, residual[0], tol, penalty, complexity, dist)
        assert solution.objective == pytest.approx(best, rel=1e-8)
        assert float(g @ cf.delta) + r0 == pytest.approx(e, abs=1e-7)
        if (complexity, dist) == ("l1", "abs"):
            vertex = lp_vertex_objective(problem.q, problem.A, problem.l, problem.u)
            assert solution.objective == pytest.approx(vertex, abs=1e-8)
        if unique:
            assert solution.iterations == 0
            if (complexity, dist) == ("l1", "abs"):
                expected = l1_one_row_oracle(g, residual[0], tol, penalty)
                assert np.abs(cf.delta - expected).max() <= 1e-9
            cold = _fresh_solve(problem, TIGHT)
            assert cold.iterations > 0
            # The closed-form start reads its point off the row set's affine
            # map and the cold polish solves by LU: the same dual signs
            # (of the duals beyond rounding), and points apart by rounding
            # (at most 8.9e-16 here, relative to max(1, max |.|)).
            scale = max(1.0, np.abs(cold.y).max())
            signed = np.abs(cold.y) > 1e-12 * scale
            assert (np.sign(solution.y) == np.sign(cold.y))[signed].all()
            for ours, theirs in ((solution.z, cold.z), (solution.y, cold.y)):
                assert np.abs(ours - theirs).max() <= 1e-15 * max(1.0, np.abs(theirs).max())
        else:
            # the optima are a face: any split of the change between the
            # tied channels that has the scalar optimum's l1 norm
            off_peak = np.abs(g) < np.abs(g).max()
            assert np.abs(cf.delta[off_peak]).max(initial=0.0) <= 1e-9
            assert np.abs(cf.delta).sum() == pytest.approx(
                abs(e - r0) / np.abs(g).max(), abs=1e-7
            )


def test_only_one_row_two_sided_programs_have_a_vertex_guess():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(2, 4))
    r0 = np.array([1.0, -1.0])

    def guess(rows, one_sided=False, **config):
        stack = explain._Stack(
            g[None, :rows], np.zeros((1, rows)), np.zeros((1, rows)), np.full((1, rows), 0.1),
            np.full(rows, one_sided), explain.CfConfig(**config),
        )
        at = r0[None, None, :rows]
        return stack.vertex_duals(stack.bounds(at), at)

    for complexity, dist in ONE_ROW_CONFIGS:
        assert guess(1, complexity=complexity, dist=dist) is not None
        assert guess(2, complexity=complexity, dist=dist) is None
    assert guess(1, one_sided=True) is None


def test_warm_start_shape_mismatch_is_rejected():
    ensemble = toy_ensemble()
    x = np.array([3.0, 1.0, 2.0])
    config = explain.CfConfig(tolerances=0.1)
    single = explain.independent_counterfactual(ensemble.models[0], x, 0.0, config)
    with pytest.raises(ValueError, match="warm start has 9 rows, the program 15"):
        explain.ensemble_counterfactual(ensemble, x, config, warm_start=single)
    # an ensemble of one starts at its closed form, and still checks the
    # warm start it is given
    whole = explain.ensemble_counterfactual(ensemble, x, config)
    one = sensors.Ensemble(models=ensemble.models[:1], window=ensemble.window)
    with pytest.raises(ValueError, match="warm start has 15 rows, the program 9"):
        explain.ensemble_counterfactual(one, x, config, warm_start=whole)
    fitting = explain.ensemble_counterfactual(one, x, config, warm_start=single)
    assert fitting.delta.tobytes() == single.delta.tobytes()


def _squared_error_alarms(seed, scenario_id):
    """The l2/squared run, ensemble, threshold, panel and alarm steps of a
    grid scenario, built in-process as the pipeline builds it."""
    run = pipeline.RunConfig(seeds=(seed,), complexity="l2", dist="squared")
    spec = next(s for s in pipeline.expand_grid(run) if s.scenario_id == scenario_id)
    scenario = pipeline.build_scenario(run, spec)
    panel = scenario.faulty
    ensemble, threshold = pipeline.train_scenario(
        panel, scenario.config.train_end, run.window, run.margin
    )
    steps = detector.detect(ensemble, panel, threshold).alarm_steps()
    return run, ensemble, threshold, panel, steps


def test_squared_error_stream_alarm_certifies():
    # Grid seed 101, alarm 34 of this scenario: it once failed certification,
    # and later certified only as an unpolished ADMM point; its polish now
    # certifies it.
    run, ensemble, threshold, panel, steps = _squared_error_alarms(101, "power_failure-m2-s101")
    t = int(steps[34])
    assert t == 1698
    snapshot = explain.snapshot_at_alarm(panel, ensemble, t)
    cf = explain.ensemble_counterfactual(
        ensemble, snapshot, run.cf_config(threshold), solver_options=run.solver_options()
    )
    solution = cf.solution
    assert solution.status is optim.SolveStatus.OPTIMAL
    assert solution.path in ("early_polish", "final_polish")
    for residual, tol in zip(solution.kkt, solution.kkt_tol):
        assert residual <= tol


def _tight_reference(problem, n):
    """The change block of a solve at 1e-11 whose recomputed KKT residuals
    pass those tolerances, on a newly built copy of ``problem``."""
    fresh = optim.ConvexProblem(*(np.array(getattr(problem, name)) for name in "PqAlu"))
    reference = optim.solve(fresh, tol_abs=1e-11, tol_rel=1e-11)
    assert reference.status is optim.SolveStatus.OPTIMAL
    kkt = kkt_residuals_reference(fresh, reference)
    tol = kkt_tolerances_reference(fresh, reference.z, reference.y, 1e-11, 1e-11)
    assert all(r <= t for r, t in zip(kkt, tol))
    return reference.z[:n]


def test_degenerate_stream_alarms_are_polished_and_exact():
    # Seed 1, this scenario: at nine of these alarms a weakly active row
    # pinned by iterate noise kept every polish from passing, and an
    # unpolished ADMM point up to 1.06e-3 from the optimum was reported as
    # optimal.
    run, ensemble, threshold, panel, steps = _squared_error_alarms(1, "power_failure-m2-s1")
    config = run.cf_config(threshold)
    for alarm in [*range(34, 43), *range(61, 65)]:
        snapshot = explain.snapshot_at_alarm(panel, ensemble, int(steps[alarm]))
        cf = explain.ensemble_counterfactual(
            ensemble, snapshot, config, solver_options=run.solver_options()
        )
        assert cf.solution.path in ("early_polish", "final_polish"), alarm
        reference = _tight_reference(_kept_problem(ensemble, snapshot), snapshot.shape[0])
        assert np.abs(cf.delta - reference).max() <= 1e-9, alarm


def test_early_polish_releases_rows_after_a_repair_round():
    # Seed 1, alarm 2 of this scenario: at the first early polish the repair
    # round shows three wrong-signed duals, and releasing them passes.  That
    # round's raw residual is larger than the first round's, so when only
    # the round best in raw residual could release rows, none was released
    # and ADMM went on to 125 iterations.
    run, ensemble, threshold, panel, steps = _squared_error_alarms(1, "gaussian_noise-m2-s1")
    t = int(steps[2])
    assert t == 966
    snapshot = explain.snapshot_at_alarm(panel, ensemble, t)
    cf = explain.ensemble_counterfactual(
        ensemble, snapshot, run.cf_config(threshold), solver_options=run.solver_options()
    )
    assert (cf.solution.path, cf.solution.iterations) == ("early_polish", 25)
    reference = _tight_reference(_kept_problem(ensemble, snapshot), snapshot.shape[0])
    assert np.abs(cf.delta - reference).max() <= 1e-9


def test_a_kept_polish_holds_only_its_lu_factors():
    # The family's slot keeps the rows and KKT factors of its most recently
    # used row sets, its latest polish's last round the most recent.
    # Refinement runs through those factors, so no copy of the matrix stays;
    # a set a warm start pinned also keeps its affine map beside them.
    run, ensemble, threshold, panel, steps = _squared_error_alarms(1, "power_failure-m2-s1")
    config = run.cf_config(threshold)
    cf = None
    for t in steps[:4]:
        snapshot = explain.snapshot_at_alarm(panel, ensemble, int(t))
        cf = explain.ensemble_counterfactual(
            ensemble, snapshot, config, solver_options=run.solver_options(), warm_start=cf
        )
    problem = _kept_problem(ensemble, snapshot)
    # the returned polish, here its last round, pushes only on the most
    # recently used set's rows
    assert cf.solution.path != "admm"
    latest = np.frombuffer(list(problem._kkt_slot)[-1], np.intp)
    assert np.isin(np.flatnonzero(cf.solution.y), latest).all()
    assert 1 < len(problem._kkt_slot) <= optim._KKT_KEPT
    for rows, factor in problem._kkt_slot.items():
        size = problem.n_vars + len(rows) // np.dtype(np.intp).itemsize
        assert factor.lu.shape == (size, size)
        held = sum(part.nbytes for part in factor if isinstance(part, np.ndarray))
        assert held == factor.lu.nbytes + factor.piv.nbytes
        if factor.map is not None:
            M, c0 = factor.map
            assert M.shape == (size, size - problem.n_vars) and c0.shape == (size,)
    assert any(factor.map is not None for factor in problem._kkt_slot.values())


def _solutions_of(monkeypatch, explain_all, fresh):
    """Every solve ``explain_all()`` makes, and how many KKT and x-step
    factorizations they take.  With ``fresh`` each explanation first drops
    the program its owner keeps, so its problem shares no factor with any
    earlier solve."""
    factored = collections.Counter()
    with monkeypatch.context() as patch:
        for name in ("_factor_kkt", "_x_step_map"):
            def counted(*args, _name=name, _original=getattr(optim, name)):
                factored[_name] += 1
                return _original(*args)

            patch.setattr(optim, name, counted)
        if fresh:
            for name in ("ensemble_counterfactual", "independent_counterfactual"):
                def dropping(owner, *args, _original=getattr(explain, name), **kwargs):
                    vars(owner).pop(explain._KEPT_PROGRAM, None)
                    return _original(owner, *args, **kwargs)

                patch.setattr(explain, name, dropping)
        solutions = record_solves(patch)
        result = explain_all()
    return result, solutions, factored


def _lp_alarm_chains(scenario_id):
    """The seed-1 LP grid's explanations of one scenario, as ``evaluate``
    makes them: warm-started ensemble and per-model chains."""
    run = pipeline.RunConfig(seeds=(1,))
    spec = next(s for s in pipeline.expand_grid(run) if s.scenario_id == scenario_id)
    scenario = pipeline.build_scenario(run, spec)
    panel = scenario.faulty
    ensemble, threshold = pipeline.train_scenario(
        panel, scenario.config.train_end, run.window, run.margin
    )
    stream = detector.detect(ensemble, panel, threshold)
    return lambda: pipeline.localize_scenario(run, panel, ensemble, threshold, stream)


def _cold_squared_error_alarms(scenario_id, count):
    """One-off l2/squared explanations of a seed-1 scenario's first alarms,
    as the alarm stream makes them."""
    run, ensemble, threshold, panel, steps = _squared_error_alarms(1, scenario_id)
    config, options = run.cf_config(threshold), run.solver_options()

    def explain_all():
        return [
            explain.ensemble_counterfactual(
                ensemble, explain.snapshot_at_alarm(panel, ensemble, int(t)), config,
                solver_options=options,
            ).delta.tobytes()
            for t in steps[:count]
        ]

    return explain_all


@pytest.mark.parametrize(
    "make",
    [
        lambda: _cold_squared_error_alarms("power_failure-m2-s1", 67),
        lambda: _cold_squared_error_alarms("gaussian_noise-m2-s1", 67),
        lambda: _lp_alarm_chains("power_failure-m2-s1"),
        lambda: _lp_alarm_chains("drift-m1-s1"),
    ],
    ids=["l2-power_failure", "l2-gaussian_noise", "lp-power_failure", "lp-drift"],
)
def test_kept_programs_and_factors_change_no_solution(make, monkeypatch):
    # The same explanations, once with the programs and factors the pipeline
    # keeps across calls and once with a new program for every call, give
    # bit-equal solutions, while the kept factors save factorizations.  A
    # polish that pins a kept row set keeps it whole where a fresh selection
    # could drop a row, so equal solutions are measured, not implied.
    shared = _solutions_of(monkeypatch, make(), fresh=False)
    fresh = _solutions_of(monkeypatch, make(), fresh=True)
    assert shared[0] == fresh[0]  # the explanations or localization results
    assert len(shared[1]) == len(fresh[1]) > 0
    for ours, reference in zip(shared[1], fresh[1]):
        _assert_same_solution(ours, reference)
        assert ours.path == reference.path
    assert shared[2]["_factor_kkt"] < fresh[2]["_factor_kkt"]
    assert shared[2]["_x_step_map"] <= fresh[2]["_x_step_map"]


def test_squared_error_explanations_match_a_tight_reference():
    # Property: random l2/squared programs, targets and tolerances; every
    # explanation at the pipeline's solver tolerances is a polished point
    # within 1e-9 of the tight optimum.
    rng = np.random.default_rng(2)
    options = pipeline.RunConfig().solver_options()
    for _ in range(200):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(2, n + 1))
        ensemble = random_ensemble(rng, n, k)
        config = explain.CfConfig(
            slack_penalty=float(10 ** rng.uniform(1, 3)),
            complexity="l2",
            dist="squared",
            tolerances=rng.uniform(0.01, 1.0, size=k),
        )
        x = rng.normal(scale=2.0, size=n)
        cf = explain.ensemble_counterfactual(
            ensemble, x, config, targets=rng.normal(size=k), solver_options=options
        )
        assert cf.solution.path in ("early_polish", "final_polish")
        reference = _tight_reference(_kept_problem(ensemble, x), n)
        assert np.abs(cf.delta - reference).max() <= 1e-9


def test_squared_error_programs_match_the_epigraph_formulation():
    # Differential check: each random squared-error ensemble program and
    # the epigraph form in tests/oracles.py, which prices the same penalty
    # through other variables and rows, solved tightly, reach one optimal
    # value and agree on whether the explanation needs slack.  The decoded
    # objective, priced from the change alone, is the solver's.
    rng = np.random.default_rng(3)
    tightest = {"tol_abs": 1e-10, "tol_rel": 1e-10}
    slack_free = 0
    for case in range(300):
        complexity = ("l1", "l2")[case % 2]
        k = int(rng.integers(1, 13))
        n = int(rng.integers(k + 1, 15))
        penalty = float(10.0 ** rng.uniform(-1.0, 3.0))
        tol = np.zeros(k) if case % 10 == 0 else rng.uniform(0.0, 0.5, size=k)
        ensemble = random_ensemble(rng, n, k)
        config = explain.CfConfig(
            slack_penalty=penalty, complexity=complexity, dist="squared", tolerances=tol
        )
        x, targets = rng.normal(scale=2.0, size=n), rng.normal(size=k)
        cf = explain.ensemble_counterfactual(  # raises ExplainError unless optimal
            ensemble, x, config, targets=targets, solver_options=tightest
        )
        G, bias = explain._residual_geometry(ensemble.models, n)
        r0 = G @ x + bias - targets
        reference = optim.solve(
            squared_error_epigraph_program(G, r0, tol, complexity, penalty), **tightest
        )
        assert reference.status is optim.SolveStatus.OPTIMAL
        scale = max(1.0, abs(reference.objective))
        assert abs(cf.solution.objective - reference.objective) <= 1e-8 * scale
        z = reference.z
        delta = z[:n] - z[n : 2 * n] if complexity == "l1" else z[:n]
        e = G @ delta + r0
        needs_slack = np.max(e * e - tol) > explain.FEASIBLE_SLACK_TOL
        assert cf.feasible_without_slack == (not needs_slack)
        scale = max(1.0, abs(cf.solution.objective))
        assert abs(cf.objective - cf.solution.objective) <= 1e-9 * scale
        slack_free += cf.feasible_without_slack
    assert 0 < slack_free < 300  # both kinds of explanation were compared


def test_stream_squared_error_programs_match_the_epigraph_formulation():
    # The programs the seed-1 stream explains, not random ones: the l2/squared
    # ensemble at the first 20 alarms of the first scenario of each fault
    # kind, against the epigraph form, both solved tightly.
    run = pipeline.RunConfig(seeds=(1,), complexity="l2", dist="squared")
    tightest = {"tol_abs": 1e-10, "tol_rel": 1e-10}
    first_of_kind = {}
    for spec in pipeline.expand_grid(run):
        first_of_kind.setdefault(spec.kind_name, spec)
    compared = 0
    for spec in first_of_kind.values():
        scenario = pipeline.build_scenario(run, spec)
        panel = scenario.faulty
        ensemble, threshold = pipeline.train_scenario(
            panel, scenario.config.train_end, run.window, run.margin
        )
        config = run.cf_config(threshold)
        G, bias = explain._residual_geometry(ensemble.models, panel.n_sensors)
        tol = config.tolerance_vector(G.shape[0])
        for t in detector.detect(ensemble, panel, threshold).alarm_steps()[:20]:
            x = explain.snapshot_at_alarm(panel, ensemble, int(t))
            cf = explain.ensemble_counterfactual(ensemble, x, config, solver_options=tightest)
            r0 = G @ x + bias
            reference = optim.solve(
                squared_error_epigraph_program(G, r0, tol, "l2", config.slack_penalty),
                **tightest,
            )
            assert reference.status is optim.SolveStatus.OPTIMAL
            scale = max(1.0, abs(reference.objective))
            assert abs(cf.solution.objective - reference.objective) <= 1e-8 * scale
            e = G @ reference.z[: panel.n_sensors] + r0
            needs_slack = np.max(e * e - tol) > explain.FEASIBLE_SLACK_TOL
            assert cf.feasible_without_slack == (not needs_slack)
            compared += 1
    assert compared == 20 * len(first_of_kind) == 100


def _kept_problem(owner, x):
    """The problem of the program ``owner`` keeps, for the snapshot ``x``."""
    stack = kept_program(owner)
    assert stack is not None
    return problem_at(stack, stack.residuals(x)[0, 0])


def _assert_program_is_reference(problem, ensemble, x, targets, config):
    G, bias = explain._residual_geometry(ensemble.models, x.shape[0])
    k = len(ensemble.models)
    r0 = G @ x + bias - np.broadcast_to(targets, (k,))
    expected = counterfactual_program_rows(
        G,
        r0,
        config.tolerance_vector(k),
        np.zeros(k, dtype=bool),
        config.complexity,
        config.dist,
        config.slack_penalty,
    )
    for name, reference in zip("PqAlu", expected):
        assert getattr(problem, name).tobytes() == reference.tobytes(), name


def _assert_same_solution(ours, expected):
    assert ours.z.tobytes() == expected.z.tobytes()
    assert ours.y.tobytes() == expected.y.tobytes()
    assert (ours.objective, ours.status, ours.iterations) == (
        expected.objective, expected.status, expected.iterations
    )
    assert (ours.kkt, ours.kkt_tol) == (expected.kkt, expected.kkt_tol)


def _fresh_solve(problem, options, dual_guess=None):
    """``optim.solve`` on a newly built problem, which shares no factors."""
    fresh = optim.ConvexProblem(*(np.array(getattr(problem, name)) for name in "PqAlu"))
    return optim.solve(fresh, **options, dual_guess=dual_guess)


def test_program_is_reused_only_for_the_same_models_targets_and_config():
    rng = np.random.default_rng(71)
    ensemble = random_ensemble(rng, 6, 4)
    config = explain.CfConfig(tolerances=0.05)
    x0, x1, x2 = (rng.normal(size=6) for _ in range(3))
    first = explain.ensemble_counterfactual(ensemble, x0, config, solver_options=TIGHT)
    program = kept_program(ensemble)
    assert program is not None
    # a one-off call reuses it as a warm-started one does
    explain.ensemble_counterfactual(ensemble, x1, config, solver_options=TIGHT)
    chained = explain.ensemble_counterfactual(
        ensemble, x1, config, solver_options=TIGHT, warm_start=first
    )
    assert kept_program(ensemble) is program
    # an equal config object is the same config
    equal = explain.CfConfig(tolerances=0.05)
    explain.ensemble_counterfactual(ensemble, x2, equal, solver_options=TIGHT)
    assert kept_program(ensemble) is program

    reweighted = sensors.Ensemble(
        models=tuple(
            single_model(m.weights * 1.5, bias=m.bias, target=m.target) for m in ensemble.models
        ),
        window=3,
    )
    variants = [
        (reweighted, config, 0.0),
        (ensemble, explain.CfConfig(tolerances=0.05, slack_penalty=10.0), 0.0),
        (ensemble, explain.CfConfig(tolerances=0.05, complexity="l2"), 0.0),
        (ensemble, explain.CfConfig(tolerances=0.05, dist="squared"), 0.0),
        (ensemble, explain.CfConfig(tolerances=0.2), 0.0),
        (ensemble, config, 0.3),
    ]
    for other, other_config, targets in variants:
        # each variant differs from the kept program in one term
        explain.ensemble_counterfactual(ensemble, x2, config, solver_options=TIGHT)
        kept = kept_program(ensemble)
        # the l1/abs explanation cannot warm-start a program of another size
        same_size = (other_config.complexity, other_config.dist) == ("l1", "abs")
        warm = chained if same_size else None
        cf = explain.ensemble_counterfactual(
            other, x2, other_config, targets, solver_options=TIGHT, warm_start=warm
        )
        assert kept_program(other) is not kept
        _assert_program_is_reference(_kept_problem(other, x2), other, x2, targets, other_config)
        reference = explain.ensemble_counterfactual(
            fresh_copy(other), x2, other_config, targets, solver_options=TIGHT, warm_start=warm
        )
        assert cf.delta.tobytes() == reference.delta.tobytes()


@pytest.mark.parametrize(
    "owner_of, explain_one",
    [
        (lambda e: e, explain.ensemble_counterfactual),
        (lambda e: e.models[0], explain.independent_counterfactual),
    ],
    ids=["ensemble", "model"],
)
def test_explaining_a_copy_leaves_the_original_program_in_place(owner_of, explain_one, monkeypatch):
    # A copy keeps its own program: explaining it under another config
    # neither replaces nor rebuilds the original's.
    rng = np.random.default_rng(79)
    original = owner_of(random_ensemble(rng, 5, 3))
    config = explain.CfConfig(tolerances=0.05)
    x = rng.normal(size=5)
    explain_one(original, x, config=config)
    program = kept_program(original)
    built = count_program_builds(monkeypatch)
    duplicate = copy.copy(original)
    explain_one(duplicate, x, config=explain.CfConfig(tolerances=0.05, slack_penalty=10.0))
    assert kept_program(duplicate) is not program
    explain_one(original, x, config=config)
    assert kept_program(original) is program
    assert len(built) == 1


def test_per_model_warm_start_from_another_model_uses_its_own_program():
    rng = np.random.default_rng(73)
    ensemble = random_ensemble(rng, 5, 2)
    config = explain.CfConfig(tolerances=0.05)
    x0, x1 = rng.normal(size=5), rng.normal(size=5)
    first, second = ensemble.models
    explain.independent_counterfactual(first, x0, 0.0, config)
    explain.independent_counterfactual(first, x1, 0.0, config)
    explain.independent_counterfactual(second, x1, 0.0, config)
    assert kept_program(second) is not kept_program(first)
    assert kept_program(ensemble) is None  # the models keep theirs apart
    single = sensors.Ensemble(models=(second,), window=3)
    _assert_program_is_reference(_kept_problem(second, x1), single, x1, 0.0, config)


@pytest.mark.parametrize("complexity, dist", [("l1", "abs"), ("l2", "squared")])
def test_one_off_explanations_of_an_ensemble_build_one_program(
    complexity, dist, default_ensemble, default_threshold, power_failure_scenario, monkeypatch
):
    # Calls without a warm start share the ensemble's program and its
    # factorizations, and every solve is still bit-equal to a solve of a
    # freshly built problem.
    ensemble = fresh_copy(default_ensemble)
    panel = power_failure_scenario.faulty
    config = explain.CfConfig(tolerances=default_threshold, complexity=complexity, dist=dist)
    options = {"tol_abs": 1e-6, "tol_rel": 1e-6}
    built = count_program_builds(monkeypatch)
    solved = []
    solve = optim.solve

    def recorded(problem, **kwargs):
        solution = solve(problem, **kwargs)
        solved.append((problem, solution))
        return solution

    monkeypatch.setattr(optim, "solve", recorded)
    steps = detector.detect(ensemble, panel, default_threshold).alarm_steps()[:10]
    for t in steps:
        x = explain.snapshot_at_alarm(panel, ensemble, int(t))
        cf = explain.ensemble_counterfactual(ensemble, x, config, solver_options=options)
        assert cf.solution is solved[-1][1]
        _assert_program_is_reference(solved[-1][0], ensemble, x, 0.0, config)
    assert len(built) == 1 and len(solved) == len(steps) == 10
    monkeypatch.setattr(optim, "solve", solve)
    for problem, ours in solved:
        _assert_same_solution(ours, _fresh_solve(problem, options))


@pytest.mark.parametrize("complexity, dist", [("l1", "abs"), ("l2", "squared")])
def test_warm_started_alarm_chain_matches_fresh_programs(
    complexity, dist, default_ensemble, default_threshold, power_failure_scenario, monkeypatch
):
    # Each chain builds its program once, every step's program is the
    # row-by-row reference, and every warm hit is exactly the solve of a
    # freshly built problem from the same start, which shares no factors:
    # reusing programs and factors changes no bit.  The model takes no warm
    # start: it starts at its closed-form optimum, the first step included.
    ensemble = fresh_copy(default_ensemble)
    panel = power_failure_scenario.faulty
    config = explain.CfConfig(tolerances=default_threshold, complexity=complexity, dist=dist)
    options = {"tol_abs": 1e-6, "tol_rel": 1e-6}
    steps = detector.detect(ensemble, panel, default_threshold).alarm_steps()[:12]
    model = ensemble.models[power_failure_scenario.fault.sensor]
    single = sensors.Ensemble(models=(model,), window=3)
    chains = {
        "ensemble": (ensemble, ensemble, lambda x, prev: explain.ensemble_counterfactual(
            ensemble, x, config, solver_options=options, warm_start=prev
        )),
        "model": (model, single, lambda x, prev: explain.independent_counterfactual(
            model, x, 0.0, config, solver_options=options
        )),
    }
    calls = collections.Counter()

    def counting(name):
        original = getattr(optim, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in ("_active_set_solve", "_factor_kkt"):
        monkeypatch.setattr(optim, name, counting(name))
    built = count_program_builds(monkeypatch)
    warm_hits = []
    for owner, as_ensemble, explain_step in chains.values():
        previous = None
        for t in steps:
            x = explain.snapshot_at_alarm(panel, as_ensemble, int(t))
            cf = explain_step(x, previous)
            problem = _kept_problem(owner, x)
            _assert_program_is_reference(problem, as_ensemble, x, 0.0, config)
            if cf.solution.iterations == 0:
                stack = kept_program(owner)
                r0 = stack.residuals(x[None, None])
                # the closed form's duals if the program has them, else the
                # warm start's
                guess = stack.vertex_duals(stack.bounds(r0), r0)
                guess = guess[0, 0] if guess is not None else None
                if guess is None and previous is not None:
                    guess = previous.solution.y
                warm_hits.append((problem, guess, cf.solution))
            previous = cf if owner is ensemble else None
    assert len(built) == len(chains)
    assert len(warm_hits) >= len(steps)  # most steps are warm hits
    # and some of the chains' active-set solves skipped the factorization
    assert calls["_factor_kkt"] < calls["_active_set_solve"]
    for problem, guess, ours in warm_hits:
        _assert_same_solution(ours, _fresh_solve(problem, options, guess))


def _random_baseline_case(rng, complexity, dist):
    """A random ensemble of 1-12 models over 2-14 sensors, with signed zeros
    in its weights, a snapshot, a config and targets; tolerances and
    targets are scalar or one per model."""
    n = int(rng.integers(2, 15))
    k = int(rng.integers(1, min(n, 12) + 1))
    models = []
    for target in rng.choice(n, size=k, replace=False):
        weights = rng.normal(size=n - 1) * (rng.random(n - 1) < 0.7)
        weights[rng.random(n - 1) < 0.2] = -0.0
        models.append(single_model(weights, bias=rng.normal(), target=int(target)))
    tol = rng.uniform(0.0, 0.3, size=k) * (rng.random(k) < 0.7)
    config = explain.CfConfig(
        slack_penalty=float(10.0 ** rng.uniform(0.0, 3.0)),
        complexity=complexity,
        dist=dist,
        tolerances=tol if rng.random() < 0.5 else float(tol[0]),
    )
    targets = rng.normal(scale=0.5, size=k) if rng.random() < 0.5 else float(rng.normal())
    x = rng.normal(scale=2.0, size=n)
    return sensors.Ensemble(models=tuple(models), window=3), x, config, targets


def _assert_same_explanation(ours, expected):
    for name in ("delta", "x_cf", "slacks"):
        assert getattr(ours, name).tobytes() == getattr(expected, name).tobytes(), name
    for name in ("objective", "excess"):
        assert struct.pack("<d", getattr(ours, name)) == struct.pack("<d", getattr(expected, name))
    assert ours.feasible_without_slack == expected.feasible_without_slack
    _assert_same_solution(ours.solution, expected.solution)
    assert ours.solution.path == expected.solution.path


@pytest.mark.parametrize("complexity, dist", ONE_ROW_CONFIGS)
def test_baselines_in_one_pass_match_each_model_explained_alone(complexity, dist):
    # Byte for byte, field by field: the stacked pass explains each model as
    # a stack of one does, on fresh programs; and each objective is the
    # one-row program's optimum.
    rng = np.random.default_rng(131)
    for _ in range(25):
        ensemble, x, config, targets = _random_baseline_case(rng, complexity, dist)
        k = len(ensemble.models)
        (stacked,) = explain.baseline_counterfactuals(fresh_copy(ensemble), x[None], config, targets)
        assert len(stacked) == k
        tol = config.tolerance_vector(k)
        target = np.broadcast_to(targets, (k,))
        for j, (model, ours) in enumerate(zip(ensemble.models, stacked)):
            alone = explain.independent_counterfactual(
                dataclasses.replace(model), x, float(target[j]),
                dataclasses.replace(config, tolerances=float(tol[j])),
            )
            _assert_same_explanation(ours, alone)
            assert ours.solution.path == "warm"
            g = residual_coefficients(model, x.shape[0])
            r0 = float(g @ x + model.bias - target[j])
            best, _ = one_row_oracle(g, r0, tol[j], config.slack_penalty, complexity, dist)
            assert ours.objective == pytest.approx(best, rel=1e-7, abs=1e-9)


def _reordered(ensemble, order, model_order):
    """The ensemble over sensors ``order`` (new sensor i is old sensor
    ``order[i]``), with its models in ``model_order``."""
    where = np.argsort(order)
    models = []
    for j in model_order:
        model = ensemble.models[j]
        row = np.insert(model.weights, model.target, -1.0)[order]  # over every sensor
        target = int(where[model.target])
        models.append(single_model(np.delete(row, target), bias=model.bias, target=target))
    return sensors.Ensemble(models=tuple(models), window=ensemble.window)


@pytest.mark.parametrize("complexity, dist", ONE_ROW_CONFIGS)
def test_reordered_sensors_and_models_explain_the_same_change(complexity, dist):
    # Oracle-free: reordering the sensors and the models permutes the
    # program's variables and rows, so its optimum, mapped back, is the
    # original's up to rounding; for the consistent explanation and for
    # every per-model baseline.
    rng = np.random.default_rng(211)
    for _ in range(25):
        k = int(rng.integers(2, 12))
        n = k + int(rng.integers(1, 4))
        ensemble = random_ensemble(rng, n, k)
        config = explain.CfConfig(
            complexity=complexity, dist=dist, tolerances=float(rng.uniform(0.01, 0.3))
        )
        x = rng.normal(scale=2.0, size=n)
        order, model_order = rng.permutation(n), rng.permutation(k)
        reordered = _reordered(ensemble, order, model_order)
        back = np.argsort(order)  # old sensor s is new sensor back[s]

        ours = explain.ensemble_counterfactual(ensemble, x, config)
        theirs = explain.ensemble_counterfactual(reordered, x[order], config)
        scale = max(1.0, np.abs(ours.delta).max())
        assert np.abs(theirs.delta[back] - ours.delta).max() <= 1e-10 * scale
        assert abs(theirs.objective - ours.objective) <= 1e-10 * max(1.0, abs(ours.objective))

        (ours,) = explain.baseline_counterfactuals(ensemble, x[None], config)
        (theirs,) = explain.baseline_counterfactuals(reordered, x[order][None], config)
        for cf, j in zip(theirs, model_order):
            scale = max(1.0, np.abs(ours[j].delta).max())
            assert np.abs(cf.delta[back] - ours[j].delta).max() <= 1e-10 * scale


@pytest.mark.parametrize("complexity, dist", ONE_ROW_CONFIGS)
def test_a_scenarios_snapshots_in_one_pass_match_them_one_row_at_a_time(
    complexity, dist, default_ensemble, default_threshold, power_failure_scenario
):
    # Byte for byte, field by field: every alarm step's baselines in one
    # pass, and each step's row alone, in step order on another fresh copy,
    # so each model's problem family makes the same solves in the same order.
    panel = power_failure_scenario.faulty
    run = pipeline.RunConfig(complexity=complexity, dist=dist)
    steps = detector.detect(default_ensemble, panel, default_threshold).alarm_steps()
    snapshots = np.array([
        explain.snapshot_at_alarm(panel, default_ensemble, int(t)) for t in steps[: run.alarm_steps]
    ])
    config = run.cf_config(default_threshold)
    options = run.solver_options()
    stacked = explain.baseline_counterfactuals(
        fresh_copy(default_ensemble), snapshots, config, solver_options=options
    )
    one_by_one = fresh_copy(default_ensemble)
    assert len(stacked) == len(snapshots) == run.alarm_steps
    for row, ours in enumerate(stacked):
        (expected,) = explain.baseline_counterfactuals(
            one_by_one, snapshots[row : row + 1], config, solver_options=options
        )
        assert len(ours) == len(expected) == len(default_ensemble.models)
        for cf, alone in zip(ours, expected):
            _assert_same_explanation(cf, alone)
            assert cf.solution.path == "warm" and cf.solution.iterations == 0


def test_no_snapshots_make_no_baselines(monkeypatch):
    solutions = record_solves(monkeypatch)
    assert explain.baseline_counterfactuals(toy_ensemble(), np.empty((0, 3))) == ()
    assert not solutions


def test_a_failed_baseline_solve_names_its_model_and_row(monkeypatch):
    # Each model's problems are solved in row order, the rows' models in
    # model order: the fifth solve is the second model's at the second row.
    ensemble = toy_ensemble()
    solve, calls = optim.solve, []

    def fifth_fails(problem, **kwargs):
        calls.append(solve(problem, **kwargs))
        if len(calls) == 5:
            return dataclasses.replace(calls[-1], status=optim.SolveStatus.MAX_ITERS)
        return calls[-1]

    monkeypatch.setattr(optim, "solve", fifth_fails)
    with pytest.raises(explain.ExplainError, match=(
        f"^per-model baseline for sensor {ensemble.models[1].target}: counterfactual solve"
    )) as caught:
        explain.baseline_counterfactuals(ensemble, np.array([[3.0, 1.0, 2.0], [2.0, 1.0, 3.0]]))
    assert caught.value.row == 1
    assert len(calls) == 5


@pytest.mark.parametrize("complexity, dist", ONE_ROW_CONFIGS)
def test_stacked_pass_is_row_by_row_at_signed_zero_residuals(complexity, dist):
    # The pass's steps take r0 as given, so they see -0.0 in it, which no
    # snapshot's G x + bias - targets gives: each program's bounds,
    # closed-form duals, solve and decoded explanation are those of the
    # program stacked alone.  x stands in for a snapshot whose residuals are
    # r0, so each re-evaluation at x_cf is shifted by their difference.
    rng = np.random.default_rng(137)
    for _ in range(25):
        ensemble, x, config, targets = _random_baseline_case(rng, complexity, dist)
        k = len(ensemble.models)
        stack = explain._kept_stack(
            ensemble, explain._KEPT_BASELINE, ensemble.models, config, targets, True
        )
        r0 = rng.normal(size=(1, k, 1)) * (rng.random((1, k, 1)) < 0.6)
        r0[rng.random((1, k, 1)) < 0.3] = -0.0
        shift = stack.residuals(x[None, None]) - r0
        stack.residuals = lambda at, own=stack.residuals: own(at) - shift
        bounds = stack.bounds(r0)
        guesses = stack.vertex_duals(bounds, r0)
        solutions = [
            optim.solve(p, dual_guess=g) for p, g in zip(stack.problems(bounds), guesses[0])
        ]
        decoded = explain._decode(solutions, stack, r0, x[None])
        for j in range(k):
            model = np.s_[0, j : j + 1]
            alone = explain._Stack(
                stack.G[model], stack.bias[model], stack.targets[model], stack.tol[model],
                stack.one_sided, config,
            )
            alone.residuals = lambda at, own=alone.residuals, j=j: own(at) - shift[:, j : j + 1]
            one_bounds = alone.bounds(r0[:, j : j + 1])
            assert one_bounds.tobytes() == bounds[0, j].tobytes()
            one_guess = alone.vertex_duals(one_bounds, r0[:, j : j + 1])
            assert one_guess.tobytes() == guesses[0, j].tobytes()
            solution = optim.solve(alone.problems(one_bounds)[0], dual_guess=one_guess[0, 0])
            _assert_same_solution(solution, solutions[j])
            (cf,) = explain._decode([solution], alone, r0[:, j : j + 1], x[None])
            _assert_same_explanation(cf, decoded[j])


def test_a_failed_baseline_solve_names_its_model(monkeypatch):
    # The second model's solve comes back non-optimal: the error names that
    # model's target sensor, and nothing is returned.
    ensemble = toy_ensemble()
    solve, calls = optim.solve, []

    def second_fails(problem, **kwargs):
        calls.append(solve(problem, **kwargs))
        if len(calls) == 2:
            return dataclasses.replace(calls[-1], status=optim.SolveStatus.MAX_ITERS)
        return calls[-1]

    monkeypatch.setattr(optim, "solve", second_fails)
    message = (
        rf"per-model baseline for sensor {ensemble.models[1].target}: counterfactual solve "
        r"ended with status max_iters after 0 iterations \(kkt primal .*, dual .*\)"
    )
    with pytest.raises(explain.ExplainError, match=f"^{message}$"):
        explain.baseline_counterfactuals(ensemble, np.array([[3.0, 1.0, 2.0]]))
    assert len(calls) == 2  # no solve after the failed one


def test_a_baseline_that_fails_re_evaluation_names_its_model():
    ensemble = toy_ensemble()
    stack = explain._kept_stack(
        ensemble, explain._KEPT_BASELINE, ensemble.models, explain.CfConfig(), 0.0, True
    )
    x = np.array([[3.0, 1.0, 2.0]])
    r0 = stack.residuals(x[:, None])
    bounds = stack.bounds(r0)
    solutions = [
        optim.solve(p, dual_guess=g)
        for p, g in zip(stack.problems(bounds), stack.vertex_duals(bounds, r0)[0])
    ]
    assert all(cf.feasible_without_slack for cf in explain._decode(solutions, stack, r0, x))
    # the third model's row re-evaluated at x_cf misses its tolerance
    residuals = stack.residuals
    stack.residuals = lambda x_cf: residuals(x_cf) + np.array([[0.0], [0.0], [1.0]])
    with pytest.raises(explain.ExplainError, match=(
        f"^per-model baseline for sensor {ensemble.models[2].target}: "
        "slack-free counterfactual fails re-evaluation by 1.00e[+]00$"
    )):
        explain._decode(solutions, stack, r0, x)


def _solution(zero):
    return optim.Solution(
        np.array([zero, 1.0]), np.array([zero]), zero, optim.SolveStatus.OPTIMAL, 0,
        optim.KktResiduals(zero, zero, zero), optim.KktTolerances(1e-7, 1e-7, 1e-7), "warm",
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda zero: explain.CfConfig(tolerances=zero),
        lambda zero: explain.CfConfig(tolerances=[zero, 0.1]),
        lambda zero: explain.LinearClassifier(np.array([zero, 1.0]), zero),
        lambda zero: single_model([zero, 1.0], bias=zero),
        lambda zero: sensors.Ensemble(models=(single_model([zero, 1.0]),), window=3),
        lambda zero: netgen.ReadingsPanel(
            np.array([[zero, 1.0]]), (netgen.SensorKind.PRESSURE,) * 2, ("a", "b")
        ),
        lambda zero: optim.ConvexProblem.linear(
            np.array([zero, 1.0]), np.eye(2), np.array([zero, -1.0]), np.array([1.0, np.inf])
        ),
        _solution,
        lambda zero: explain.Counterfactual(
            np.array([zero, 1.0]), np.array([2.0, zero]), np.array([zero]), 1.0, True, zero,
            _solution(zero),
        ),
        lambda zero: detector.AlarmStream(3, np.array([zero, 1.0]) > 0.5),
    ],
    ids=[
        "config", "config-array", "classifier", "model", "ensemble", "panel", "problem",
        "solution", "counterfactual", "alarm-stream",
    ],
)
def test_equal_values_hash_equal(make):
    # 0.0 == -0.0 with other bytes: equal copies are one set member and one
    # dict key.
    first, second = make(0.0), make(-0.0)
    assert first == second and hash(first) == hash(second)
    assert first in [second] and first != make(1.0)
    assert len({first, second}) == 1
    assert {first: "kept"}[second] == "kept"


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: sensors.LinearModel(["1.5"], 0.0, 0, 3),
            "weights must hold real numbers, got dtype <U3",
        ),
        (
            lambda: sensors.LinearModel([1.0, 2j], 0.0, 0, 3),
            "weights must hold real numbers, got dtype complex128",
        ),
        (lambda: explain.LinearClassifier([True, False], 0.0), "weights must hold real numbers"),
        (lambda: explain.CfConfig(tolerances=True), "tolerances must hold real numbers"),
        (lambda: explain.CfConfig(tolerances=[0.1, None]), "tolerances must hold real numbers"),
        (lambda: sensors.LinearModel([True, 2.0], 0.0, 0, 3), "weights must hold real numbers"),
        (lambda: explain.CfConfig(tolerances=[False, 0.1]), "tolerances must hold real numbers"),
        (lambda: explain.CfConfig(slack_penalty=True), "slack_penalty must be a real number"),
        (lambda: explain.CfConfig(slack_penalty="5"), "slack_penalty must be a real number"),
        (lambda: sensors.LinearModel([1.0], True, 0, 3), "bias must be a real number"),
        (lambda: sensors.LinearModel([1.0], "0.5", 0, 3), "bias must be a real number"),
        (lambda: explain.LinearClassifier([1.0], True), "bias must be a real number"),
        (
            lambda: netgen.ReadingsPanel(
                np.ones((1, 2), dtype=bool), (netgen.SensorKind.PRESSURE,) * 2, ("a", "b")
            ),
            "values must hold real numbers",
        ),
        (
            lambda: optim.ConvexProblem.linear([1.0], [["1"]], [0.0], [1.0]),
            "A must hold real numbers",
        ),
        (
            lambda: optim.ConvexProblem.linear([1.0], [[1.0]], [False], [1.0]),
            "l must hold real numbers",
        ),
        (
            lambda: explain.certificate_margin(
                toy_ensemble(), explain.ensemble_counterfactual(toy_ensemble(), np.ones(3)), True
            ),
            "tolerances must hold real numbers",
        ),
    ],
    ids=[
        "model-strings", "model-complex", "classifier-bools", "config-bool-tolerance",
        "config-object-tolerances", "model-bool-among-floats", "config-bool-among-floats", "config-bool-penalty", "config-string-penalty",
        "model-bool-bias", "model-string-bias", "classifier-bool-bias", "panel-bools",
        "problem-strings", "problem-bool-bound", "margin-bool-tolerance",
    ],
)
def test_values_refuse_what_they_would_coerce(make, message):
    # A bool, string, complex or object input is refused, naming its field,
    # not silently taken as a float.
    with pytest.raises(ValueError, match=f"^{message}"):
        make()
