"""A second solver checks the LP counterfactual programs.

Every optimum ``optim`` reports is certified by its own KKT pass on the
problem ``explain`` built, which cannot see an optimum of the wrong
program.  HiGHS (scipy's ``linprog``), an LP code that shares no step with
``optim``, solves the same problems here, and each objective must
agree within 1e-9 of ``max(1, |HiGHS objective|)``.  Constructed
infeasible and unbounded LPs must be reported so by both.  The module
takes about 5 s (4.7 s measured on a 2-core VM).
"""

import numpy as np

from faultprint import detector, explain, optim, pipeline
from oracles import highs_objective, highs_status

REL_TOL = 1e-9


def record_problems(monkeypatch) -> list:
    """``(problem, solution)`` of every ``optim.solve`` call from now on."""
    solved = []
    solve = optim.solve

    def recorded(problem, *args, **kwargs):
        solved.append((problem, solve(problem, *args, **kwargs)))
        return solved[-1][1]

    monkeypatch.setattr(optim, "solve", recorded)
    return solved


def assert_highs_agrees(solved) -> None:
    for problem, solution in solved:
        assert solution.status is optim.SolveStatus.OPTIMAL
        reference = highs_objective(problem)
        assert abs(solution.objective - reference) <= REL_TOL * max(1.0, abs(reference))


def test_highs_agrees_on_every_lp_grid_program(monkeypatch):
    # One seed-1 scenario per fault kind of the default (l1/abs) grid: 20
    # alarm steps, each explained by the ensemble and its 12 models.
    run = pipeline.RunConfig(seeds=(1,))
    specs = pipeline.expand_grid(run)[::3]  # three magnitudes per kind
    assert len({spec.kind_name for spec in specs}) == len(specs) == 5
    for spec in specs:
        scenario = pipeline.build_scenario(run, spec)
        panel = scenario.faulty
        ensemble, threshold = pipeline.train_scenario(
            panel, scenario.config.train_end, run.window, run.margin
        )
        stream = detector.detect(ensemble, panel, threshold)
        with monkeypatch.context() as patch:
            solved = record_problems(patch)
            pipeline.localize_scenario(run, panel, ensemble, threshold, stream)
        assert len(solved) == run.alarm_steps * (1 + len(ensemble.models)) == 260
        assert_highs_agrees(solved)


def test_highs_agrees_on_random_classifier_programs(monkeypatch):
    # One-sided rows: each classifier's decision must take its target sign.
    rng = np.random.default_rng(97)
    solved = record_problems(monkeypatch)
    for _ in range(200):
        n, k = int(rng.integers(2, 9)), int(rng.integers(1, 7))
        classifiers = [
            explain.LinearClassifier(rng.normal(size=n), float(rng.normal()))
            for _ in range(k)
        ]
        targets = rng.choice([-1.0, 1.0], size=k)
        config = explain.CfConfig(slack_penalty=float(10.0 ** rng.uniform(-1.0, 3.0)))
        explain.classification_ensemble_cf(
            classifiers, rng.normal(scale=2.0, size=n), targets, config
        )
    assert len(solved) == 200
    assert_highs_agrees(solved)


def test_infeasible_and_unbounded_lps_are_reported_by_both():
    # Infeasible: a'z <= -1 and a'z >= 1 among random rows that z = 0
    # satisfies.  Unbounded: every row a_i'z >= b_i with a_i'd >= 0 and b_i < 0,
    # and q'd < 0, so the objective falls without bound along d from z = 0.
    # HiGHS reports 2 (infeasible) or 3 (unbounded); optim reports both as
    # infeasible.
    rng = np.random.default_rng(41)
    for case in range(40):
        n, extra = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        rows = rng.normal(size=(extra, n))
        if case % 2:
            d = rng.normal(size=n)
            rows *= np.where(rows @ d < 0.0, -1.0, 1.0)[:, None]  # each a_i'd >= 0
            problem = optim.ConvexProblem.linear(
                -d * float(10.0 ** rng.uniform(-1.0, 1.0)),
                rows,
                l=-rng.uniform(0.1, 2.0, extra),
                u=np.full(extra, np.inf),
            )
        else:
            a = rng.normal(size=n)
            width = rng.uniform(0.1, 2.0, extra)
            problem = optim.ConvexProblem.linear(
                rng.normal(size=n),
                np.vstack([a, a, rows]),
                l=np.concatenate([[-np.inf, 1.0], -width]),
                u=np.concatenate([[-1.0, np.inf], width]),
            )
        assert highs_status(problem) in (2, 3)
        assert optim.solve(problem).status is optim.SolveStatus.INFEASIBLE
