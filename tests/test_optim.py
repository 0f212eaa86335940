import dataclasses
import inspect
import re

import numpy as np
import pytest

from faultprint import detector, explain, optim, pipeline
from conftest import run_fresh
from oracles import (
    active_set_solve_reference,
    admm_reference,
    independent_rows_reference,
    kkt_residuals_reference,
    kkt_tolerances_reference,
    lp_vertex_objective,
    random_bounded_lp,
    violations_reference,
    x_step_reference,
)
from solve_digest import random_problems


def simple_qp():
    return optim.ConvexProblem(
        P=np.array([[2.0]]),
        q=np.zeros(1),
        A=np.array([[1.0]]),
        l=np.array([1.0]),
        u=np.array([np.inf]),
    )


def l1_equation_lp(r: float) -> optim.ConvexProblem:
    """min |z1| + |z2| s.t. 2 z1 + z2 = r, in epigraph form [z1, z2, t1, t2]."""
    A = np.array(
        [
            [-1.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 1.0],
            [2.0, 1.0, 0.0, 0.0],
        ]
    )
    l = np.array([0.0, 0.0, 0.0, 0.0, r])
    u = np.array([np.inf, np.inf, np.inf, np.inf, r])
    return optim.ConvexProblem.linear(np.array([0.0, 0.0, 1.0, 1.0]), A, l, u)


def test_textbook_qp():
    solution = optim.solve(simple_qp())
    assert solution.status is optim.SolveStatus.OPTIMAL
    assert solution.z[0] == pytest.approx(1.0, abs=1e-8)
    assert solution.objective == pytest.approx(1.0, abs=1e-8)


def test_l1_solution_concentrates_on_largest_coefficient():
    for r in (4.0, -3.0, 0.5):
        solution = optim.solve(l1_equation_lp(r))
        assert solution.status is optim.SolveStatus.OPTIMAL
        # minimal L1 solution of one equation uses only the max-|coefficient| coordinate
        assert solution.z[0] == pytest.approx(r / 2.0, abs=1e-6)
        assert solution.z[1] == pytest.approx(0.0, abs=1e-6)
        assert solution.objective == pytest.approx(abs(r) / 2.0, abs=1e-6)


def test_random_lps_match_vertex_enumeration_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        q, A, l, u = random_bounded_lp(rng)
        problem = optim.ConvexProblem.linear(q, A, l, u)
        solution = optim.solve(problem)
        assert solution.status is optim.SolveStatus.OPTIMAL
        oracle = lp_vertex_objective(q, A, l, u)
        assert oracle is not None
        assert solution.objective == pytest.approx(oracle, abs=1e-5)


def test_box_qp_matches_analytic_clip():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        diag = rng.uniform(0.4, 4.0, n)
        q = rng.normal(scale=2.0, size=n)
        lo = rng.uniform(-2.0, 0.0, n)
        hi = rng.uniform(0.1, 2.0, n)
        problem = optim.ConvexProblem(P=np.diag(diag), q=q, A=np.eye(n), l=lo, u=hi)
        solution = optim.solve(problem)
        assert solution.status is optim.SolveStatus.OPTIMAL
        assert np.abs(solution.z - np.clip(-q / diag, lo, hi)).max() < 1e-6


def test_kkt_residuals_on_hand_built_optimum():
    problem = simple_qp()
    kkt = optim.kkt_residuals(problem, np.array([1.0]), np.array([-2.0]))
    assert max(kkt) <= 1e-12


def test_kkt_residuals_flag_perturbed_solution():
    problem = simple_qp()
    kkt = optim.kkt_residuals(problem, np.array([1.1]), np.array([-2.0]))
    assert max(kkt.dual, kkt.primal, kkt.complementarity) > 1e-3


def test_kkt_residuals_dimension_check():
    with pytest.raises(ValueError):
        optim.kkt_residuals(simple_qp(), np.zeros(2), np.zeros(1))


def _random_certificate_cases(rng):
    """(problem, z, y) with infinite, equal and finite bounds, zero and
    signed-zero duals, LPs and QPs, points on and off the bounds."""
    for case in range(200):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 10))
        root = rng.normal(size=(n, n // 2 + 1))
        P = root @ root.T if case % 2 else np.zeros((n, n))
        A = rng.normal(size=(m, n))
        z = rng.normal(size=n)
        az = A @ z
        centre = az + rng.normal(size=m) * rng.choice([0.0, 1.0], size=m)
        l = centre - rng.uniform(0.0, 2.0, m) * rng.choice([0.0, 1.0], size=m)
        u = centre + rng.uniform(0.0, 2.0, m)
        l[rng.random(m) < 0.25] = -np.inf
        u[rng.random(m) < 0.25] = np.inf
        q = rng.normal(size=n) * rng.choice([0.0, 1.0])
        y = rng.normal(size=m) * 10.0 ** rng.integers(-9, 3, size=m)
        y[rng.random(m) < 0.3] = 0.0
        y[rng.random(m) < 0.3] = -0.0
        yield optim.ConvexProblem(P=P, q=q, A=A, l=l, u=u), z, y


def test_certification_pass_matches_the_independent_recompute():
    rng = np.random.default_rng(59)
    infinite = signed_zero = lp = violated = 0
    for problem, z, y in _random_certificate_cases(rng):
        tol_abs, tol_rel = 10.0 ** rng.uniform(-12.0, -3.0, 2)
        kkt, tol, below, above = optim._kkt_pass(problem, z, y, tol_abs, tol_rel)
        reference = kkt_residuals_reference(problem, z, y)
        assert np.array(kkt).tobytes() == np.array(reference).tobytes()
        assert np.array(optim.kkt_residuals(problem, z, y)).tobytes() == np.array(kkt).tobytes()
        reference_tol = kkt_tolerances_reference(problem, z, y, tol_abs, tol_rel)
        assert np.array(tol).tobytes() == np.array(reference_tol).tobytes()
        reference_below, reference_above = violations_reference(problem, z)
        assert np.array_equal(below, reference_below)
        assert np.array_equal(above, reference_above)
        infinite += not np.isfinite(np.concatenate([problem.l, problem.u])).all()
        signed_zero += bool(np.signbit(y[y == 0.0]).any())
        lp += not problem.P.any()
        violated += bool((below | above).any())
    assert min(infinite, signed_zero, lp, violated) >= 20  # every kind was reached


def _assert_carries_own_certificate(problem, solution, tol_abs, tol_rel):
    """The reported residuals and tolerances are those of the returned point."""
    assert solution.status is optim.SolveStatus.OPTIMAL
    kkt = kkt_residuals_reference(problem, solution)
    assert solution.kkt == kkt
    assert solution.kkt_tol == kkt_tolerances_reference(
        problem, solution.z, solution.y, tol_abs, tol_rel
    )
    assert all(r <= t for r, t in zip(kkt, solution.kkt_tol))


def test_optimal_status_implies_certified_kkt():
    rng = np.random.default_rng(12)
    for _ in range(30):
        q, A, l, u = random_bounded_lp(rng)
        problem = optim.ConvexProblem.linear(q, A, l, u)
        solution = optim.solve(problem)
        _assert_carries_own_certificate(
            problem, solution, optim.DEFAULT_TOL_ABS, optim.DEFAULT_TOL_REL
        )

    n = 5
    box = optim.ConvexProblem(
        P=np.diag(rng.uniform(0.4, 4.0, n)),
        q=rng.normal(scale=2.0, size=n),
        A=np.eye(n),
        l=rng.uniform(-2.0, 0.0, n),
        u=rng.uniform(0.1, 2.0, n),
    )
    _assert_carries_own_certificate(box, optim.solve(box, 1e-6, 1e-6), 1e-6, 1e-6)

    shifted = l1_equation_lp(3.0)
    warm = optim.solve(shifted, dual_guess=optim.solve(l1_equation_lp(4.0)).y)
    assert warm.iterations == 0  # a warm-start hit
    _assert_carries_own_certificate(
        shifted, warm, optim.DEFAULT_TOL_ABS, optim.DEFAULT_TOL_REL
    )


def test_converged_iterate_is_certified_when_polish_fails(monkeypatch):
    # With every polish failing, a converged iterate is returned only if its
    # own residuals pass their tolerances, and is iterated on otherwise: no
    # result is admitted above its tolerances or given up on before
    # max_iters.
    monkeypatch.setattr(optim, "_polish", lambda *args: None)
    rng = np.random.default_rng(31)
    problems = [optim.ConvexProblem.linear(*random_bounded_lp(rng)) for _ in range(20)]
    for _ in range(20):
        n = int(rng.integers(3, 9))
        # m >= n random rows have full column rank: the feasible set is bounded
        problems.append(_random_qp(rng, n, n + int(rng.integers(0, 5))))
    for problem in problems:
        solution = optim.solve(problem)
        assert solution.path == "admm"
        _assert_carries_own_certificate(
            problem, solution, optim.DEFAULT_TOL_ABS, optim.DEFAULT_TOL_REL
        )


@pytest.mark.parametrize(
    "argument,value",
    [
        ("tol_abs", np.nan),
        ("tol_abs", np.inf),
        ("tol_abs", 0.0),
        ("tol_rel", np.nan),
        ("tol_rel", np.inf),
        ("tol_rel", -1e-9),
        ("max_iters", 0),
        ("max_iters", -3),
        # not integers: range() raised a TypeError naming neither
        ("max_iters", 10.5),
        ("max_iters", np.inf),
        ("max_iters", True),  # a bool is not an integer count
    ],
)
def test_solve_rejects_bad_arguments(argument, value):
    with pytest.raises(ValueError, match=rf"{argument} .*got {re.escape(repr(value))}$"):
        optim.solve(simple_qp(), **{argument: value})


@pytest.mark.parametrize("q", [np.zeros((2, 1)), np.float64(1.0)])
def test_q_must_be_a_vector(q):
    # A column q used to pass construction and fail inside solve with a
    # broadcast error; a scalar q raised an IndexError.
    shape = np.shape(q)
    with pytest.raises(ValueError, match=rf"q must be a vector, got shape {re.escape(str(shape))}"):
        optim.ConvexProblem(P=np.eye(2), q=q, A=np.eye(2), l=-np.ones(2), u=np.ones(2))
    with pytest.raises(ValueError, match="q must be a vector"):
        optim.ConvexProblem.linear(q, np.eye(2), -np.ones(2), np.ones(2))


def test_removing_a_constraint_never_increases_optimum():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        root = rng.normal(size=(n, n))
        P = root @ root.T + 0.5 * np.eye(n)
        q = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        l = A @ x0 - rng.uniform(0.1, 1.0, m)
        u = A @ x0 + rng.uniform(0.1, 1.0, m)
        full = optim.solve(optim.ConvexProblem(P=P, q=q, A=A, l=l, u=u))
        drop = int(rng.integers(m))
        keep = [i for i in range(m) if i != drop]
        reduced = optim.solve(
            optim.ConvexProblem(P=P, q=q, A=A[keep], l=l[keep], u=u[keep])
        )
        assert full.status is optim.SolveStatus.OPTIMAL
        assert reduced.status is optim.SolveStatus.OPTIMAL
        assert reduced.objective <= full.objective + 1e-6


def test_solve_is_deterministic():
    rng = np.random.default_rng(5)
    q, A, l, u = random_bounded_lp(rng)
    problem = optim.ConvexProblem.linear(q, A, l, u)
    a = optim.solve(problem)
    b = optim.solve(problem)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.y, b.y)
    assert a.iterations == b.iterations
    assert a.objective == b.objective


def test_infeasible_problem_is_reported():
    problem = optim.ConvexProblem.linear(
        np.array([0.0]),
        np.array([[1.0], [1.0]]),
        l=np.array([-np.inf, 1.0]),
        u=np.array([-1.0, np.inf]),
    )
    solution = optim.solve(problem)
    assert solution.status is optim.SolveStatus.INFEASIBLE


def test_unbounded_problem_is_reported(monkeypatch):
    # min -z1 subject to z1 >= 0 and -1 <= z2 <= 1 falls without bound
    # along z1; the dual certificate, not the primal one, must say so.
    fired = []
    certificate = optim._dual_infeasibility_certificate_scaled

    def recorded(*args):
        fired.append(certificate(*args))
        return fired[-1]

    monkeypatch.setattr(optim, "_dual_infeasibility_certificate_scaled", recorded)
    problem = optim.ConvexProblem.linear(
        np.array([-1.0, 0.0]), np.eye(2), l=np.array([0.0, -1.0]), u=np.array([np.inf, 1.0])
    )
    solution = optim.solve(problem)
    assert solution.status is optim.SolveStatus.INFEASIBLE
    assert solution.objective == np.inf
    assert fired[-2:] == [True, True]  # two confirming checks in a row
    assert solution.iterations == 2 * optim._CHECK_INTERVAL


def test_max_iters_is_not_silent():
    # one iteration cannot converge from a cold start on a shifted problem
    problem = optim.ConvexProblem.linear(
        np.array([1.0, 1.0]),
        np.vstack([np.eye(2), np.array([[1.0, 1.0]])]),
        l=np.array([1.0, 1.0, 2.5]),
        u=np.array([4.0, 4.0, 6.0]),
    )
    solution = optim.solve(problem, max_iters=1)
    assert solution.status is optim.SolveStatus.MAX_ITERS


def test_problem_validation():
    with pytest.raises(ValueError):
        optim.ConvexProblem(
            P=np.array([[1.0, 2.0], [0.0, 1.0]]),
            q=np.zeros(2),
            A=np.eye(2),
            l=np.zeros(2),
            u=np.ones(2),
        )
    with pytest.raises(ValueError):
        optim.ConvexProblem(
            P=np.array([[-1.0]]), q=np.zeros(1), A=np.eye(1), l=np.zeros(1), u=np.ones(1)
        )
    with pytest.raises(ValueError):
        optim.ConvexProblem.linear(
            np.zeros(1), np.eye(1), l=np.array([2.0]), u=np.array([1.0])
        )


def test_audit_collects_solve_records():
    solved = [optim.solve(simple_qp()), optim.solve(l1_equation_lp(1.0))]
    stalled = dataclasses.replace(
        solved[0],
        status=optim.SolveStatus.MAX_ITERS,
        kkt=optim.KktResiduals(1e-9, 3e-6, 0.0),
        kkt_tol=optim.KktTolerances(1e-7, 1e-6, 1e-7),
    )
    audit = optim.SolveAudit.from_records(solved + [stalled])
    assert (audit.solves, audit.non_optimal) == (3, 1)
    assert audit.max_ratio == 3e-6 / 1e-6  # the worst component of any record
    assert optim.SolveAudit.from_records(solved).max_ratio == max(
        r / t for rec in solved for r, t in zip(rec.kkt, rec.kkt_tol)
    )
    assert optim.SolveAudit.from_records([]) == optim.SolveAudit()
    merged = optim.SolveAudit.from_records(solved).merge(optim.SolveAudit.from_records([stalled]))
    assert merged == audit


@pytest.mark.parametrize("side", ["l", "u"])
def test_nan_bounds_are_rejected(side):
    bounds = {"l": np.array([0.0]), "u": np.array([1.0])}
    bounds[side] = np.array([np.nan])
    with pytest.raises(ValueError, match="NaN"):
        optim.ConvexProblem.linear(np.array([1.0]), np.ones((1, 1)), **bounds)
    problem = optim.ConvexProblem.linear(
        np.array([1.0]), np.ones((1, 1)), np.array([0.0]), np.array([1.0])
    )
    with pytest.raises(ValueError, match="NaN"):
        problem.with_bounds(**bounds)


def test_warm_start_on_shifted_bounds_is_certified_without_iterations():
    cold = optim.solve(l1_equation_lp(4.0))
    shifted = l1_equation_lp(3.0)  # same active set, new right-hand side
    warm = optim.solve(shifted, dual_guess=cold.y)
    assert warm.status is optim.SolveStatus.OPTIMAL
    assert warm.iterations == 0
    assert warm.z[0] == pytest.approx(1.5, abs=1e-9)
    kkt = kkt_residuals_reference(shifted, warm)
    assert all(r <= t for r, t in zip(kkt, warm.kkt_tol))


def test_warm_start_miss_is_a_cold_solve():
    # Zero duals pin only the equality row: no repair round reaches the
    # active set of r = 3 from there.
    start = dataclasses.replace(optim.solve(l1_equation_lp(4.0)), y=np.zeros(5))
    problem = l1_equation_lp(3.0)
    warm = optim.solve(problem, dual_guess=start.y)
    cold = optim.solve(problem)
    assert warm.iterations == cold.iterations > 0
    assert warm.path == cold.path == "early_polish"
    assert np.array_equal(warm.z, cold.z)
    assert np.array_equal(warm.y, cold.y)


def test_equality_row_duals_are_free_in_sign():
    # min 0.5 |z|^2 s.t. z1 + z2 = 1: z = (0.5, 0.5), and the equality row's
    # multiplier is -0.5.  Duals of either sign, or none, must find it.
    problem = optim.ConvexProblem(
        P=np.eye(2), q=np.zeros(2), A=np.ones((1, 2)), l=np.ones(1), u=np.ones(1)
    )
    for guess in (1e-3, 0.0, -1e-3):
        polished = optim._polish(
            problem, np.array([guess]), optim.DEFAULT_TOL_ABS, optim.DEFAULT_TOL_REL
        )
        assert polished is not None and polished[2].passes()
        assert polished[0] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert polished[1] == pytest.approx([-0.5], abs=1e-12)
    # The sign flip of r flips the equality multiplier, and the repair round
    # finds the other rows: the warm start hits, with the cold solve's point.
    problem = l1_equation_lp(-3.0)
    warm = optim.solve(problem, dual_guess=optim.solve(l1_equation_lp(4.0)).y)
    cold = optim.solve(problem)
    assert (warm.iterations, warm.path) == (0, "warm")
    assert warm.z == pytest.approx(cold.z, abs=1e-12)
    assert warm.y == pytest.approx(cold.y, abs=1e-12)


def test_polish_releases_a_row_pinned_by_a_noise_dual():
    # min 0.5 |z - c|^2 s.t. z >= 0, c = (1, -1): z = (1, 0), y = (0, -1).
    # A -1e-9 dual pins row 0, whose re-solved dual then has the wrong sign;
    # clipping it would leave a dual residual of 1.
    c = np.array([1.0, -1.0])
    problem = optim.ConvexProblem(
        P=np.eye(2), q=-c, A=np.eye(2), l=np.zeros(2), u=np.full(2, np.inf)
    )
    noisy = np.array([-1e-9, -1.0])
    z, y, cert = optim._polish(problem, noisy, optim.DEFAULT_TOL_ABS, optim.DEFAULT_TOL_REL)
    assert cert.passes()
    assert z == pytest.approx([1.0, 0.0], abs=1e-12)
    assert y == pytest.approx([0.0, -1.0], abs=1e-12)
    start = dataclasses.replace(optim.solve(problem), y=noisy)
    warm = optim.solve(problem, dual_guess=start.y)
    assert (warm.status, warm.iterations, warm.path) == (optim.SolveStatus.OPTIMAL, 0, "warm")


def test_solution_path_names_each_route():
    cold = optim.solve(l1_equation_lp(4.0))
    assert (cold.path, cold.status) == ("early_polish", optim.SolveStatus.OPTIMAL)
    assert cold.iterations > 0
    warm = optim.solve(l1_equation_lp(3.0), dual_guess=cold.y)
    assert (warm.path, warm.iterations) == ("warm", 0)
    # at r = 0 the iterates meet the tolerance before an early polish is tried
    converged = optim.solve(l1_equation_lp(0.0))
    assert (converged.path, converged.status) == ("final_polish", optim.SolveStatus.OPTIMAL)
    stopped = optim.solve(l1_equation_lp(4.0), max_iters=1)
    assert (stopped.path, stopped.status) == ("admm", optim.SolveStatus.MAX_ITERS)


def test_cold_solves_of_rank_deficient_qps_are_polished():
    # A cold solve's polish pins the rows its iterate holds on a bound: the
    # iterate's dual is exactly 0 on every row strictly inside, so a row with
    # slack is never pinned on a noise-level dual.  Every problem has box
    # rows, every second one a rank-n//2 P.
    for tol in (1e-7, 1e-10):
        for problem in random_problems(optim, 0, 100):
            solution = optim.solve(problem, tol_abs=tol, tol_rel=tol, max_iters=5000)
            assert solution.path in ("early_polish", "final_polish")
            _assert_carries_own_certificate(problem, solution, tol, tol)


def test_a_row_with_slack_is_never_pinned(monkeypatch):
    # Problem 131 of random_problems(seed 0): rank-1 P.  At the optimum row 1
    # has slack 0.80 below and 1.83 above; an iterate dual of 1.6e-17 there
    # pinned it to its upper bound in every polish, and the solve ended on
    # the unpolished iterate.
    root = np.array([-1.2810338981337832, -0.4347675232200815, 1.3945258319739595])
    rows = [
        [-0.7175353211580985, -1.9097201497311345, -0.6205632260034818],
        [1.6308767184641557, 0.12425104214674348, 1.151720268450256],
        [-1.1590574717895732, 0.09249744420967496, -0.18306205102042603],
    ]
    problem = optim.ConvexProblem(
        P=np.outer(root, root),
        q=np.array([0.2586504171781026, 0.10649985577912434, -0.49190150559959395]),
        A=np.vstack([np.eye(3), rows]),
        l=np.array([
            -1.6206516069585817, -1.874902902950889, -1.670932854116731,
            2.014877779776217, -3.241762745693782, -0.5122419513200006,
        ]),
        u=np.array([
            0.90810447165635, 0.7515767138362357, 0.38469106957778987,
            np.inf, -0.03399722321737153, 2.244383463504531,
        ]),
    )
    polishes = []
    active_set_solve = optim._active_set_solve

    def recorded(problem, y, lower, upper, preferred=None, by_map=False):
        polishes.append(set(lower.tolist()) | set(upper.tolist()))
        return active_set_solve(problem, y, lower, upper, preferred, by_map)

    monkeypatch.setattr(optim, "_active_set_solve", recorded)
    solution = optim.solve(problem, tol_abs=1e-7, tol_rel=1e-7, max_iters=5000)
    assert solution.path == "early_polish"
    _assert_carries_own_certificate(problem, solution, 1e-7, 1e-7)
    slack = problem.A[1] @ solution.z - problem.l[1]
    assert slack == pytest.approx(0.80, abs=0.01)
    assert polishes and all(1 not in pinned for pinned in polishes)


def test_warm_start_shape_mismatch():
    # A guess is one finite dual per row, and a bad one is named.
    problem = l1_equation_lp(1.0)
    with pytest.raises(ValueError, match=r"dual_guess has shape \(1,\), expected \(5,\)"):
        optim.solve(problem, dual_guess=optim.solve(simple_qp()).y)
    with pytest.raises(ValueError, match="dual_guess has shape"):
        optim.solve(problem, dual_guess=np.zeros((5, 1)))
    for bad in (np.nan, np.inf, -np.inf):
        guess = np.zeros(5)
        guess[2] = bad
        with pytest.raises(ValueError, match="dual_guess must be finite"):
            optim.solve(problem, dual_guess=guess)


def test_a_solve_has_one_start_parameter():
    assert list(inspect.signature(optim.solve).parameters) == [
        "problem", "tol_abs", "tol_rel", "max_iters", "dual_guess"
    ]


def _random_qp(rng, n, m):
    root = rng.normal(size=(n, n // 2))
    x0 = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    return optim.ConvexProblem(
        P=root @ root.T,
        q=rng.normal(size=n),
        A=A,
        l=A @ x0 - rng.uniform(0.1, 1.0, m),
        u=A @ x0 + rng.uniform(0.1, 1.0, m),
    )


def _assert_same_bits(result, reference):
    if reference is None:
        assert result is None
        return
    assert result is not None
    for ours, theirs in zip(result, reference):
        assert ours.tobytes() == theirs.tobytes()


def _active_set_cases():
    """(problem, y, lower, upper, preferred) covering the selection paths."""
    rng = np.random.default_rng(31)
    for _ in range(40):  # well-posed: fewer pinned rows than variables
        n, m = int(rng.integers(3, 9)), int(rng.integers(2, 9))
        problem = _random_qp(rng, n, m)
        pinned = rng.permutation(m)[: int(rng.integers(0, min(n, m) + 1))]
        split = int(rng.integers(0, pinned.size + 1))
        yield problem, rng.normal(size=m), np.sort(pinned[:split]), np.sort(pinned[split:]), None
    for _ in range(40):  # rank-deficient: duplicated rows, more pins than variables
        n = int(rng.integers(2, 6))
        base = _random_qp(rng, n, n + 3)
        dup = rng.integers(0, n + 3, size=3)
        A = np.vstack([base.A, base.A[dup]])
        l, u = np.concatenate([base.l, base.l[dup]]), np.concatenate([base.u, base.u[dup]])
        problem = optim.ConvexProblem(P=base.P, q=base.q, A=A, l=l, u=u)
        m = A.shape[0]
        pinned = rng.permutation(m)[: int(rng.integers(n + 1, m + 1))]
        split = int(rng.integers(0, pinned.size + 1))
        y = rng.normal(size=m) * 10.0 ** rng.integers(-9, 2, size=m)
        preferred = np.sort(rng.choice(pinned, size=int(rng.integers(0, 3)), replace=False))
        yield problem, y, np.sort(pinned[:split]), np.sort(pinned[split:]), preferred
    for _ in range(40):  # equality rows, pinned on either side with any dual
        n, m = int(rng.integers(2, 7)), int(rng.integers(3, 9))
        base = _random_qp(rng, n, m)
        equal = rng.random(m) < 0.4
        u = np.where(equal, base.l, base.u)
        problem = optim.ConvexProblem(P=base.P, q=base.q, A=base.A, l=base.l, u=u)
        pinned = rng.permutation(m)[: int(rng.integers(1, m + 1))]
        split = int(rng.integers(0, pinned.size + 1))
        y = rng.normal(size=m) * 10.0 ** rng.integers(-9, 2, size=m)
        yield problem, y, np.sort(pinned[:split]), np.sort(pinned[split:]), None


def test_active_set_solve_matches_wrapper_reference():
    cases = list(_active_set_cases())
    over_pinned = 0
    for problem, y, lower, upper, preferred in cases:
        reference = active_set_solve_reference(problem, y, lower, upper, preferred)
        result = optim._active_set_solve(problem, y, lower, upper, preferred)
        _assert_same_bits(result, reference)
        over_pinned += reference is not None and lower.size + upper.size > problem.n_vars
    assert over_pinned > 0  # the rank-deficient cases did reach the selection


def test_row_selection_at_program_size_matches_scipy_qr():
    # The programs' shapes (variables x rows): a per-model and an ensemble
    # l1/abs program, the seed-1 stream's l2/squared one (26 x 36), and a
    # 50 x 48 shape with ten equality rows, which optim still serves.
    # Candidate sets of the sizes their polishes pin (29 and 40 rows; 12 to
    # 24 on the stream; 37) and of every row, with duals over nine orders of
    # magnitude; one case repeats rows, so its candidates are rank-deficient.
    # _independent_rows passes dgeqp3 a fixed workspace, scipy's qr what a
    # workspace query returns: both must keep the same rows.
    rng = np.random.default_rng(59)
    dropped = 0
    for n, m, k, equalities, repeats in (
        (29, 31, 29, 0, 0), (29, 31, 31, 0, 0), (40, 64, 40, 0, 0), (40, 64, 64, 0, 0),
        (50, 48, 37, 10, 0), (50, 48, 48, 10, 0), (50, 48, 48, 10, 12),
        (26, 36, 12, 0, 0), (26, 36, 24, 0, 0), (26, 36, 36, 0, 0),
    ):
        for _ in range(10):
            A = rng.normal(size=(m, n))
            if repeats:
                A[-repeats:] = A[rng.integers(0, m - repeats, size=repeats)]
            l = rng.uniform(-2.0, -0.1, m)
            u = rng.uniform(0.1, 2.0, m)
            u[:equalities] = l[:equalities]
            problem = optim.ConvexProblem.linear(rng.normal(size=n), A, l, u)
            y = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-9, 0, m)
            active = np.sort(rng.permutation(m)[:k])
            preferred = np.sort(rng.choice(active, size=int(rng.integers(0, 3)), replace=False))
            keep = optim._independent_rows(problem, y, active, preferred)
            reference = independent_rows_reference(problem, y, active, preferred)
            assert keep.tolist() == reference.tolist()
            dropped += k - keep.size
    assert dropped  # over-full and repeated candidates reached the rank cut-off


def test_active_set_solve_preferred_rows_match_wrapper_reference():
    # Two copies of one row: only one survives, and a repair preference on
    # the weaker copy must pick it over the stronger one.
    problem = optim.ConvexProblem(
        P=np.eye(2),
        q=np.array([1.0, -1.0]),
        A=np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]]),
        l=np.array([0.5, 0.5, -1.0]),
        u=np.array([2.0, 2.0, 1.0]),
    )
    y = np.array([-1.0, -1e-3, 0.0])
    lower, upper = np.array([0, 1]), np.empty(0, dtype=int)
    for preferred in (None, np.array([1])):
        reference = active_set_solve_reference(problem, y, lower, upper, preferred)
        _assert_same_bits(optim._active_set_solve(problem, y, lower, upper, preferred), reference)
    kept_weak = optim._active_set_solve(problem, y, lower, upper, np.array([1]))[1]
    assert kept_weak[0] == 0.0 and kept_weak[1] < 0.0


def _fresh(problem) -> optim.ConvexProblem:
    """A newly built copy of ``problem``, which shares no kept factors."""
    return optim.ConvexProblem(*(np.array(getattr(problem, name)) for name in "PqAlu"))


def _last_kept(problem) -> tuple[bytes, optim._KktFactor]:
    """The kept rows and factors its family used most recently."""
    return next(reversed(problem._kkt_slot.items()))


def _singular_problem() -> optim.ConvexProblem:
    # P + 1e-6 I rounds back to a singular P: the LU meets an exact zero pivot.
    return optim.ConvexProblem(
        P=np.full((2, 2), 1e12), q=np.array([1.0, 0.0]), A=np.eye(2), l=-np.ones(2), u=np.ones(2)
    )


def test_singular_active_set_system_gives_none_like_the_reference():
    problem = _singular_problem()
    empty = np.empty(0, dtype=int)
    assert active_set_solve_reference(problem, np.zeros(2), empty, empty) is None
    assert optim._active_set_solve(problem, np.zeros(2), empty, empty) is None


def test_the_affine_map_path_matches_the_reference_to_rounding():
    # A re-solve through the kept rows' affine map keeps the rows the LU
    # path keeps, gives the reference's dual signs and its None on a
    # singular system, and moves z and y from the reference by less than
    # eps * cond(K_reg) relative to max(1, max |.|), the first-order bound
    # of a linear solve (at most 0.44 of it measured here).
    empty = np.empty(0, dtype=int)
    cases = [*_active_set_cases(), (_singular_problem(), np.zeros(2), empty, empty, None)]
    for problem, y, lower, upper, preferred in cases:
        reference = active_set_solve_reference(problem, y, lower, upper, preferred)
        mapped_family, lu_family = _fresh(problem), _fresh(problem)
        mapped = optim._active_set_solve(mapped_family, y, lower, upper, preferred, True)
        if reference is None:
            assert mapped is None
            continue
        optim._active_set_solve(lu_family, y, lower, upper, preferred)
        (rows, mapped_factor), (lu_rows, lu_factor) = map(_last_kept, (mapped_family, lu_family))
        assert rows == lu_rows
        assert mapped_factor.map is not None and lu_factor.map is None
        assert (np.sign(mapped[1]) == np.sign(reference[1])).all()
        kept = np.frombuffer(rows, np.intp)
        n, k = problem.n_vars, kept.size
        reg = optim._POLISH_REG
        kkt = np.block([
            [problem.P + reg * np.eye(n), problem.A[kept].T],
            [problem.A[kept], -reg * np.eye(k)],
        ])
        bound = np.finfo(float).eps * np.linalg.cond(kkt)
        for ours, theirs in zip(mapped[:2], reference):
            assert np.abs(ours - theirs).max() <= bound * max(1.0, np.abs(theirs).max())


def test_refined_polish_solves_the_unregularized_kkt_system():
    # Closed form: on linearly independent kept rows the polished point
    # solves [P A'; A 0] (x, y) = (-q, bounds) exactly, although the LU it
    # refines with is that of the regularized matrix.  Duals are then
    # clamped to the sign of the bound their row was pinned to.  Each
    # refinement step shrinks the error by about reg * |K^-1|, so the check
    # holds the systems where that is at most 1e-3.
    rng = np.random.default_rng(43)
    worst, checked = 0.0, 0
    for case in range(80):
        n = int(rng.integers(2, 9))
        lp = case % 2 == 0
        k = n if lp else int(rng.integers(1, n + 1))  # an LP needs n rows
        m = k + int(rng.integers(0, 4))
        root = rng.normal(size=(n, n))
        P = np.zeros((n, n)) if lp else root @ root.T
        A = rng.normal(size=(m, n))
        centre = rng.normal(size=m)
        l, u = centre - rng.uniform(0.1, 1.0, m), centre + rng.uniform(0.1, 1.0, m)
        problem = optim.ConvexProblem(P=P, q=rng.normal(size=n), A=A, l=l, u=u)
        pinned = np.sort(rng.permutation(m)[:k])
        on_lower = rng.random(k) < 0.5
        lower, upper = pinned[on_lower], pinned[~on_lower]
        x, y, _ = optim._active_set_solve(problem, rng.normal(size=m), lower, upper)
        kept = np.concatenate([lower, upper])
        assert _last_kept(problem)[0] == kept.tobytes()  # every row kept: A[kept] has full rank
        kkt = np.block([[P, A[kept].T], [A[kept], np.zeros((k, k))]])
        if optim._POLISH_REG * np.linalg.norm(np.linalg.inv(kkt), 2) > 1e-3:
            continue
        exact = np.linalg.solve(kkt, np.concatenate([-problem.q, l[lower], u[upper]]))
        expected_y = np.zeros(m)
        expected_y[lower] = np.minimum(exact[n : n + lower.size], 0.0)
        expected_y[upper] = np.maximum(exact[n + lower.size :], 0.0)
        scale = np.abs(exact).max()
        error = max(np.abs(x - exact[:n]).max(), np.abs(y - expected_y).max()) / scale
        assert error <= 1e-10, case
        worst, checked = max(worst, error), checked + 1
    assert checked >= 70 and worst > 0.0  # the comparison is not vacuous


def test_equality_rows_are_exactly_those_with_equal_bounds():
    # One rule, l == u, sets the ADMM step size and the polish alike.  Row 0
    # is 5e-10 wide: an inequality, at base rho, with a dual of one sign.
    problem = optim.ConvexProblem(
        P=np.eye(3),
        q=np.array([1.0, -2.0, 0.5]),
        A=np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]),
        l=np.array([1.0, 0.5, -np.inf]),
        u=np.array([1.0 + 5e-10, 0.5, np.inf]),
    )
    assert problem.u[0] - problem.l[0] == pytest.approx(5e-10)
    rho = optim._rho_vector(problem, 0.1)
    assert rho.tolist() == [0.1, 0.1 * optim._RHO_EQUALITY_BOOST, optim._RHO_MIN]
    solution = optim.solve(problem)
    _assert_carries_own_certificate(
        problem, solution, optim.DEFAULT_TOL_ABS, optim.DEFAULT_TOL_REL
    )
    assert solution.path in ("early_polish", "final_polish")


def test_x_step_matches_wrapper_reference():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        root = rng.normal(size=(n, n))
        P_s = root @ root.T * rng.choice([0.0, 1.0])
        A = rng.normal(size=(m, n))
        rho = rng.uniform(1e-6, 1e3, m)
        rhs = rng.normal(size=n)
        factor = optim._factorize_scaled(P_s, A, rho)
        x = optim._potrs(factor, rhs, lower=1)[0]
        assert x.tobytes() == x_step_reference(P_s, A, rho, rhs).tobytes()


def test_x_step_map_matches_the_textbook_iteration():
    # One application of T to [x; w; z; 1] (w = y / rho, the scaled dual),
    # the projection and w = v - z is the x-step solve, over-relaxation and
    # dual update of OSQP's Algorithm 1, with free (_RHO_MIN) and
    # equality-boosted rows among the rows.  The map's dual is exactly 0 on
    # every row strictly inside its bounds.
    rng = np.random.default_rng(1)
    alpha, inside_rows, noisy_rows = optim._ALPHA, 0, 0
    for _ in range(200):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(n + 2, n + 8))  # K stays well conditioned
        root = rng.normal(size=(n, n // 2 + 1))
        P_s = root @ root.T * rng.choice([0.0, 1.0])
        q_s, A = rng.normal(size=n), rng.normal(size=(m, n))
        rows = rng.permutation(m)
        rho = np.full(m, rng.uniform(0.01, 10.0))
        rho[rows[0]] = optim._RHO_MIN
        rho[rows[1]] *= optim._RHO_EQUALITY_BOOST
        l = rng.normal(size=m) - rng.uniform(0.0, 2.0, m)
        u = l + rng.uniform(0.0, 3.0, m)
        l[rows[0]], u[rows[0]] = -np.inf, np.inf
        x, z, y = rng.normal(size=n), rng.normal(size=m), rng.normal(size=m)

        T = optim._x_step_map(P_s, q_s, A, rho)
        assert T.shape == (n + m, n + 2 * m + 1)
        mapped = T @ np.concatenate([x, y / rho, z, [1.0]])
        v = mapped[n:]
        z_map = np.minimum(np.maximum(v, l), u)
        y_map = rho * (v - z_map)

        x_tilde = x_step_reference(P_s, A, rho, optim._SIGMA * x - q_s + A.T @ (rho * z - y))
        x_ref = alpha * x_tilde + (1.0 - alpha) * x
        w = alpha * A @ x_tilde + (1.0 - alpha) * z
        z_ref = np.minimum(np.maximum(w + y / rho, l), u)
        y_ref = y + rho * (w - z_ref)
        for ours, ref in ((mapped[:n], x_ref), (z_map, z_ref), (y_map, y_ref)):
            assert np.abs(ours - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        inside = (l < v) & (v < u)
        assert (y_map[inside] == 0.0).all()
        inside_rows += int(inside.sum())
        noisy_rows += int((y_ref[inside] != 0.0).sum())
    assert inside_rows and noisy_rows  # the textbook form leaves noise there


def _loop_problems(rng, count):
    """Random bounded QPs and LPs, alternately, each with a free row and an
    equality row among its general rows.  The first n rows are orthonormal,
    so both sides bound every direction, and the others have unit norm: the
    x-step matrix is about as well conditioned as the equality row's rho
    boost allows."""
    for index in range(count):
        n, extra = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        general = rng.normal(size=(extra, n))
        general /= np.linalg.norm(general, axis=1, keepdims=True)
        A = np.vstack([np.linalg.qr(rng.normal(size=(n, n)))[0], general])
        at_x0 = A @ rng.normal(size=n)
        l = at_x0 - rng.uniform(0.1, 1.0, n + extra)
        u = at_x0 + rng.uniform(0.1, 1.0, n + extra)
        free, equal = n + rng.permutation(extra)[:2]
        l[free], u[free] = -np.inf, np.inf
        l[equal] = u[equal] = at_x0[equal]
        root = rng.normal(size=(n, n // 2 + 1)) * (index % 2)
        q = rng.normal(size=n) * 10.0 ** rng.uniform(-1, 2)
        yield optim.ConvexProblem(P=root @ root.T, q=q, A=A, l=l, u=u)


def _assert_matches_loop_reference(solution, reference, bound=1e-12):
    x_ref, _, y_ref = reference
    for ours, ref in ((solution.z, x_ref), (solution.y, y_ref)):
        assert np.abs(ours - ref).max() <= bound * max(1.0, np.abs(ref).max())


# Tolerances no iterate or polished point of these problems passes (each
# point's rounding leaves a dual residual), so every solve runs out of
# iterations: any polish fails its certificate and leaves the iterate.
UNREACHABLE = {"tol_abs": 1e-300, "tol_rel": 0.0}


def test_admm_iterate_matches_the_textbook_loop():
    # The MAX_ITERS iterate of a cold solve, at iteration counts that end
    # before, at and between checks, is the textbook iteration's: the
    # scaled-dual state, the map's constant column, the two alternating
    # buffers and the blocks between checks change no iterate.
    rng = np.random.default_rng(38)
    for problem in _loop_problems(rng, 24):
        for max_iters in (1, 7, 26, 60):
            solution = optim.solve(problem, max_iters=max_iters, **UNREACHABLE)
            assert solution.status is optim.SolveStatus.MAX_ITERS
            assert (solution.iterations, solution.path) == (max_iters, "admm")
            _assert_matches_loop_reference(solution, admm_reference(problem, max_iters))


def test_a_tiny_tolerance_reads_an_infinite_ratio():
    # 5e-324 is a valid tol_abs; a residual over it reads an infinite
    # ratio, not numpy's overflow warning.
    problem = list(_loop_problems(np.random.default_rng(1), 24))[3]
    solution = optim.solve(problem, max_iters=60, tol_abs=5e-324, tol_rel=0.0)
    assert solution.status is optim.SolveStatus.MAX_ITERS
    assert optim.SolveAudit.from_records([solution]).max_ratio == np.inf


def test_a_rho_update_keeps_the_textbook_dual(monkeypatch):
    # The check at iteration _ADAPT_INTERVAL may update rho, and the scaled
    # dual is rescaled with it: the iterate then follows a textbook loop
    # that switches to the same rho after that iteration, its dual y kept.
    # A larger rho makes the x-step matrix worse conditioned, and the
    # textbook loop, which solves it anew each iteration, drifts further
    # from the solver's map (5e-12 relative after a hundredfold rho, as
    # much before the dual was scaled), so the bound grows with rho.
    rhos = []
    x_step_map = optim._x_step_map

    def recorded(P_s, q_s, A, rho):
        rhos.append(rho.copy())
        return x_step_map(P_s, q_s, A, rho)

    monkeypatch.setattr(optim, "_x_step_map", recorded)
    rng = np.random.default_rng(7)
    max_iters = optim._ADAPT_INTERVAL + 60
    updated = 0
    for problem in _loop_problems(rng, 12):
        rhos.clear()
        solution = optim.solve(problem, max_iters=max_iters, **UNREACHABLE)
        assert solution.status is optim.SolveStatus.MAX_ITERS
        assert len(rhos) <= 2
        switch = [(optim._ADAPT_INTERVAL, rho) for rho in rhos[1:]]
        growth = max(1.0, rhos[-1].max() / rhos[0].max())
        reference = admm_reference(problem, max_iters, switch)
        _assert_matches_loop_reference(solution, reference, 1e-12 * growth)
        updated += len(switch)
    assert updated


def test_factorize_rejects_indefinite_matrix():
    with pytest.raises(np.linalg.LinAlgError):
        optim._factorize_scaled(-np.eye(2), np.zeros((1, 2)), np.ones(1))


def _count_factorizations(monkeypatch) -> list:
    calls = []
    factor_kkt = optim._factor_kkt

    def counted(*args):
        calls.append(args)
        return factor_kkt(*args)

    monkeypatch.setattr(optim, "_factor_kkt", counted)
    return calls


def test_rows_the_family_kept_are_kept_without_a_new_selection(monkeypatch):
    # A warm start that pins exactly the rows its problem family kept at its
    # latest polished point reuses them whole: no pivoted QR runs.  The
    # point is bit-equal to the reference's, which always runs the QR.
    geqp3 = _count_lapack(monkeypatch, "_geqp3")
    base = l1_equation_lp(4.0)
    previous = optim.solve(base)
    assert geqp3  # the cold solve's polish selected its rows
    for r in (3.0, 2.0):
        problem = base.with_bounds(l1_equation_lp(r).l, l1_equation_lp(r).u)
        lower, upper = np.flatnonzero(previous.y < 0), np.flatnonzero(previous.y > 0)
        # the most recently used key holds the rows of the latest polish's
        # last round, here the round it returned
        assert list(base._kkt_slot)[-1] == np.concatenate([lower, upper]).tobytes()
        del geqp3[:]
        result = optim._active_set_solve(problem, previous.y, lower, upper)
        reference = active_set_solve_reference(problem, previous.y, lower, upper)
        _assert_same_bits(result[:2], reference)
        previous = optim.solve(problem, dual_guess=previous.y)
        assert previous.path == "warm"
        assert geqp3 == []


def test_kkt_factor_is_reused_only_within_its_problem_family(monkeypatch):
    # The with_bounds copies of one problem share their kept KKT factors,
    # used only for the same kept rows; every result must stay bit-equal to
    # the reference either way.
    calls = _count_factorizations(monkeypatch)
    rng = np.random.default_rng(17)
    empty = np.empty(0, dtype=int)
    for _ in range(20):
        problem = _random_qp(rng, 6, 8)
        y = rng.normal(size=8)
        rows = rng.permutation(8)
        first, other = np.sort(rows[:3]), np.sort(rows[3:6])

        def factorizations(candidate, lower):
            before, kept = len(calls), candidate._kkt_slot.get(lower.tobytes())
            result = optim._active_set_solve(candidate, y, lower, empty)
            _assert_same_bits(result[:2], active_set_solve_reference(candidate, y, lower, empty))
            # the rows just used are the most recently used, with the factor
            # they kept if none was made
            rows, factor = _last_kept(candidate)
            assert rows == lower.tobytes()
            assert (factor is kept) == (len(calls) == before)
            return len(calls) - before

        assert factorizations(problem, first) == 1
        shifted = problem.with_bounds(problem.l - 0.1, problem.u + 0.1)
        assert factorizations(shifted, first) == 0
        # same size, other rows: a stale factor would give another point
        assert factorizations(shifted, other) == 1
        assert factorizations(problem, other) == 0  # the slot is the family's
        # equal arrays, or the same arrays through replace, start a new family
        rebuilt = optim.ConvexProblem(*(np.array(getattr(problem, name)) for name in "PqAlu"))
        assert rebuilt._kkt_slot == {} and len(problem._kkt_slot) == 2
        assert factorizations(rebuilt, other) == 1
        assert factorizations(dataclasses.replace(problem), other) == 1
        # same rows, other matrix of the same shape
        for changed in ({"A": problem.A * 1.5}, {"P": problem.P * 2.0}):
            assert factorizations(dataclasses.replace(problem, **changed), other) == 1


def _count_lapack(monkeypatch, name: str) -> list:
    """Every call of ``optim.<name>``."""
    calls = []
    routine = getattr(optim, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return routine(*args, **kwargs)

    monkeypatch.setattr(optim, name, counted)
    return calls


_HOOKS_BEFORE_THE_FIRST_SOLVE = """
import json, sys
import numpy as np
from faultprint import optim

assert not [name for name in sys.modules if name.startswith("scipy")]
counts = dict.fromkeys(["_getrf", "_geqp3", "_factor_kkt", "_independent_rows"], 0)

def counted(name):
    inner = getattr(optim, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return inner(*args, **kwargs)

    return wrapper

wrappers = {name: counted(name) for name in counts}
for name, wrapper in wrappers.items():
    setattr(optim, name, wrapper)

def solve():
    # min |z1| + |z2| s.t. 2 z1 + z2 = 4, in epigraph form [z1, z2, t1, t2]
    A = [[-1, 0, 1, 0], [1, 0, 1, 0], [0, -1, 0, 1], [0, 1, 0, 1], [2, 1, 0, 0]]
    l, u = [0, 0, 0, 0, 4], [np.inf] * 4 + [4]
    return optim.solve(optim.ConvexProblem.linear(np.array([0, 0, 1, 1]), A, l, u))

first = solve()
counts_first = dict(counts)
second = solve()  # a new family: it keeps no factor of the first
from scipy.linalg import lapack
print(json.dumps({
    "counts": [counts_first, {name: counts[name] - counts_first[name] for name in counts}],
    "status": first.status.value,
    "still_wrapped": all(getattr(optim, name) is w for name, w in wrappers.items()),
    "bound": [getattr(optim, "_" + name) is getattr(lapack, "d" + name)
              for name in ("potrf", "potrs", "getrs")],
    "same_bits": [first.z.tobytes() == second.z.tobytes(), first.y.tobytes() == second.y.tobytes()],
}))
"""


def test_lapack_hooks_set_before_the_first_solve_see_every_factorization():
    # Wrappers put on the LAPACK names before anything binds them see every
    # factorization: one geqp3 per row selection and one getrf per KKT
    # factor.  Binding leaves them in place, and the names nobody wrapped
    # end up as scipy's routines themselves.
    result = run_fresh(_HOOKS_BEFORE_THE_FIRST_SOLVE)
    first, second = result["counts"]
    assert result["status"] == "optimal"
    assert first["_getrf"] == first["_factor_kkt"] > 0
    assert first["_geqp3"] == first["_independent_rows"] > 0
    assert second == first
    assert result["still_wrapped"]
    assert result["bound"] == [True, True, True]
    assert result["same_bits"] == [True, True]


def _record_active_set_solves(monkeypatch) -> list:
    """``(arguments, result)`` of every ``optim._active_set_solve`` call."""
    records = []
    active_set_solve = optim._active_set_solve

    def recorded(*args):
        result = active_set_solve(*args)
        records.append((args, result))
        return result

    monkeypatch.setattr(optim, "_active_set_solve", recorded)
    return records


def test_a_repeated_two_round_polish_refactors_nothing(monkeypatch):
    # Round 1 pins S = {0} from the dual guess, and its point violates row
    # 1, which round 2 adds.  The family keeps both rounds' factors, so the
    # same polish at the next snapshot runs no row selection and no LU, and
    # every round stays bit-equal to the reference, which always runs both.
    records = _record_active_set_solves(monkeypatch)
    getrf, geqp3 = _count_lapack(monkeypatch, "_getrf"), _count_lapack(monkeypatch, "_geqp3")
    base = optim.ConvexProblem(
        P=np.eye(2),
        q=np.array([-2.0, -0.5]),
        A=np.array([[1.0, 0.0], [1.0, 1.0]]),
        l=np.full(2, -np.inf),
        u=np.array([1.0, 1.2]),
    )
    guess = np.array([1.0, 0.0])
    factorizations = []
    for shift in (0.0, 0.05):
        problem = base.with_bounds(base.l, base.u + shift)
        del records[:], getrf[:], geqp3[:]
        assert optim._polish(problem, guess, 1e-7, 1e-7) is not None
        pinned = [np.concatenate(args[2:4]).tolist() for args, _ in records]
        assert pinned == [[0], [0, 1]]
        for args, result in records:
            *arguments, by_map = args
            assert not by_map  # _polish solves by LU unless told to use maps
            _assert_same_bits(result[:2], active_set_solve_reference(*arguments))
        assert list(problem._kkt_slot) == [np.array([0]).tobytes(), np.array([0, 1]).tobytes()]
        factorizations.append((len(getrf), len(geqp3)))
    assert factorizations == [(2, 2), (0, 0)]


def test_a_family_keeps_its_most_recently_used_kkt_factors(monkeypatch):
    # One more row set than the slot holds: the least recently used set is
    # the one dropped, and it is factored again when it returns.
    getrf = _count_lapack(monkeypatch, "_getrf")
    rng = np.random.default_rng(23)
    sets = [np.array([2 * i, 2 * i + 1]) for i in range(optim._KKT_KEPT + 1)]
    problem = _random_qp(rng, 6, 2 * len(sets))
    y = rng.normal(size=problem.n_constraints)
    empty = np.empty(0, dtype=int)

    def factorizations(i):
        before = len(getrf)
        result = optim._active_set_solve(problem, y, sets[i], empty)
        _assert_same_bits(result[:2], active_set_solve_reference(problem, y, sets[i], empty))
        assert list(problem._kkt_slot)[-1] == sets[i].tobytes()
        assert len(problem._kkt_slot) <= optim._KKT_KEPT
        return len(getrf) - before

    def kept():
        """The kept sets, least recently used first."""
        return [[s.tobytes() for s in sets].index(rows) for rows in problem._kkt_slot]

    assert [factorizations(i) for i in range(optim._KKT_KEPT)] == [1] * optim._KKT_KEPT
    assert kept() == [0, 1, 2, 3]
    assert factorizations(0) == 0
    assert kept() == [1, 2, 3, 0]
    assert factorizations(4) == 1
    assert kept() == [2, 3, 0, 4]  # set 1, the least recently used, is dropped
    assert factorizations(1) == 1
    assert kept() == [3, 0, 4, 1]
    assert factorizations(3) == 0  # still kept, the least recently used
    assert kept() == [0, 4, 1, 3]


def test_a_second_guess_polish_of_a_kept_set_is_one_product(monkeypatch):
    # The first warm and vertex starts of a family build the affine map of
    # each row set they pin; the next start that pins a kept set reads its
    # point off that map: no triangular solve, factorization, row selection
    # or map build.
    names = ("_getrs", "_getri", "_getrf", "_geqp3", "_kkt_map")
    calls = {name: _count_lapack(monkeypatch, name) for name in names}
    for start in ("warm", "vertex"):
        family = l1_equation_lp(4.0)
        cold = optim.solve(family)
        if start == "warm":
            options = {"dual_guess": cold.y}
        else:
            options = {"dual_guess": np.sign(cold.y)}  # the vertex's dual signs
        for r in (3.0, 2.0, 1.0):
            for made in calls.values():
                del made[:]
            shifted = l1_equation_lp(r)
            solution = optim.solve(family.with_bounds(shifted.l, shifted.u), **options)
            assert (solution.path, solution.iterations) == ("warm", 0), start
            made = [len(calls[name]) for name in names]
            # the first start maps the cold polish's best set, kept without a map
            assert made == ([0, 1, 0, 0, 1] if r == 3.0 else [0] * len(names)), start
        assert [factor.map is not None for factor in family._kkt_slot.values()] == [True]
        # a new family factors and maps again, to the same bits
        fresh = optim.solve(_fresh(family.with_bounds(shifted.l, shifted.u)), **options)
        assert fresh.z.tobytes() == solution.z.tobytes()
        assert fresh.y.tobytes() == solution.y.tobytes()


def test_an_evicted_set_gets_its_map_rebuilt_when_it_returns(monkeypatch):
    # The map lives with its row set's LU factors, so the one LRU rule drops
    # both: a set pushed out by _KKT_KEPT others is factored and mapped again.
    getrf, maps = _count_lapack(monkeypatch, "_getrf"), _count_lapack(monkeypatch, "_kkt_map")
    rng = np.random.default_rng(23)
    sets = [np.array([2 * i, 2 * i + 1]) for i in range(optim._KKT_KEPT + 1)]
    problem = _random_qp(rng, 6, 2 * len(sets))
    y = rng.normal(size=problem.n_constraints)
    empty = np.empty(0, dtype=int)

    def built(i):
        del getrf[:], maps[:]
        optim._active_set_solve(problem, y, sets[i], empty, None, True)
        rows, factor = _last_kept(problem)
        assert rows == sets[i].tobytes() and factor.map is not None
        return len(getrf), len(maps)

    assert [built(i) for i in range(optim._KKT_KEPT + 1)] == [(1, 1)] * (optim._KKT_KEPT + 1)
    assert sets[0].tobytes() not in problem._kkt_slot  # the least recently used, dropped
    assert built(0) == (1, 1)
    assert built(4) == (0, 0)  # still kept, with its map


def test_cold_solves_build_no_map(monkeypatch):
    # Only a polish from a caller's guess reads points off maps; a cold
    # solve's polishes solve by LU and leave the kept factors unmapped.
    maps = _count_lapack(monkeypatch, "_kkt_map")
    problems = [l1_equation_lp(4.0), simple_qp(), *random_problems(optim, 5, 40)]
    for problem in problems:
        assert optim.solve(problem).status is optim.SolveStatus.OPTIMAL
        assert all(factor.map is None for factor in problem._kkt_slot.values())
    assert maps == []


def test_cold_and_warm_solves_reuse_the_factors_of_their_family(monkeypatch):
    # Reuse follows the problem, not the solution: a cold solve leaves its
    # factors for the next solve of its family, and solutions hold none.
    assert [f.name for f in dataclasses.fields(optim.Solution)] == [
        "z", "y", "objective", "status", "iterations", "kkt", "kkt_tol", "path"
    ]
    calls = _count_factorizations(monkeypatch)
    base = l1_equation_lp(4.0)
    cold = optim.solve(base)
    assert cold.iterations > 0 and calls
    shifted = l1_equation_lp(3.0)
    before = len(calls)
    warm = optim.solve(base.with_bounds(shifted.l, shifted.u), dual_guess=cold.y)
    assert warm.iterations == 0 and len(calls) == before
    # a new problem from equal arrays factors again, with the same bits
    fresh = optim.solve(shifted, dual_guess=cold.y)
    assert len(calls) > before
    assert fresh.z.tobytes() == warm.z.tobytes()
    assert fresh.y.tobytes() == warm.y.tobytes()
    assert (fresh.kkt, fresh.kkt_tol, fresh.iterations) == (warm.kkt, warm.kkt_tol, 0)


def _record_polish_rounds(monkeypatch) -> list:
    """Per _polish call, the (row, side) pairs each active-set solve pins."""
    polishes = []
    polish, active_set_solve = optim._polish, optim._active_set_solve

    def counted_polish(*args):
        polishes.append([])
        return polish(*args)

    def counted_solve(problem, y, lower, upper, preferred=None, by_map=False):
        pinned = {(int(row), "l") for row in lower} | {(int(row), "u") for row in upper}
        polishes[-1].append(pinned)
        return active_set_solve(problem, y, lower, upper, preferred, by_map)

    monkeypatch.setattr(optim, "_polish", counted_polish)
    monkeypatch.setattr(optim, "_active_set_solve", counted_solve)
    return polishes


def _explain_first_alarm() -> explain.Counterfactual:
    """The cold explanation of power_failure-m2-s1's first alarm (seed-1 LP grid)."""
    run = pipeline.RunConfig(seeds=(1,))
    spec = next(s for s in pipeline.expand_grid(run) if s.scenario_id == "power_failure-m2-s1")
    scenario = pipeline.build_scenario(run, spec)
    panel = scenario.faulty
    ensemble, threshold = pipeline.train_scenario(
        panel, scenario.config.train_end, run.window, run.margin
    )
    t = int(detector.detect(ensemble, panel, threshold).alarm_steps()[0])
    return explain.ensemble_counterfactual(
        ensemble,
        explain.snapshot_at_alarm(panel, ensemble, t),
        run.cf_config(threshold),
        solver_options=run.solver_options(),
    )


def test_polish_round_budget(monkeypatch):
    # Rounds only add rows until one is released, so a polish that never
    # unpins a row stops after three active-set solves; releasing allows
    # six.  A six-round budget for every polish made each failing LP early
    # polish cost twice the solves.
    polishes = _record_polish_rounds(monkeypatch)
    rng = np.random.default_rng(8)
    for _ in range(300):
        n, m = int(rng.integers(3, 9)), int(rng.integers(2, 12))
        problem = _random_qp(rng, n, m)
        y = rng.normal(size=m) * 10.0 ** rng.uniform(-9, 0, size=m)
        optim._polish(problem, y, optim.DEFAULT_TOL_ABS, optim.DEFAULT_TOL_REL)
    # A cold solve whose failing early polishes take three rounds without a
    # release and six with one.
    before = len(polishes)
    cf = _explain_first_alarm()
    assert cf.solution.path == "early_polish"
    assert [len(rounds) for rounds in polishes[before:]] == [3, 3, 6, 6, 3, 1]
    released = 0
    for rounds in polishes:
        assert 1 <= len(rounds) <= 6
        if any(pinned - later for pinned, later in zip(rounds, rounds[1:])):
            released += 1
        else:
            assert len(rounds) <= 3
    assert released


def test_every_check_inside_the_window_polishes(monkeypatch):
    # A polished point depends only on the rows it keeps, so an early
    # polish that fails is tried again at the next check, not some checks
    # later.  ADMM applies its x-step map once per iteration.
    iterations, at_polish = [0], []
    x_step_map, polish = optim._x_step_map, optim._polish

    class CountedMap(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            iterations[0] += ufunc is np.matmul
            inputs = tuple(np.asarray(array) for array in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    def counted_map(*args):
        return x_step_map(*args).view(CountedMap)

    def counted_polish(*args):
        at_polish.append(iterations[0])
        return polish(*args)

    monkeypatch.setattr(optim, "_x_step_map", counted_map)
    monkeypatch.setattr(optim, "_polish", counted_polish)
    cf = _explain_first_alarm()
    assert cf.solution.path == "early_polish"
    assert len(at_polish) > 1  # the early polishes before the last failed
    assert np.diff(at_polish).tolist() == [optim._CHECK_INTERVAL] * (len(at_polish) - 1)
    assert cf.solution.iterations == at_polish[-1]


def test_x_step_factor_is_reused_for_the_same_starting_rho(monkeypatch):
    # The starting rho depends on which rows the bounds make equalities or
    # leave free.  A with_bounds copy with the same such rows starts ADMM
    # on the family's iteration map; other rows factor and build it again,
    # and replace it.  Every result is bit-equal to a solve of a newly
    # built problem.
    calls = []
    factorize = optim._factorize_scaled

    def counted(*args):
        calls.append(args)
        return factorize(*args)

    monkeypatch.setattr(optim, "_factorize_scaled", counted)

    def saved(problem):
        """Factorizations a solve saved against a newly built equal problem."""
        before = len(calls)
        ours = optim.solve(problem)
        used = len(calls) - before
        fresh = optim.ConvexProblem(*(np.array(getattr(problem, name)) for name in "PqAlu"))
        expected = optim.solve(fresh)
        assert ours.status is optim.SolveStatus.OPTIMAL
        assert ours.z.tobytes() == expected.z.tobytes()
        assert ours.y.tobytes() == expected.y.tobytes()
        assert (ours.iterations, ours.kkt, ours.kkt_tol) == (
            expected.iterations, expected.kkt, expected.kkt_tol
        )
        return len(calls) - before - 2 * used

    rng = np.random.default_rng(19)
    for _ in range(10):
        problem = _random_qp(rng, 6, 8)
        l, u = problem.l.copy(), problem.u.copy()
        l[0] = u[0]  # an equality row
        l[1], u[1] = -np.inf, np.inf  # a free row
        base = problem.with_bounds(l, u)
        widen = rng.uniform(0.0, 0.2, 8)
        widen[0] = 0.0
        same_rows = base.with_bounds(l - widen, u + widen)
        assert saved(base) == 0  # the family's first start factors
        assert saved(same_rows) == 1
        assert saved(base) == 1
        more, fewer, freed_l, freed_u = l.copy(), l.copy(), l.copy(), u.copy()
        more[2] = u[2]  # one more equality row
        fewer[0] = u[0] - 0.5  # one equality row less
        freed_l[4], freed_u[4] = -np.inf, np.inf  # one more free row
        for other_l, other_u in ((more, u), (fewer, u), (freed_l, freed_u)):
            assert saved(base.with_bounds(other_l, other_u)) == 0
            assert saved(base) == 0  # the copy replaced the family's map
        assert saved(dataclasses.replace(base)) == 0  # a new family


def test_problem_copies_the_arrays_it_freezes():
    base = np.array([[1.0, 2.0], [3.0, 4.0]])
    q, l, u = np.array([1.0, -1.0]), np.zeros(1), np.ones(1)
    problem = optim.ConvexProblem.linear(q, base[:1], l, u)
    moved = problem.with_bounds(l - 1.0, u + 1.0)
    base[0, 0] = 2.0
    q[0], l[0], u[0] = 5.0, -3.0, 3.0
    assert problem.A.tolist() == [[1.0, 2.0]] and problem.q.tolist() == [1.0, -1.0]
    assert (problem.l[0], problem.u[0], moved.l[0], moved.u[0]) == (0.0, 1.0, -1.0, 2.0)
    with pytest.raises(ValueError, match="read-only"):
        problem.A[0, 0] = 0.0


def test_with_bounds_shares_the_matrices_and_checks_the_bounds():
    problem = l1_equation_lp(1.0)
    moved = problem.with_bounds(problem.l + 1.0, problem.u + 1.0)
    assert moved.P is problem.P and moved.q is problem.q and moved.A is problem.A
    assert np.array_equal(moved.l, problem.l + 1.0)
    assert problem.l[4] == 1.0  # the original is untouched
    with pytest.raises(ValueError, match="l <= u"):
        problem.with_bounds(problem.u, problem.l)
    with pytest.raises(ValueError, match="row count"):
        problem.with_bounds(problem.l[:2], problem.u[:2])
    with pytest.raises(ValueError, match="l must be < \\+inf"):
        problem.with_bounds(np.full(5, np.inf), np.full(5, np.inf))


@pytest.mark.parametrize("bad", ["nan", "crossed", "l-plus-inf", "u-minus-inf", "short"])
def test_a_bad_row_of_stacked_bounds_fails_as_with_bounds_does(bad):
    problems = [l1_equation_lp(r) for r in (1.0, 2.0, 3.0)]
    l, u = np.stack([p.l for p in problems]), np.stack([p.u for p in problems])
    moved = optim.ConvexProblem.each_with_bounds(problems, l + 1.0, u + 1.0)
    for problem, one, row_l, row_u in zip(problems, moved, l + 1.0, u + 1.0):
        assert one.A is problem.A and np.array_equal(one.l, row_l) and np.array_equal(one.u, row_u)
        alone = problem.with_bounds(row_l, row_u)
        for name in ("l", "u", "_finite_l", "_finite_u"):
            assert getattr(alone, name).tobytes() == getattr(one, name).tobytes()
        assert alone._equality.tobytes() == one._equality.tobytes()
    if bad == "nan":
        l[1, 0] = np.nan
    elif bad == "crossed":
        l[1, 4] = u[1, 4] + 1.0
    elif bad == "l-plus-inf":
        l[1, 0] = np.inf
    elif bad == "u-minus-inf":
        l[1, 4] = u[1, 4] = -np.inf
    else:
        l, u = l[:, :4], u[:, :4]
    with pytest.raises(ValueError) as alone:
        problems[1].with_bounds(l[1], u[1])
    with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
        optim.ConvexProblem.each_with_bounds(problems, l, u)
