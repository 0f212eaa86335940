import numpy as np
import pytest

from faultprint import optim
from oracles import (
    active_set_solve_reference,
    lp_vertex_objective,
    random_bounded_lp,
    x_step_reference,
)


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


def _assert_carries_own_certificate(problem, solution, tol_abs, tol_rel):
    """The reported residuals and tolerances are those of the returned point."""
    assert solution.status is optim.SolveStatus.OPTIMAL
    kkt = optim.kkt_residuals(problem, solution)
    assert solution.kkt == kkt
    assert solution.kkt_tol == optim.kkt_tolerances(
        problem, solution.z, solution.y, tol_abs, tol_rel
    )
    assert all(r <= 10.0 * t for r, t in zip(kkt, solution.kkt_tol))


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
    warm = optim.solve(shifted, warm_start=optim.solve(l1_equation_lp(4.0)))
    assert warm.iterations == 0  # a warm-start hit
    _assert_carries_own_certificate(
        shifted, warm, optim.DEFAULT_TOL_ABS, optim.DEFAULT_TOL_REL
    )


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
    with optim.audit_solves() as records:
        optim.solve(simple_qp())
        optim.solve(l1_equation_lp(1.0))
    assert len(records) == 2
    assert all(rec.status is optim.SolveStatus.OPTIMAL for rec in records)


def test_warm_start_on_shifted_bounds_is_certified_without_iterations():
    cold = optim.solve(l1_equation_lp(4.0))
    shifted = l1_equation_lp(3.0)  # same active set, new right-hand side
    warm = optim.solve(shifted, warm_start=cold)
    assert warm.status is optim.SolveStatus.OPTIMAL
    assert warm.iterations == 0
    assert warm.z[0] == pytest.approx(1.5, abs=1e-9)
    kkt = optim.kkt_residuals(shifted, warm)
    assert all(r <= t for r, t in zip(kkt, warm.kkt_tol))


def test_warm_start_miss_is_a_cold_solve():
    problem = l1_equation_lp(-3.0)  # the sign flip changes the active set
    warm = optim.solve(problem, warm_start=optim.solve(l1_equation_lp(4.0)))
    cold = optim.solve(problem)
    assert warm.iterations == cold.iterations > 0
    assert np.array_equal(warm.z, cold.z)
    assert np.array_equal(warm.y, cold.y)


def test_warm_start_shape_mismatch():
    with pytest.raises(ValueError, match="warm start"):
        optim.solve(l1_equation_lp(1.0), warm_start=optim.solve(simple_qp()))


def test_audit_blocks_nest():
    with optim.audit_solves() as outer:
        with optim.audit_solves() as inner:
            optim.solve(simple_qp())
        optim.solve(simple_qp())
    assert len(inner) == 1
    assert len(outer) == 2


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


def test_active_set_solve_matches_wrapper_reference():
    cases = list(_active_set_cases())
    over_pinned = 0
    for problem, y, lower, upper, preferred in cases:
        reference = active_set_solve_reference(problem, y, lower, upper, preferred)
        result = optim._active_set_solve(problem, y, lower, upper, preferred)
        _assert_same_bits(result, reference)
        over_pinned += reference is not None and lower.size + upper.size > problem.n_vars
    assert over_pinned > 0  # the rank-deficient cases did reach the selection


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


def test_singular_active_set_system_gives_none_like_the_reference():
    # P + 1e-6 I rounds back to a singular P: the LU meets an exact zero pivot.
    problem = optim.ConvexProblem(
        P=np.full((2, 2), 1e12), q=np.array([1.0, 0.0]), A=np.eye(2), l=-np.ones(2), u=np.ones(2)
    )
    empty = np.empty(0, dtype=int)
    assert active_set_solve_reference(problem, np.zeros(2), empty, empty) is None
    assert optim._active_set_solve(problem, np.zeros(2), empty, empty) is None


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


def test_factorize_rejects_indefinite_matrix():
    with pytest.raises(np.linalg.LinAlgError):
        optim._factorize_scaled(-np.eye(2), np.zeros((1, 2)), np.ones(1))


def test_kkt_factor_is_reused_only_for_its_own_matrix():
    # The factors of one active-set solve stand in for the factorization of
    # another only when P, A and the kept rows are the same; every result
    # must stay bit-equal to the reference either way.
    rng = np.random.default_rng(17)
    empty = np.empty(0, dtype=int)
    for _ in range(20):
        problem = _random_qp(rng, 6, 8)
        y = rng.normal(size=8)
        rows = rng.permutation(8)
        first, other = np.sort(rows[:3]), np.sort(rows[3:6])
        factor = optim._active_set_solve(problem, y, first, empty)[2]

        shifted = problem.with_bounds(problem.l - 0.1, problem.u + 0.1)
        same = optim._active_set_solve(shifted, y, first, empty, reuse=factor)
        assert same[2] is factor
        _assert_same_bits(same[:2], active_set_solve_reference(shifted, y, first, empty))

        # same size, other rows: a stale factor would give another point
        moved = optim._active_set_solve(shifted, y, other, empty, reuse=factor)
        assert moved[2] is not factor
        _assert_same_bits(moved[:2], active_set_solve_reference(shifted, y, other, empty))

        # same rows, other matrix of the same shape
        changed = optim.ConvexProblem(
            P=problem.P, q=problem.q, A=problem.A * 1.5, l=problem.l, u=problem.u
        )
        for candidate in (changed, optim.ConvexProblem(
            P=problem.P * 2.0, q=problem.q, A=problem.A, l=problem.l, u=problem.u
        )):
            result = optim._active_set_solve(candidate, y, first, empty, reuse=factor)
            assert result[2] is not factor
            _assert_same_bits(
                result[:2], active_set_solve_reference(candidate, y, first, empty)
            )


def test_only_warm_started_solves_keep_their_kkt_factor():
    cold = optim.solve(l1_equation_lp(4.0))
    assert cold._kkt is None
    warm = optim.solve(l1_equation_lp(3.0), warm_start=cold)
    assert warm.iterations == 0 and warm._kkt is not None
    shifted = l1_equation_lp(2.0)
    chained = optim.solve(shifted, warm_start=warm)
    # a new problem has new arrays: the factor is rebuilt, with the same bits
    assert chained._kkt is not warm._kkt
    again = shifted.with_bounds(shifted.l, shifted.u)
    reused = optim.solve(again, warm_start=chained)
    assert reused._kkt is chained._kkt
    assert reused.z.tobytes() == chained.z.tobytes()
    assert reused.y.tobytes() == chained.y.tobytes()


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
