"""Independent oracles the tests check the library against.

These deliberately use different algorithms from the code under test:
brute-force vertex enumeration and HiGHS (scipy's ``linprog``) instead
of operator splitting, a bounded scalar search for one-row programs
instead of their closed form, an epigraph formulation of the
squared-error program instead of its scaled slack, normal equations
instead of orthogonal factorizations.  The solver's linear algebra is
checked against the same steps written with scipy.linalg's wrappers
instead of direct LAPACK calls, and its one-pass certificate against the
residuals, tolerances and violated rows each recomputed on its own.
Panel CSV files are checked against the csv-module reader and writer that
preceded numpy's C parser, and the mixing-matrix sampler, which screens a
row's draws as one block, against the loop that scored one draw at a time.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from itertools import islice

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve, qr
from scipy.optimize import linprog, minimize_scalar

from faultprint import netgen, optim


def lp_vertex_objective(q, A, l, u, feas_tol=1e-8):
    """Optimal value of min q'x s.t. l <= Ax <= u by enumerating vertices.

    Requires a bounded feasible region (every vertex is the intersection of
    n one-sided constraints).  Returns None when no feasible vertex exists.
    """
    q = np.asarray(q, dtype=float)
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    G_rows, h_vals = [], []
    for i in range(A.shape[0]):
        if np.isfinite(u[i]):
            G_rows.append(A[i])
            h_vals.append(u[i])
        if np.isfinite(l[i]):
            G_rows.append(-A[i])
            h_vals.append(-l[i])
    G = np.asarray(G_rows)
    h = np.asarray(h_vals)

    best = None
    scale = 1.0 + np.abs(h).max(initial=0.0)
    for subset in itertools.combinations(range(G.shape[0]), n):
        Gs = G[list(subset)]
        hs = h[list(subset)]
        if abs(np.linalg.det(Gs)) < 1e-10:
            continue
        x = np.linalg.solve(Gs, hs)
        if np.all(G @ x <= h + feas_tol * scale):
            value = float(q @ x)
            if best is None or value < best:
                best = value
    return best


def _highs(problem: optim.ConvexProblem):
    """HiGHS's ``linprog`` result for the LP ``problem`` (P = 0).

    Rows with ``l == u`` go in as equalities, every other finite bound as
    one inequality row; the variables are free.
    """
    if problem.P.any():
        raise ValueError("HiGHS solves LPs only (P = 0)")
    A, l, u = problem.A, problem.l, problem.u
    equality = l == u
    upper, lower = np.isfinite(u) & ~equality, np.isfinite(l) & ~equality
    return linprog(
        problem.q,
        A_ub=np.concatenate([A[upper], -A[lower]]),
        b_ub=np.concatenate([u[upper], -l[lower]]),
        A_eq=A[equality] if equality.any() else None,
        b_eq=l[equality] if equality.any() else None,
        bounds=(None, None),
        method="highs",
    )


def highs_objective(problem: optim.ConvexProblem) -> float:
    """Optimal value of the LP ``problem``, solved by HiGHS; a problem HiGHS
    does not solve to optimality fails the calling test."""
    result = _highs(problem)
    assert result.status == 0, f"HiGHS status {result.status}: {result.message}"
    return float(result.fun)


def highs_status(problem: optim.ConvexProblem) -> int:
    """``linprog``'s status for the LP ``problem``: 0 optimal, 2 infeasible,
    3 unbounded."""
    return int(_highs(problem).status)


def l1_one_row_oracle(g, r0, tol, penalty):
    """Closed-form optimum of a one-row l1/abs program.

    One residual row g'delta + r0: the cheapest change puts everything on
    the largest-|g_i| channel, just enough to bring |r0| down to tol,
    unless the slack, at ``penalty`` per unit, is cheaper than 1/|g_i|.
    """
    delta = np.zeros_like(g)
    i = int(np.argmax(np.abs(g)))
    if abs(r0) > tol and abs(g[i]) * penalty >= 1.0:
        delta[i] = -np.sign(g[i] * r0) * (abs(r0) - tol) / abs(g[i])
    return delta


def one_row_oracle(g, r0, tol, penalty, complexity, dist):
    """Optimal value and final residual e of a one-row, two-sided program.

    The program is a scalar problem in e: the cheapest change that moves
    the residual from r0 to e costs |e - r0| / max|g_i| (l1) or
    (e - r0)^2 / |g|^2 (l2), and the penalty is ``penalty`` times
    max(0, |e| - tol) (abs) or max(0, e^2 - tol) (squared).  Minimized
    numerically over e between 0 and r0, apart from any closed form.  The
    search closes in on a kink only to its relative tolerance (about 1e-8),
    so the objective's break points, the end points and +-tol or
    +-sqrt(tol), are candidates too.
    """
    g = np.asarray(g, dtype=float)

    def cost(e):
        change = abs(e - r0) / np.abs(g).max() if complexity == "l1" else (e - r0) ** 2 / (g @ g)
        measure = abs(e) if dist == "abs" else e * e
        return change + penalty * max(0.0, measure - tol)

    if r0 == 0.0:
        return 0.0, 0.0
    result = minimize_scalar(
        cost, bounds=sorted((0.0, r0)), method="bounded", options={"xatol": 1e-12}
    )
    edge = np.sqrt(tol) if dist == "squared" else tol
    breaks = [e for e in (0.0, r0, edge, -edge) if min(0.0, r0) <= e <= max(0.0, r0)]
    return min((float(cost(e)), float(e)) for e in [result.x, *breaks])


def normal_equations_fit(inputs: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Least-squares coefficients (with intercept) via the normal equations."""
    design = np.hstack([inputs, np.ones((inputs.shape[0], 1))])
    gram = design.T @ design
    return np.linalg.solve(gram, design.T @ response)


def window_average(panel, t: int, window: int, exclude: int) -> np.ndarray:
    """Mean of the ``window`` rows before t, with channel ``exclude`` removed.

    One row at a time, against the library's strided all-rows computation.
    """
    if t < window:
        raise ValueError(f"time index {t} has no full window of length {window}")
    if t > panel.n_steps:
        raise ValueError(f"time index {t} beyond panel end")
    if not 0 <= exclude < panel.n_sensors:
        raise ValueError(f"exclude index {exclude} out of range")
    mean = panel.values[t - window : t].mean(axis=0)
    return np.delete(mean, exclude)


def predict(model, inputs: np.ndarray) -> float:
    """Evaluate one virtual sensor on one input vector."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != model.weights.shape:
        raise ValueError(
            f"input length {inputs.shape} does not match weights {model.weights.shape}"
        )
    return float(model.weights @ inputs + model.bias)


def random_bounded_lp(rng: np.random.Generator, max_extra_rows: int = 4):
    """A random feasible LP whose feasible set is a bounded polytope.

    Box rows on every variable guarantee boundedness; extra random rows are
    shifted to keep a known interior point feasible.
    """
    n = int(rng.integers(2, 5))
    extra = int(rng.integers(1, min(max_extra_rows, 8 - n) + 1))
    x0 = rng.uniform(-1.0, 1.0, n)
    rows = [np.eye(n)[i] for i in range(n)]
    lows = list(x0 - rng.uniform(0.5, 2.0, n))
    highs = list(x0 + rng.uniform(0.5, 2.0, n))
    for _ in range(extra):
        a = rng.normal(size=n)
        slack_lo = rng.uniform(0.2, 2.0)
        slack_hi = rng.uniform(0.2, 2.0)
        rows.append(a)
        lows.append(float(a @ x0 - slack_lo))
        highs.append(float(a @ x0 + slack_hi))
    q = rng.normal(size=n)
    return q, np.vstack(rows), np.array(lows), np.array(highs)


def counterfactual_program_rows(G, r0, tol, one_sided, complexity, dist, penalty):
    """The counterfactual program built one constraint row at a time.

    Reference for ``explain._Stack``: residual row j gives, in order, the
    rows e_j - c s_j <= edge_j and -e_j - c s_j <= edge_j (two-sided) or
    e_j + s_j >= tol_j (one-sided), with edge = tol and c = 1 for absolute
    error, edge = sqrt(tol) and c = 1 / (2 sqrt(penalty)) for squared
    error; nonnegativity rows follow.  Returns (P, q, A, l, u).
    """
    k, n = G.shape
    Gd = np.hstack([G, -G]) if complexity == "l1" else G
    nd = Gd.shape[1]
    n_vars = nd + k
    squared = dist == "squared"
    c = 0.5 / np.sqrt(penalty) if squared else 1.0
    edge = np.sqrt(tol) if squared else tol
    rows, lo, hi = [], [], []

    def add(entries, low, high):
        row = np.zeros(n_vars)
        for col, value in entries:
            row[col] = value
        rows.append(row)
        lo.append(low)
        hi.append(high)

    for j in range(k):
        delta = list(enumerate(Gd[j]))
        minus = [(col, -v) for col, v in delta]
        s = nd + j
        if one_sided[j]:
            add(delta + [(s, 1.0)], tol[j] - r0[j], np.inf)
        else:
            add(delta + [(s, -c)], -np.inf, edge[j] - r0[j])
            add(minus + [(s, -c)], -np.inf, edge[j] + r0[j])
    for col in range(0 if complexity == "l1" else nd, n_vars):
        add([(col, 1.0)], 0.0, np.inf)

    P = np.zeros((n_vars, n_vars))
    q = np.zeros(n_vars)
    if complexity == "l1":
        q[:nd] = 1.0
    else:
        P[np.arange(n), np.arange(n)] = 2.0
    if squared:
        P[np.arange(nd, n_vars), np.arange(nd, n_vars)] = 2.0 * penalty * c * c
        q[nd:] = 2.0 * penalty * c * edge
    else:
        q[nd:] = penalty
    return P, q, np.vstack(rows), np.array(lo), np.array(hi)


def squared_error_epigraph_program(G, r0, tol, complexity, penalty):
    """A squared-error program in a second, independent formulation.

    The penalty max(0, e^2 - tol) equals the minimum over |a| <= sqrt(tol)
    of (e - a)^2 + 2 sqrt(tol) |e - a|.  Residual row j gives the rows
    e_j - a_j - s_j = 0, |a_j| <= sqrt(tol_j), t_j >= s_j and t_j >= -s_j
    over variables [delta, a, s, t], priced penalty (s^2 + 2 sqrt(tol) t);
    an l1 change's parts are nonnegative.  Its optimal value is the
    program's.  Returns an ``optim.ConvexProblem``.
    """
    k, n = G.shape
    l1 = complexity == "l1"
    Gd = np.hstack([G, -G]) if l1 else G
    nd = Gd.shape[1]
    n_vars = nd + 3 * k
    root_tol = np.sqrt(tol)
    rows, lo, hi = [], [], []

    def add(entries, low, high):
        row = np.zeros(n_vars)
        for col, value in entries:
            row[col] = value
        rows.append(row)
        lo.append(low)
        hi.append(high)

    for j in range(k):
        a, s, t = nd + j, nd + k + j, nd + 2 * k + j
        add(list(enumerate(Gd[j])) + [(a, -1.0), (s, -1.0)], -r0[j], -r0[j])
        add([(a, 1.0)], -root_tol[j], root_tol[j])
        add([(t, 1.0), (s, -1.0)], 0.0, np.inf)
        add([(t, 1.0), (s, 1.0)], 0.0, np.inf)
    if l1:
        for col in range(nd):
            add([(col, 1.0)], 0.0, np.inf)

    P = np.zeros((n_vars, n_vars))
    q = np.zeros(n_vars)
    if l1:
        q[:nd] = 1.0
    else:
        P[np.arange(n), np.arange(n)] = 2.0
    P[np.arange(nd + k, nd + 2 * k), np.arange(nd + k, nd + 2 * k)] = 2.0 * penalty
    q[nd + 2 * k :] = 2.0 * penalty * root_tol
    return optim.ConvexProblem(P=P, q=q, A=np.vstack(rows), l=np.array(lo), u=np.array(hi))


def x_step_reference(P_s, A, rho, rhs):
    """The solver's ADMM x-step through scipy's Cholesky wrappers."""
    K = P_s + optim._SIGMA * np.eye(P_s.shape[0]) + (A.T * rho) @ A
    return cho_solve(cho_factor(K, lower=True, check_finite=False), rhs, check_finite=False)


def admm_reference(problem, iterations: int, rho_updates=()):
    """``optim.solve``'s cold ADMM iterate ``(x, z, y)`` after ``iterations``
    iterations, in the textbook form of OSQP's Algorithm 1 (Stellato et
    al., *Math. Prog. Comp.* 2020).

    The state is ``[x; z; y]`` with the unscaled dual, and each x-step
    solves through scipy's Cholesky wrappers, where the solver applies one
    map per rho to a scaled-dual state.  It runs on the solver's normalized
    objective from its starting rho (boosted on equality rows, the minimum
    on free rows) and returns y in the problem's units.  ``rho_updates``
    lists ``(iteration, rho)``: the rho vector in force after that
    iteration, with x, z and y kept as they are.
    """
    P, q, A, l, u = problem.P, problem.q, problem.A, problem.l, problem.u
    cost = max(1.0, np.abs(q).max(), np.abs(P).max())
    P_s, q_s = P / cost, q / cost
    rho = np.full(A.shape[0], optim._RHO_INITIAL)
    rho[l == u] *= optim._RHO_EQUALITY_BOOST
    rho[np.isinf(l) & np.isinf(u)] = optim._RHO_MIN
    updates = dict(rho_updates)
    alpha = optim._ALPHA
    x, z, y = np.zeros(A.shape[1]), np.zeros(A.shape[0]), np.zeros(A.shape[0])
    for it in range(1, iterations + 1):
        x_tilde = x_step_reference(P_s, A, rho, optim._SIGMA * x - q_s + A.T @ (rho * z - y))
        relaxed = alpha * A @ x_tilde + (1.0 - alpha) * z
        x = alpha * x_tilde + (1.0 - alpha) * x
        z_next = np.clip(relaxed + y / rho, l, u)
        y = y + rho * (relaxed - z_next)
        z = z_next
        rho = updates.get(it, rho)
    return x, z, y * cost


def independent_rows_reference(problem, y, active, preferred=None):
    """Positions in ``active`` of the rows scipy's pivoted QR keeps, sorted.

    The rows are weighted by dual magnitude, ``preferred`` and equality rows
    first; a row is kept when its ``|R_ii|`` exceeds 1e-12 of the largest.
    """
    strength = np.abs(y[active])
    weights = np.clip(strength / max(strength.max(initial=0.0), 1e-300), 1e-6, None)
    if preferred is not None and preferred.size:
        weights[np.isin(active, preferred)] = 1e6
    weights[(problem.l == problem.u)[active]] = 1e6
    _, r_diag, pivots = qr(problem.A[active].T * weights, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r_diag))
    rank = int((diag > diag.max(initial=0.0) * 1e-12).sum())
    return np.sort(pivots[:rank])


def active_set_solve_reference(problem, y, lower_active, upper_active, preferred=None):
    """``optim._active_set_solve`` through scipy's QR and LU wrappers.

    Same steps: the pivoted-QR row selection of
    :func:`independent_rows_reference`, a regularized LU solve of the
    reduced KKT system, proximal refinement towards the unregularized one
    through the same LU, dual sign clamping on inequality rows.  Returns
    None where the reduced system is singular.
    """
    equality = problem.l == problem.u
    n = problem.n_vars
    active = np.concatenate([lower_active, upper_active])
    is_lower = np.concatenate(
        [np.ones(lower_active.shape[0], bool), np.zeros(upper_active.shape[0], bool)]
    )
    a_red = problem.A[active]
    bounds = np.concatenate([problem.l[lower_active], problem.u[upper_active]])

    if active.shape[0]:
        keep = independent_rows_reference(problem, y, active, preferred)
        active, is_lower = active[keep], is_lower[keep]
        a_red, bounds = a_red[keep], bounds[keep]
    k = active.shape[0]

    reg = optim._POLISH_REG
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = problem.P + reg * np.eye(n)
    kkt[:n, n:] = a_red.T
    kkt[n:, :n] = a_red
    kkt[n:, n:] = -reg * np.eye(k)
    rhs = np.concatenate([-problem.q, bounds])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a singular factor turns the solve non-finite
        factor = lu_factor(kkt, check_finite=False)
        sol = lu_solve(factor, rhs, check_finite=False)
    if not np.isfinite(sol).all():
        return None
    # The regularized matrix minus the unregularized one, as a diagonal.
    shift = np.concatenate([np.full(n, reg), np.full(k, -reg)])
    for _ in range(optim._POLISH_REFINE_STEPS):
        sol = lu_solve(factor, rhs + shift * sol, check_finite=False)
    if not np.isfinite(sol).all():
        return None
    y_pol = np.zeros(problem.n_constraints)
    y_pol[active] = sol[n:]
    signed = ~equality[active]
    y_pol[active[is_lower & signed]] = np.minimum(y_pol[active[is_lower & signed]], 0.0)
    y_pol[active[~is_lower & signed]] = np.maximum(y_pol[active[~is_lower & signed]], 0.0)
    return sol[:n], y_pol


def kkt_residuals_reference(problem, z, y=None) -> optim.KktResiduals:
    """KKT residual norms recomputed from scratch, apart from the solver's pass.

    Accepts either a Solution or an explicit primal/dual pair.  Dual
    convention: y_i >= 0 may push only on the upper bound of row i and
    y_i <= 0 only on the lower bound; stationarity reads Pz + q + A'y = 0.
    """
    if y is None:
        z, y = z.z, z.y
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.shape != (problem.n_vars,) or y.shape != (problem.n_constraints,):
        raise ValueError("solution dimensions do not match the problem")
    az = problem.A @ z
    below = np.maximum(problem.l - az, 0.0)
    above = np.maximum(az - problem.u, 0.0)
    primal = float(np.max(below + above, initial=0.0))

    dual = float(np.abs(problem.P @ z + problem.q + problem.A.T @ y).max(initial=0.0))

    y_up = np.maximum(y, 0.0)
    y_lo = np.maximum(-y, 0.0)
    # On an infinite bound any push from the dual is itself the violation.
    comp_up = y_up.copy()
    finite_u = np.isfinite(problem.u)
    comp_up[finite_u] *= np.abs(problem.u - az)[finite_u]
    comp_lo = y_lo.copy()
    finite_l = np.isfinite(problem.l)
    comp_lo[finite_l] *= np.abs(az - problem.l)[finite_l]
    comp = float(max(np.max(comp_up, initial=0.0), np.max(comp_lo, initial=0.0)))
    return optim.KktResiduals(primal=primal, dual=dual, complementarity=comp)


def kkt_tolerances_reference(problem, z, y, tol_abs: float, tol_rel: float) -> optim.KktTolerances:
    """Residual tolerances scaled the way the convergence test scales them."""
    az = problem.A @ z
    eps_pri = tol_abs + tol_rel * max(
        np.abs(az).max(initial=0.0), np.abs(z).max(initial=0.0)
    )
    eps_dua = tol_abs + tol_rel * max(
        np.abs(problem.P @ z).max(initial=0.0),
        np.abs(problem.A.T @ y).max(initial=0.0),
        np.abs(problem.q).max(initial=0.0),
    )
    eps_comp = max(1.0, np.abs(y).max(initial=0.0)) * eps_pri
    return optim.KktTolerances(primal=eps_pri, dual=eps_dua, complementarity=eps_comp)


def violations_reference(problem, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows below their lower and above their upper bound at ``z``."""
    az = problem.A @ z
    scale = 1.0 + np.abs(az).max(initial=0.0)
    return problem.l - az > 1e-9 * scale, az - problem.u > 1e-9 * scale


def write_panel_csv(panel, path) -> None:
    """A panel CSV written row by row through :mod:`csv`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            f"{label}:{kind.value}" for label, kind in zip(panel.labels, panel.kinds)
        )
        for row in panel.values:
            writer.writerow(repr(float(v)) for v in row)


def _record_line(path, index: int) -> int:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, index + 2):  # the header, then the records
            pass
        return reader.line_num


def load_panel_csv(path):
    """A panel CSV read cell by cell through :mod:`csv` and ``float``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise netgen.PanelFormatError(f"{path}: empty file") from None

        kinds = []
        labels = []
        for col, cell in enumerate(header):
            label, sep, kind_token = cell.partition(":")
            if not sep or not label:
                raise netgen.PanelFormatError(
                    f"{path}: header column {col} is not 'label:kind': {cell!r}"
                )
            try:
                kinds.append(netgen.SensorKind(kind_token))
            except ValueError:
                raise netgen.PanelFormatError(
                    f"{path}: header column {col} has unknown kind {kind_token!r}"
                ) from None
            labels.append(label)

        rows = []
        for row in reader:
            if len(row) != len(labels):
                raise netgen.PanelFormatError(
                    f"{path}: line {reader.line_num} has {len(row)} cells, "
                    f"expected {len(labels)}"
                )
            parsed = []
            for col, cell in enumerate(row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise netgen.PanelFormatError(
                        f"{path}: line {reader.line_num}, column {labels[col]!r}: "
                        f"non-numeric cell {cell!r}"
                    ) from None
            rows.append(parsed)

    if not rows:
        raise netgen.PanelFormatError(f"{path}: no data rows")
    values = np.array(rows)
    non_finite = np.argwhere(~np.isfinite(values))
    if non_finite.size:
        i, col = non_finite[0]
        raise netgen.PanelFormatError(
            f"{path}: line {_record_line(path, i)}, column {labels[col]!r}: "
            f"non-finite cell {float(values[i, col])!r}"
        )
    return netgen.ReadingsPanel(values=values, kinds=tuple(kinds), labels=tuple(labels))


def mixing_matrix_reference(rng, n_sensors: int, latent_dim: int, phasor):
    """The mixing-matrix sampler one candidate at a time, as the panel
    format was first written: each row draws normal candidates until one
    scores 0.0, at most 80, keeping the first of the lowest score."""
    phasor_norm = np.linalg.norm(phasor)
    rows = np.empty((n_sensors, latent_dim))
    for i in range(n_sensors):
        best = None
        best_score = np.inf
        for _ in range(80):
            cand = rng.normal(size=latent_dim)
            cand /= np.linalg.norm(cand)
            score = 0.0
            if i and latent_dim > 1:
                worst = np.abs(rows[:i] @ cand).max()
                score += max(0.0, worst - netgen._MAX_ROW_COSINE)
            if latent_dim > 1 and phasor_norm > 0:
                share = abs(cand @ phasor) / phasor_norm
                score += max(0.0, netgen._SINE_SHARE[0] - share)
                score += max(0.0, share - netgen._SINE_SHARE[1])
            if score < best_score:
                best, best_score = cand, score
            if score == 0.0:
                break
        rows[i] = best
    gains = rng.uniform(*netgen._MIXING_GAIN, size=n_sensors)
    matrix = rows * gains[:, None]
    if np.linalg.matrix_rank(matrix) < latent_dim:
        raise RuntimeError("mixing matrix is rank deficient")
    return matrix
