"""Dense operator-splitting solver for QPs and LPs in two-sided form.

Problems are ``minimize 0.5 z'Pz + q'z subject to l <= Az <= u`` with P
symmetric positive semidefinite (P = 0 gives an LP).  One alternating-
direction iteration with over-relaxation covers both cases; converged
solutions are polished on the active set and certified by independently
recomputed KKT residuals before they may be reported as optimal.

A sequence of closely related problems (the same program at consecutive
alarm steps) can pass the previous :class:`Solution` as ``warm_start``.
The solver first re-solves on that solution's active set and returns the
result with zero iterations only if it passes the strict KKT test; on a
miss it runs the cold iteration unchanged, so the result is then exactly
what a cold solve gives.

Problem sizes here are small (tens of variables), so all linear algebra is
dense and each solver instance is single-threaded; run solves concurrently
for throughput.
"""

from __future__ import annotations

import contextlib
import copy
import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

# LAPACK bound directly: scipy.linalg's wrappers cost more per call than the
# factorizations of these tens-of-rows systems.
_potrf, _potrs, _getrf, _getrs, _geqp3 = get_lapack_funcs(
    ("potrf", "potrs", "getrf", "getrs", "geqp3"), dtype=np.float64
)

DEFAULT_TOL_ABS = 1e-7
DEFAULT_TOL_REL = 1e-7
DEFAULT_MAX_ITERS = 20_000

_SIGMA = 1e-6  # x-step regularization
_ALPHA = 1.6  # over-relaxation
_RHO_INITIAL = 0.1
_RHO_MIN, _RHO_MAX = 1e-6, 1e6
_RHO_EQUALITY_BOOST = 1e3
_EQUALITY_GAP = 1e-9
_CHECK_INTERVAL = 25
_ADAPT_INTERVAL = 100  # doubles after every update so iterates can settle
_ADAPT_TRIGGER = 5.0
_INFEAS_TOL = 1e-7
_POLISH_REG = 1e-6
_POLISH_REFINE_STEPS = 3
_EARLY_POLISH_WINDOW = 1e3  # try polishing within 3 orders of the target
_EARLY_POLISH_INTERVAL = 100


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITERS = "max_iters"
    INFEASIBLE = "infeasible"


class KktResiduals(NamedTuple):
    primal: float
    dual: float
    complementarity: float


class KktTolerances(NamedTuple):
    primal: float
    dual: float
    complementarity: float


@dataclass(frozen=True)
class ConvexProblem:
    """Standard-form problem data; validated once at construction."""

    P: np.ndarray
    q: np.ndarray
    A: np.ndarray
    l: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        P = np.ascontiguousarray(self.P, dtype=float)
        q = np.ascontiguousarray(self.q, dtype=float)
        A = np.ascontiguousarray(self.A, dtype=float)
        n = q.shape[0]
        if P.shape != (n, n):
            raise ValueError(f"P must be {n}x{n}, got {P.shape}")
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError(f"A must have {n} columns, got {A.shape}")
        if not np.isfinite(P).all() or not np.isfinite(q).all() or not np.isfinite(A).all():
            raise ValueError("P, q, A must be finite")
        if P.any():
            if not np.allclose(P, P.T, atol=1e-10):
                raise ValueError("P must be symmetric")
            scale = max(1.0, float(np.abs(P).max()))
            if np.linalg.eigvalsh(P).min() < -1e-9 * scale:
                raise ValueError("P must be positive semidefinite")
        for name, arr in (("P", P), ("q", q), ("A", A)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        self._set_bounds(self.l, self.u)

    def _set_bounds(self, l, u) -> None:
        l = np.ascontiguousarray(l, dtype=float)
        u = np.ascontiguousarray(u, dtype=float)
        m = self.A.shape[0]
        if l.shape != (m,) or u.shape != (m,):
            raise ValueError("l and u must match the constraint row count")
        if (l > u).any():
            raise ValueError("constraint bounds require l <= u elementwise")
        if (l == np.inf).any() or (u == -np.inf).any():
            raise ValueError("l must be < +inf and u > -inf")
        for name, arr in (("l", l), ("u", u)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def with_bounds(self, l: np.ndarray, u: np.ndarray) -> "ConvexProblem":
        """The same P, q and A (shared, not copied) with new bounds.

        Only the bounds are validated: a program whose snapshot enters
        through its bounds alone pays the P, q, A checks once.
        """
        problem = copy.copy(self)
        problem._set_bounds(l, u)
        return problem

    @staticmethod
    def linear(q: np.ndarray, A: np.ndarray, l: np.ndarray, u: np.ndarray) -> "ConvexProblem":
        q = np.asarray(q, dtype=float)
        return ConvexProblem(P=np.zeros((q.shape[0], q.shape[0])), q=q, A=A, l=l, u=u)

    @property
    def n_vars(self) -> int:
        return self.q.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.A.shape[0]

    def objective(self, z: np.ndarray) -> float:
        return float(0.5 * z @ self.P @ z + self.q @ z)


class _KktFactor(NamedTuple):
    """LU factors of a polished KKT system, with what fixes its matrix.

    The matrix depends only on P, A and the kept active rows; P and A are
    compared by identity, which holds for problems made by
    :meth:`ConvexProblem.with_bounds` (their arrays are shared and read-only).
    """

    P: np.ndarray
    A: np.ndarray
    active: np.ndarray  # kept active rows, in KKT order
    lu: np.ndarray
    piv: np.ndarray
    exact: np.ndarray  # the unregularized matrix, for refinement

    def fits(self, problem: ConvexProblem, active: np.ndarray) -> bool:
        return (
            self.P is problem.P
            and self.A is problem.A
            and np.array_equal(self.active, active)
        )


@dataclass(frozen=True)
class Solution:
    z: np.ndarray
    y: np.ndarray
    objective: float
    status: SolveStatus
    iterations: int
    kkt: KktResiduals
    kkt_tol: KktTolerances
    # Kept by warm-started solves only, for the next solve of their chain.
    _kkt: _KktFactor | None = field(default=None, repr=False, compare=False)


# Optional per-process sinks receiving a record for every completed solve.
_audit_sinks: list[list] = []


class SolveRecord(NamedTuple):
    status: SolveStatus
    iterations: int
    objective: float
    kkt: KktResiduals
    kkt_tol: KktTolerances


@dataclass(frozen=True)
class SolveAudit:
    """Summary of the :class:`SolveRecord` list of one unit of work."""

    solves: int = 0
    non_optimal: int = 0
    max_primal_ratio: float = 0.0
    max_dual_ratio: float = 0.0
    max_comp_ratio: float = 0.0

    @staticmethod
    def from_records(records) -> "SolveAudit":
        non_optimal = 0
        worst = [0.0, 0.0, 0.0]  # primal, dual, complementarity
        for rec in records:
            non_optimal += rec.status is not SolveStatus.OPTIMAL
            worst = [max(w, r / t) for w, r, t in zip(worst, rec.kkt, rec.kkt_tol)]
        return SolveAudit(len(records), non_optimal, *worst)

    def merge(self, other: "SolveAudit") -> "SolveAudit":
        return SolveAudit(
            solves=self.solves + other.solves,
            non_optimal=self.non_optimal + other.non_optimal,
            max_primal_ratio=max(self.max_primal_ratio, other.max_primal_ratio),
            max_dual_ratio=max(self.max_dual_ratio, other.max_dual_ratio),
            max_comp_ratio=max(self.max_comp_ratio, other.max_comp_ratio),
        )

    @property
    def max_ratio(self) -> float:
        return max(self.max_primal_ratio, self.max_dual_ratio, self.max_comp_ratio)


@contextlib.contextmanager
def audit_solves():
    """Collect a :class:`SolveRecord` for every solve inside the block.

    Blocks nest: every open block receives the records of its solves.
    """
    records: list[SolveRecord] = []
    _audit_sinks.append(records)
    try:
        yield records
    finally:
        # By identity: sinks holding the same records compare equal.
        index = next(i for i, sink in enumerate(_audit_sinks) if sink is records)
        del _audit_sinks[index]


def kkt_residuals(problem: ConvexProblem, z, y: np.ndarray | None = None) -> KktResiduals:
    """Recompute KKT residual norms from scratch, independent of the solver.

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
    return KktResiduals(primal=primal, dual=dual, complementarity=comp)


def kkt_tolerances(
    problem: ConvexProblem,
    z: np.ndarray,
    y: np.ndarray,
    tol_abs: float,
    tol_rel: float,
) -> KktTolerances:
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
    return KktTolerances(primal=eps_pri, dual=eps_dua, complementarity=eps_comp)


class _Certificate(NamedTuple):
    """Independently recomputed residuals at a point, with their tolerances."""

    kkt: KktResiduals
    tol: KktTolerances

    def passes(self, scale: float = 1.0) -> bool:
        """Every residual within ``scale`` times its tolerance."""
        return all(r <= scale * t for r, t in zip(self.kkt, self.tol))

    @property
    def ratio(self) -> float:
        """Worst residual in units of its own tolerance."""
        return max(r / t for r, t in zip(self.kkt, self.tol))


def _rho_vector(problem: ConvexProblem, base: float) -> np.ndarray:
    rho = np.full(problem.n_constraints, base)
    equality = (problem.u - problem.l) <= _EQUALITY_GAP
    rho[equality] = np.clip(base * _RHO_EQUALITY_BOOST, _RHO_MIN, _RHO_MAX)
    loose = np.isneginf(problem.l) & np.isposinf(problem.u)
    rho[loose] = _RHO_MIN
    return rho


def _factorize_scaled(P_s: np.ndarray, A: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the x-step matrix, for :func:`_potrs`."""
    K = P_s + _SIGMA * np.eye(P_s.shape[0]) + (A.T * rho) @ A
    factor, info = _potrf(K, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the x-step matrix is not positive definite"
        )
    return factor


def _primal_infeasibility_certificate(problem: ConvexProblem, dy: np.ndarray) -> bool:
    norm = np.abs(dy).max(initial=0.0)
    if norm <= 1e-12:
        return False
    v = dy / norm
    if np.abs(problem.A.T @ v).max(initial=0.0) > _INFEAS_TOL:
        return False
    v_up = np.clip(v, 0.0, None)
    v_lo = np.clip(v, None, 0.0)
    if np.any((v_up > _INFEAS_TOL) & np.isposinf(problem.u)):
        return False
    if np.any((v_lo < -_INFEAS_TOL) & np.isneginf(problem.l)):
        return False
    gap = float(
        np.sum(np.where(np.isfinite(problem.u), problem.u, 0.0) * v_up)
        + np.sum(np.where(np.isfinite(problem.l), problem.l, 0.0) * v_lo)
    )
    return gap < -_INFEAS_TOL


def _dual_infeasibility_certificate_scaled(
    problem: ConvexProblem, P_s: np.ndarray, q_s: np.ndarray, dx: np.ndarray
) -> bool:
    norm = np.abs(dx).max(initial=0.0)
    if norm <= 1e-12:
        return False
    v = dx / norm
    if q_s @ v > -_INFEAS_TOL:
        return False
    if np.abs(P_s @ v).max(initial=0.0) > _INFEAS_TOL:
        return False
    av = problem.A @ v
    if np.any((av > _INFEAS_TOL) & np.isfinite(problem.u)):
        return False
    if np.any((av < -_INFEAS_TOL) & np.isfinite(problem.l)):
        return False
    return True


def _factor_kkt(problem: ConvexProblem, active: np.ndarray, a_red: np.ndarray) -> _KktFactor:
    """LU factors of the regularized KKT system on the kept active rows."""
    n, k = problem.n_vars, active.shape[0]
    size = n + k
    diag = np.arange(size)
    kkt = np.zeros((size, size))
    # Adding 0.0 turns -0.0 entries of P into +0.0, so the block equals
    # P + _POLISH_REG * I bit for bit, as the lower block equals
    # -_POLISH_REG * I, signed zeros included.
    np.add(problem.P, 0.0, out=kkt[:n, :n])
    kkt[diag[:n], diag[:n]] += _POLISH_REG
    if k:
        kkt[:n, n:] = a_red.T
        kkt[n:, :n] = a_red
        kkt[n:, n:] = -0.0
        kkt[diag[n:], diag[n:]] = -_POLISH_REG
    exact = kkt.copy()
    exact[diag[:n], diag[:n]] -= _POLISH_REG
    exact[n:, n:] = 0.0
    lu, piv, _ = _getrf(kkt)
    return _KktFactor(problem.P, problem.A, active, lu, piv, exact)


def _active_set_solve(
    problem: ConvexProblem,
    y: np.ndarray,
    lower_active: np.ndarray,
    upper_active: np.ndarray,
    preferred: np.ndarray | None = None,
    reuse: _KktFactor | None = None,
) -> tuple[np.ndarray, np.ndarray, _KktFactor] | None:
    """Equality-solve with the given rows pinned to their bounds.

    Degenerate guesses can pin more (possibly contradictory) rows than there
    are variables; a pivoted QR keeps a linearly independent subset, with
    pivot priority given by dual magnitude so noise-level duals are the ones
    dropped.  ``preferred`` rows (from a repair round) outrank everything.
    ``reuse``, the factors of an earlier solve, replaces the factorization
    when its matrix is this one.  Returns the point and the factors used.
    """
    n = problem.n_vars
    active = np.concatenate([lower_active, upper_active])
    is_lower = np.concatenate(
        [np.ones(lower_active.shape[0], bool), np.zeros(upper_active.shape[0], bool)]
    )
    a_red = problem.A[active]
    bounds = np.concatenate([problem.l[lower_active], problem.u[upper_active]])

    if active.shape[0]:
        strength = np.abs(y[active])
        weights = np.clip(strength / max(strength.max(initial=0.0), 1e-300), 1e-6, None)
        if preferred is not None and preferred.size:
            weights[np.isin(active, preferred)] = 1e6
        weighted = a_red.T * weights
        # Query the workspace first, as scipy.linalg.qr does: dgeqp3 picks
        # its blocking from lwork, so this keeps the pivots of that call.
        lwork = int(_geqp3(weighted, lwork=-1)[3][0])
        r_packed, pivots, *_ = _geqp3(weighted, lwork=lwork)
        diag = np.abs(np.diag(r_packed))
        cutoff = diag.max(initial=0.0) * 1e-12
        rank = int((diag > cutoff).sum())
        keep = np.sort(pivots[:rank] - 1)
        active, is_lower = active[keep], is_lower[keep]
        a_red, bounds = a_red[keep], bounds[keep]

    # The same matrix gives the same factors, so reuse changes no bit.
    if reuse is not None and reuse.fits(problem, active):
        factor = reuse
    else:
        factor = _factor_kkt(problem, active, a_red)
    rhs = np.concatenate([-problem.q, bounds])
    # A singular system leaves a zero pivot, so the solve turns non-finite.
    sol = _getrs(factor.lu, factor.piv, rhs)[0]
    if not np.isfinite(sol).all():
        return None

    # Iterative refinement against the unregularized KKT system.
    for _ in range(_POLISH_REFINE_STEPS):
        residual = rhs - factor.exact @ sol
        sol = sol + _getrs(factor.lu, factor.piv, residual)[0]

    if not np.isfinite(sol).all():
        return None
    x_pol = sol[:n]
    y_pol = np.zeros(problem.n_constraints)
    y_pol[active] = sol[n:]
    # Enforce the sign convention; wrong-signed duals mean a bad active set.
    y_pol[active[is_lower]] = np.minimum(y_pol[active[is_lower]], 0.0)
    y_pol[active[~is_lower]] = np.maximum(y_pol[active[~is_lower]], 0.0)
    return x_pol, y_pol, factor


def _polish(
    problem: ConvexProblem,
    y: np.ndarray,
    tol_abs: float,
    tol_rel: float,
    reuse: _KktFactor | None,
) -> tuple[np.ndarray, np.ndarray, _Certificate, _KktFactor] | None:
    """Re-solve on the active set guessed from dual signs; None on failure.

    A wrong guess shows up as bound violations at the re-solved point; up to
    two repair rounds add the violated rows and try again.  The round with
    the smallest raw residual is returned with its certificate and the KKT
    factors it was solved with; ``reuse`` is offered to every round.
    """
    # A dual pushing on an infinite bound is iterate noise, never active.
    lower = (y < 0) & np.isfinite(problem.l)
    upper = (y > 0) & np.isfinite(problem.u)
    best = None
    best_score = np.inf
    preferred = np.empty(0, dtype=int)
    for _ in range(3):
        result = _active_set_solve(
            problem, y, np.flatnonzero(lower), np.flatnonzero(upper), preferred, reuse
        )
        if result is None:
            break
        kkt = kkt_residuals(problem, *result[:2])
        if max(kkt) < best_score:
            best, best_score = (*result, kkt), max(kkt)
        az = problem.A @ result[0]
        scale = 1.0 + np.abs(az).max(initial=0.0)
        below = problem.l - az > 1e-9 * scale
        above = az - problem.u > 1e-9 * scale
        violated = np.flatnonzero(below | above)
        if not violated.size or np.isin(violated, preferred).all():
            break
        lower, upper = lower | below, upper | above
        preferred = np.union1d(preferred, violated)
    if best is None:
        return None
    z_pol, y_pol, factor, kkt = best
    tol = kkt_tolerances(problem, z_pol, y_pol, tol_abs, tol_rel)
    return z_pol, y_pol, _Certificate(kkt, tol), factor


def solve(
    problem: ConvexProblem,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    max_iters: int = DEFAULT_MAX_ITERS,
    warm_start: Solution | None = None,
) -> Solution:
    """Solve the problem; the result is a pure function of its arguments.

    Optimality is declared only when independently recomputed KKT residuals
    pass within 10x the scaled convergence tolerances; otherwise the status
    reports iteration exhaustion.  A divergence certificate (infeasible or
    unbounded problem) is reported as infeasible, never silently.

    ``warm_start``, a solution of a problem of the same shape, is tried
    first: a re-solve on its active set is returned with zero iterations if
    it passes the strict KKT test, and otherwise ignored.  A warm-started
    solve keeps the KKT factors of its polished point in the solution, and
    any polish of the next warm-started solve whose KKT matrix is the same
    (same P and A arrays, same kept active rows) reuses them.  A cold
    solve keeps none: callers may hold many cold solutions side by side.
    """
    if tol_abs <= 0 or tol_rel < 0:
        raise ValueError("tolerances must be positive")
    n, m = problem.n_vars, problem.n_constraints
    chained = warm_start is not None
    reuse = None
    if chained:
        if warm_start.z.shape != (n,) or warm_start.y.shape != (m,):
            raise ValueError(
                f"warm start has {warm_start.z.shape[0]} variables and "
                f"{warm_start.y.shape[0]} constraints, the problem {n} and {m}"
            )
        reuse = warm_start._kkt
        guess = _polish(problem, warm_start.y, tol_abs, tol_rel, reuse)
        if guess is not None and guess[2].passes():
            return _finish(problem, *guess, SolveStatus.OPTIMAL, 0, chained)

    A = problem.A
    # Normalize the objective so large penalty weights cannot unbalance the
    # iteration; primal iterates are unaffected, duals scale by 1/cost.
    cost = max(
        1.0,
        float(np.abs(problem.q).max(initial=0.0)),
        float(np.abs(problem.P).max(initial=0.0)),
    )
    P_s = problem.P / cost
    q_s = problem.q / cost
    q_norm = np.abs(q_s).max(initial=0.0)
    base_rho = _RHO_INITIAL
    rho = _rho_vector(problem, base_rho)
    factor = _factorize_scaled(P_s, A, rho)

    x = np.zeros(n)
    z = np.zeros(m)
    y = np.zeros(m)

    status = SolveStatus.MAX_ITERS
    iterations = max_iters
    infeasible_streak = 0
    adapt_interval = _ADAPT_INTERVAL
    adapt_due = adapt_interval
    polish_due = 0
    for it in range(1, max_iters + 1):
        rhs = _SIGMA * x - q_s + A.T @ (rho * z - y)
        x_tilde = _potrs(factor, rhs, lower=1)[0]
        z_tilde = A @ x_tilde

        x_new = _ALPHA * x_tilde + (1.0 - _ALPHA) * x
        w = _ALPHA * z_tilde + (1.0 - _ALPHA) * z
        v = w + y / rho
        z_new = np.minimum(np.maximum(v, problem.l), problem.u)
        y_new = y + rho * (w - z_new)

        checking = it % _CHECK_INTERVAL == 0 or it == max_iters
        if checking:
            dx = x_new - x
            dy = y_new - y
        x, z, y = x_new, z_new, y_new

        if checking:
            ax = A @ x
            pri = np.abs(ax - z).max(initial=0.0)
            pri_norm = max(np.abs(ax).max(initial=0.0), np.abs(z).max(initial=0.0))
            eps_pri = tol_abs + tol_rel * pri_norm
            px = P_s @ x
            aty = A.T @ y
            dua = np.abs(px + q_s + aty).max(initial=0.0)
            dua_norm = max(np.abs(px).max(initial=0.0), np.abs(aty).max(initial=0.0), q_norm)
            eps_dua = tol_abs + tol_rel * dua_norm
            if pri <= eps_pri and dua <= eps_dua:
                status = SolveStatus.OPTIMAL
                iterations = it
                break
            # Degenerate problems crawl near the optimum; an active-set
            # re-solve from a close-enough iterate finishes them exactly.
            pri_scale = max(pri_norm, 1e-12)
            dua_scale = max(dua_norm, 1e-12)
            if (
                it >= polish_due
                and pri <= max(_EARLY_POLISH_WINDOW * eps_pri, 1e-3 * pri_scale)
                and dua <= max(_EARLY_POLISH_WINDOW * eps_dua, 1e-3 * dua_scale)
            ):
                polish_due = it + _EARLY_POLISH_INTERVAL
                early = _polish(problem, y * cost, tol_abs, tol_rel, reuse)
                if early is not None and early[2].passes():
                    return _finish(problem, *early, SolveStatus.OPTIMAL, it, chained)
            # A transient noise direction can mimic a divergence certificate;
            # only two consecutive confirming checks count.
            if _primal_infeasibility_certificate(problem, dy) or (
                _dual_infeasibility_certificate_scaled(problem, P_s, q_s, dx)
            ):
                infeasible_streak += 1
                if infeasible_streak >= 2:
                    status = SolveStatus.INFEASIBLE
                    iterations = it
                    break
            else:
                infeasible_streak = 0
            if it >= adapt_due:
                adapt_due = it + adapt_interval
                # residual balancing on iterate-scaled norms
                ratio = float(np.sqrt((pri / pri_scale) / max(dua / dua_scale, 1e-30)))
                if ratio > _ADAPT_TRIGGER or ratio < 1.0 / _ADAPT_TRIGGER:
                    ratio = float(np.clip(ratio, 0.01, 100.0))
                    base_rho = float(np.clip(base_rho * ratio, _RHO_MIN, _RHO_MAX))
                    rho = _rho_vector(problem, base_rho)
                    factor = _factorize_scaled(P_s, A, rho)
                    adapt_interval *= 2
                    adapt_due = it + adapt_interval

    y = y * cost  # undo objective normalization on the duals

    cert = _Certificate(
        kkt_residuals(problem, x, y), kkt_tolerances(problem, x, y, tol_abs, tol_rel)
    )
    kkt_factor = None  # an unpolished point has none
    if status is SolveStatus.OPTIMAL:
        polished = _polish(problem, y, tol_abs, tol_rel, reuse)
        # Compare in tolerance units: the raw residuals differ in scale.
        if polished is not None and polished[2].ratio <= cert.ratio:
            x, y, cert, kkt_factor = polished
        if not cert.passes(10.0):
            status = SolveStatus.MAX_ITERS
    return _finish(problem, x, y, cert, kkt_factor, status, iterations, chained)


def _finish(
    problem: ConvexProblem,
    z: np.ndarray,
    y: np.ndarray,
    cert: _Certificate,
    kkt_factor: _KktFactor | None,
    status: SolveStatus,
    iterations: int,
    chained: bool,
) -> Solution:
    objective = np.inf if status is SolveStatus.INFEASIBLE else problem.objective(z)
    solution = Solution(
        z=z,
        y=y,
        objective=objective,
        status=status,
        iterations=iterations,
        kkt=cert.kkt,
        kkt_tol=cert.tol,
        _kkt=kkt_factor if chained else None,
    )
    _record(solution)
    return solution


def _record(solution: Solution) -> None:
    if _audit_sinks:
        record = SolveRecord(
            status=solution.status,
            iterations=solution.iterations,
            objective=solution.objective,
            kkt=solution.kkt,
            kkt_tol=solution.kkt_tol,
        )
        for sink in _audit_sinks:
            sink.append(record)
