"""Dense operator-splitting solver for QPs and LPs in two-sided form.

Problems are ``minimize 0.5 z'Pz + q'z subject to l <= Az <= u`` with P
symmetric positive semidefinite (P = 0 gives an LP).  One alternating-
direction iteration with over-relaxation covers both cases.  Between two
step-size (rho) updates that iteration is an affine map of the state
``[x; z; y]`` followed by a projection onto the bounds, so it runs as one
matrix-vector product with a matrix built once per rho.  Iterates near
convergence are polished on the active set, and a point is reported as
optimal only when independently recomputed KKT residuals pass their
tolerances; until one does, the iteration goes on.

A sequence of closely related problems (the same program at consecutive
alarm steps) can pass the previous :class:`Solution` as ``warm_start``.
The solver first re-solves on that solution's active set and returns the
result with zero iterations if it passes; on a miss it runs the cold
iteration, whose polish can run other rounds than a first solve's: the
missed re-solve has updated the family's kept KKT factors (below).  A
caller that knows the optimal vertex in closed form (a one-row l1/abs
counterfactual) passes its dual signs privately instead, and the solver
starts from them in the same way.  With its rows fixed, a refined
active-set re-solve is affine in the pinned bounds, so a re-solve from
such a guess reads its point off the row set's affine map: one gather and
one matrix-vector product.  Polishes of ADMM iterates solve through the
LU factors instead.  Every point is certified from P, q, A, l and u, never
through a map.

The problems :meth:`ConvexProblem.with_bounds` makes from one base share
its P, q and A, and with them two kinds of factorization: the KKT factors
of the last ``_KKT_KEPT`` active row sets their polishes used (each with
its affine map once a guess has pinned it), and the iteration map of the
ADMM start, keyed by the starting rho vector.  So a family of such
problems factors a KKT matrix only when a polish pins rows none of its
kept factors holds, and starts ADMM without factoring when its bounds give
the same equality and free rows.  Solutions are plain data and hold no
factors.

Problem sizes here are small (tens of variables), so all linear algebra is
dense and each solver instance is single-threaded; run solves concurrently
for throughput.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def _bound_on_first_call(name: str):
    """Stand-in for the float64 LAPACK routine ``name`` until its first call.

    The call imports scipy's LAPACK bindings, puts the routine in place of
    the stand-in (unless something else has taken the module name since)
    and runs it; later calls through the module name reach the routine
    directly.
    """
    routine = None

    def stand_in(*args, **kwargs):
        nonlocal routine
        if routine is None:
            from scipy.linalg.lapack import get_lapack_funcs

            (routine,) = get_lapack_funcs((name,), dtype=np.float64)
        if globals()["_" + name] is stand_in:
            globals()["_" + name] = routine
        return routine(*args, **kwargs)

    return stand_in


# LAPACK bound directly: scipy.linalg's wrappers cost more per call than the
# factorizations of these tens-of-rows systems.  Each routine is bound on its
# first use, so importing this module (and every command that solves
# nothing) loads no scipy module.
_potrf, _potrs, _getrf, _getrs, _getri, _geqp3 = map(
    _bound_on_first_call, ("potrf", "potrs", "getrf", "getrs", "getri", "geqp3")
)

DEFAULT_TOL_ABS = 1e-7
DEFAULT_TOL_REL = 1e-7
DEFAULT_MAX_ITERS = 20_000

_SIGMA = 1e-6  # x-step regularization
_ALPHA = 1.6  # over-relaxation
_RHO_INITIAL = 0.1
_RHO_MIN, _RHO_MAX = 1e-6, 1e6
_RHO_EQUALITY_BOOST = 1e3
_CHECK_INTERVAL = 25
_ADAPT_INTERVAL = 100  # doubles after every update so iterates can settle
_ADAPT_TRIGGER = 5.0
_INFEAS_TOL = 1e-7
_POLISH_REG = 1e-6
_POLISH_REFINE_STEPS = 3
_POLISH_ROUNDS = 3  # rounds before any release; twice this in all
_EARLY_POLISH_WINDOW = 1e3  # try polishing within 3 orders of the target
# KKT factors a problem family keeps.  Its polishes alternate between a few
# row sets one row apart; each kept factor costs (n + k)^2 doubles.
_KKT_KEPT = 4


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
        # Copies, so freezing them leaves the caller's arrays writable and
        # no later write to those arrays can reach the problem.
        P = np.array(self.P, dtype=float, order="C")
        q = np.array(self.q, dtype=float, order="C")
        A = np.array(self.A, dtype=float, order="C")
        if q.ndim != 1:
            raise ValueError(f"q must be a vector, got shape {q.shape}")
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
        # Shared by the with_bounds family: {kept rows as bytes: _KktFactor}
        # for up to _KKT_KEPT row sets, least recently used first; {starting
        # rho as bytes: iteration map (T, c)} of its latest ADMM start; and
        # max |q|.
        object.__setattr__(self, "_kkt_slot", {})
        object.__setattr__(self, "_x_step_slot", {})
        object.__setattr__(self, "_q_norm", np.abs(q).max(initial=0.0))
        self._set_bounds(self.l, self.u)

    def _set_bounds(self, l, u) -> None:
        l = np.array(l, dtype=float, order="C")
        u = np.array(u, dtype=float, order="C")
        m = self.A.shape[0]
        if l.shape != (m,) or u.shape != (m,):
            raise ValueError("l and u must match the constraint row count")
        if not (l <= u).all():  # also false where a bound is NaN
            if np.isnan(l).any() or np.isnan(u).any():
                raise ValueError("constraint bounds must not be NaN")
            raise ValueError("constraint bounds require l <= u elementwise")
        if (l == np.inf).any() or (u == -np.inf).any():
            raise ValueError("l must be < +inf and u > -inf")
        for name, arr in (("l", l), ("u", u)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # Row masks polishing reads on every call: finite bounds, and
        # equality rows (None when there are none), whose multiplier is
        # free in sign.
        equality = l == u
        object.__setattr__(self, "_finite_l", np.isfinite(l))
        object.__setattr__(self, "_finite_u", np.isfinite(u))
        object.__setattr__(self, "_equality", equality if equality.any() else None)

    def with_bounds(self, l: np.ndarray, u: np.ndarray) -> "ConvexProblem":
        """The same P, q and A (shared, not copied) with new bounds.

        Only the bounds are validated: a program whose snapshot enters
        through its bounds alone pays the P, q, A checks once.  The copy
        also shares this problem's factorizations.  The polishing factors
        depend on P, A and the kept active rows alone (their affine maps on
        q too), and the starting iteration map on P, q, A and the rows that
        l and u make equalities or leave free: a solve of either problem
        reuses the factors the other left when those match.  The family
        keeps the factors of its ``_KKT_KEPT`` most recently used row sets,
        and a polish that pins one of those sets again keeps it whole,
        without a new row selection (see :func:`_active_set_solve`).
        """
        problem = object.__new__(ConvexProblem)
        problem.__dict__.update(self.__dict__)
        problem._set_bounds(l, u)
        return problem

    @staticmethod
    def linear(q: np.ndarray, A: np.ndarray, l: np.ndarray, u: np.ndarray) -> "ConvexProblem":
        q = np.asarray(q, dtype=float)
        return ConvexProblem(P=np.zeros((q.size, q.size)), q=q, A=A, l=l, u=u)

    @property
    def n_vars(self) -> int:
        return self.q.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.A.shape[0]

    def objective(self, z: np.ndarray) -> float:
        return float(0.5 * z @ self.P @ z + self.q @ z)


class _KktFactor(NamedTuple):
    """LU factors of a regularized KKT system, which also serve its refinement.

    ``map``, once a polish from a caller's guess has pinned these rows, is
    their affine map (see :func:`_kkt_map`).
    """

    lu: np.ndarray
    piv: np.ndarray
    map: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class Solution:
    """A solve's result and how it was reached.

    ``path`` names the point returned: ``warm`` (the active set of the
    warm start, or of the caller's closed-form vertex guess, re-solved, no
    iterations), ``early_polish`` (an active-set re-solve
    during the ADMM loop), ``final_polish`` (the re-solve after ADMM
    converged) or ``admm`` (the ADMM iterate itself, unpolished).
    """

    z: np.ndarray
    y: np.ndarray
    objective: float
    status: SolveStatus
    iterations: int
    kkt: KktResiduals
    kkt_tol: KktTolerances
    path: str


@dataclass(frozen=True)
class SolveAudit:
    """Summary of the :class:`Solution` list of one unit of work."""

    solves: int = 0
    non_optimal: int = 0
    max_ratio: float = 0.0  # worst residual over its tolerance, any component

    @staticmethod
    def from_records(records) -> "SolveAudit":
        non_optimal, worst = 0, 0.0
        for rec in records:
            non_optimal += rec.status is not SolveStatus.OPTIMAL
            worst = max(worst, _Certificate(rec.kkt, rec.kkt_tol).ratio)
        return SolveAudit(len(records), non_optimal, worst)

    def merge(self, other: "SolveAudit") -> "SolveAudit":
        return SolveAudit(
            self.solves + other.solves,
            self.non_optimal + other.non_optimal,
            max(self.max_ratio, other.max_ratio),
        )


def kkt_residuals(problem: ConvexProblem, z, y: np.ndarray | None = None) -> KktResiduals:
    """KKT residual norms at a point, as the solver certifies them.

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
    return _kkt_pass(problem, z, y, 0.0, 0.0)[0]


def _kkt_pass(
    problem: ConvexProblem, z: np.ndarray, y: np.ndarray, tol_abs: float, tol_rel: float
) -> tuple[KktResiduals, KktTolerances, np.ndarray, np.ndarray]:
    """Everything certification reads at (z, y), from one A z, P z and A'y.

    Returns the KKT residuals, their tolerances, and the rows below their
    lower and above their upper bound by more than 1e-9 (1 + max |A z|).
    """
    az = problem.A @ z
    pz = problem.P @ z
    aty = problem.A.T @ y
    to_lower = problem.l - az
    past_upper = az - problem.u
    primal = float(np.max(np.maximum(to_lower, 0.0) + np.maximum(past_upper, 0.0), initial=0.0))

    dual = float(np.abs(pz + problem.q + aty).max(initial=0.0))

    # On an infinite bound any push from the dual is itself the violation.
    comp_up = np.maximum(y, 0.0)
    comp_up[problem._finite_u] *= np.abs(past_upper)[problem._finite_u]
    comp_lo = np.maximum(-y, 0.0)
    comp_lo[problem._finite_l] *= np.abs(to_lower)[problem._finite_l]
    comp = float(max(np.max(comp_up, initial=0.0), np.max(comp_lo, initial=0.0)))

    az_norm = np.abs(az).max(initial=0.0)
    eps_pri = tol_abs + tol_rel * max(az_norm, np.abs(z).max(initial=0.0))
    eps_dua = tol_abs + tol_rel * max(
        np.abs(pz).max(initial=0.0), np.abs(aty).max(initial=0.0), problem._q_norm
    )
    eps_comp = max(1.0, np.abs(y).max(initial=0.0)) * eps_pri
    gap = 1e-9 * (1.0 + az_norm)
    return (
        KktResiduals(primal=primal, dual=dual, complementarity=comp),
        KktTolerances(primal=eps_pri, dual=eps_dua, complementarity=eps_comp),
        to_lower > gap,
        past_upper > gap,
    )


class _Certificate(NamedTuple):
    """Residuals recomputed at a point from the problem data, with their tolerances."""

    kkt: KktResiduals
    tol: KktTolerances

    def passes(self) -> bool:
        """Every residual within its tolerance."""
        return all(r <= t for r, t in zip(self.kkt, self.tol))

    @classmethod
    def at(cls, problem: ConvexProblem, z, y, tol_abs: float, tol_rel: float) -> "_Certificate":
        return cls(*_kkt_pass(problem, z, y, tol_abs, tol_rel)[:2])

    @property
    def ratio(self) -> float:
        """Worst residual in units of its own tolerance."""
        return max(r / t for r, t in zip(self.kkt, self.tol))


def _rho_vector(problem: ConvexProblem, base: float) -> np.ndarray:
    rho = np.full(problem.n_constraints, base)
    if problem._equality is not None:
        rho[problem._equality] = np.clip(base * _RHO_EQUALITY_BOOST, _RHO_MIN, _RHO_MAX)
    rho[~(problem._finite_l | problem._finite_u)] = _RHO_MIN  # free rows
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


def _x_step_map(
    P_s: np.ndarray, q_s: np.ndarray, A: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(T, c)`` of one ADMM iteration before its projection, at this rho.

    With K the x-step matrix and the state ``s = [x; z; y]``,
    ``T s + c = [x_new; v]``: ``x~ = K^-1 (sigma x - q_s + A'(rho z - y))``,
    ``x_new = alpha x~ + (1 - alpha) x`` and
    ``v = alpha A x~ + (1 - alpha) z + y / rho``.  The iteration then sets
    ``z = clip(v, l, u)`` and ``y = rho (v - z)``.
    """
    n, m = q_s.shape[0], A.shape[0]
    # One solve for K^-1 [A', sigma I, q_s], from the x-step Cholesky factor.
    rhs = np.empty((n, m + n + 1), order="F")
    rhs[:, :m] = A.T
    rhs[:, m : m + n] = _SIGMA * np.eye(n)
    rhs[:, -1] = q_s
    solved = _potrs(_factorize_scaled(P_s, A, rho), rhs, lower=1)[0]
    rows = np.vstack([solved, A @ solved])  # rows for x~ and for A x~
    inv_a, inv_sigma, inv_q = rows[:, :m], rows[:, m : m + n], rows[:, -1]
    T = np.empty((n + m, n + 2 * m))
    np.multiply(_ALPHA * rho, inv_a, out=T[:, n : n + m])
    np.multiply(-_ALPHA, inv_a, out=T[:, n + m :])
    np.multiply(_ALPHA, inv_sigma, out=T[:, :n])
    diag = np.arange(n + m)
    T[diag, diag] += 1.0 - _ALPHA
    T[diag[n:], diag[n:] + m] += 1.0 / rho
    return T, -_ALPHA * inv_q


def _primal_infeasibility_certificate(problem: ConvexProblem, dy: np.ndarray) -> bool:
    norm = np.abs(dy).max(initial=0.0)
    if norm <= 1e-12:
        return False
    v = dy / norm
    if np.abs(problem.A.T @ v).max(initial=0.0) > _INFEAS_TOL:
        return False
    v_up = np.maximum(v, 0.0)
    v_lo = np.minimum(v, 0.0)
    if np.any((v_up > _INFEAS_TOL) & ~problem._finite_u):
        return False
    if np.any((v_lo < -_INFEAS_TOL) & ~problem._finite_l):
        return False
    gap = float(
        np.sum(np.where(problem._finite_u, problem.u, 0.0) * v_up)
        + np.sum(np.where(problem._finite_l, problem.l, 0.0) * v_lo)
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
    if np.any((av > _INFEAS_TOL) & problem._finite_u):
        return False
    if np.any((av < -_INFEAS_TOL) & problem._finite_l):
        return False
    return True


def _factor_kkt(problem: ConvexProblem, a_red: np.ndarray) -> _KktFactor:
    """LU factors of the regularized KKT system on the kept active rows."""
    n, k = problem.n_vars, a_red.shape[0]
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
    lu, piv, _ = _getrf(kkt)
    return _KktFactor(lu, piv)


def _active_set_solve(
    problem: ConvexProblem,
    y: np.ndarray,
    lower_active: np.ndarray,
    upper_active: np.ndarray,
    preferred: np.ndarray | None = None,
    by_map: bool = False,
) -> tuple[np.ndarray, np.ndarray, tuple[bytes, _KktFactor], np.ndarray] | None:
    """Equality-solve with the given rows pinned to their bounds.

    Candidates that are exactly the rows of one of the problem family's kept
    KKT factors are kept whole, with those factors: a selection found them
    linearly independent.  Other candidates, which degenerate guesses can
    make more (possibly contradictory) than there are variables, go through
    a pivoted QR that keeps a linearly independent subset, with pivot
    priority given by dual magnitude so noise-level duals are the ones
    dropped; ``preferred`` rows (violated in an earlier polish round) and
    equality rows outrank everything.  A kept factor is reused whenever the
    kept rows are its rows, and the factors used become the family's most
    recently used (see :func:`_keep_last`); they also refine the
    regularized solve towards the unregularized one.  With ``by_map`` the
    refined point is instead the kept rows' affine map applied to their
    bounds (see :func:`_kkt_map`), built from the factors on the first such
    solve and kept with them.  Returns the point, the kept rows with their
    factors, and the kept rows whose dual had the wrong sign for the bound
    they were pinned to; that dual is returned as zero.  An equality row's
    dual is free in sign.
    """
    n = problem.n_vars
    active = np.concatenate([lower_active, upper_active])
    split = lower_active.shape[0]  # the rows pinned to their lower bound come first
    bounds = np.concatenate([problem.l[lower_active], problem.u[upper_active]])
    # Rows are compared as bytes: np.array_equal costs more than this check.
    rows = active.tobytes()
    slot = problem._kkt_slot
    factor = slot.pop(rows, None)
    if factor is None and active.shape[0]:
        keep = _independent_rows(problem, y, active, preferred)
        split = int(np.searchsorted(keep, split))  # keep is sorted
        active, bounds = active[keep], bounds[keep]
        rows = active.tobytes()
        factor = slot.pop(rows, None)
    # The same matrix gives the same factors, and they the same map, so
    # reuse changes no bit.
    if factor is None:
        factor = _factor_kkt(problem, problem.A[active])
    if by_map and factor.map is None:
        factor = factor._replace(map=_kkt_map(problem, factor))
    _keep_last(slot, rows, factor)
    if by_map:
        M, c0 = factor.map
        sol = M @ bounds
        sol += c0
    else:
        rhs = np.concatenate([-problem.q, bounds])
        # A singular system leaves a zero pivot, so the solve turns non-finite.
        sol = _getrs(factor.lu, factor.piv, rhs)[0]
        if not np.isfinite(sol).all():
            return None
        # Proximal refinement: K_reg = K + D with D = +reg on the variable
        # rows and -reg on the kept rows, so sol = K_reg^-1 (rhs + D sol)
        # has K sol = rhs.
        shift = _proximal_shift(n, sol.shape[0])
        for _ in range(_POLISH_REFINE_STEPS):
            sol = _getrs(factor.lu, factor.piv, rhs + shift * sol)[0]

    if not np.isfinite(sol).all():
        return None
    x_pol = sol[:n]
    duals = sol[n:]
    # Enforce the sign convention; wrong-signed duals mean a bad active set.
    signed = np.concatenate([np.minimum(duals[:split], 0.0), np.maximum(duals[split:], 0.0)])
    if problem._equality is not None:
        signed = np.where(problem._equality[active], duals, signed)
    y_pol = np.zeros(problem.n_constraints)
    y_pol[active] = signed
    return x_pol, y_pol, (rows, factor), active[signed != duals]


def _proximal_shift(n: int, size: int) -> np.ndarray:
    """``K_reg - K`` of a KKT system on ``n`` variables, as its diagonal."""
    return np.where(np.arange(size) < n, _POLISH_REG, -_POLISH_REG)


def _kkt_map(problem: ConvexProblem, factor: _KktFactor) -> tuple[np.ndarray, np.ndarray]:
    """``(M, c0)``: ``M @ bounds + c0`` is the refined polish of the factor's rows.

    With the rows fixed, the refined solve of :func:`_active_set_solve` is
    linear in its right-hand side ``[-q; bounds]``: with ``R = K_reg^-1``
    and ``D`` the proximal shift, ``sol = R rhs`` and then, at each step,
    ``sol = R rhs + R D sol``.  The same steps run here on the ``k + 1``
    columns ``R [-q; 0]`` and ``R[:, n:]`` (the bounds' unit vectors), from
    one explicit inverse.  A singular system gives a non-finite map, as it
    gives non-finite solves.
    """
    n = problem.n_vars
    inverse, info = _getri(factor.lu, factor.piv)
    if info:  # an exact zero pivot
        inverse.fill(np.nan)
    size = inverse.shape[0]
    start = np.empty((size, size - n + 1))
    start[:, 0] = inverse[:, :n] @ -problem.q
    start[:, 1:] = inverse[:, n:]
    shift = _proximal_shift(n, size)[:, None]
    mapped = start
    for _ in range(_POLISH_REFINE_STEPS):
        mapped = start + inverse @ (shift * mapped)
    return mapped[:, 1:], mapped[:, 0]


def _keep_last(slot: dict, rows: bytes, factor: _KktFactor) -> None:
    """Make ``rows`` the last, most recently used key; past ``_KKT_KEPT`` drop the first."""
    slot.pop(rows, None)
    slot[rows] = factor
    if len(slot) > _KKT_KEPT:
        del slot[next(iter(slot))]


def _independent_rows(
    problem: ConvexProblem, y: np.ndarray, active: np.ndarray, preferred: np.ndarray | None
) -> np.ndarray:
    """Positions in ``active`` of the rows the weighted pivoted QR keeps, sorted."""
    strength = np.abs(y[active])
    weights = np.maximum(strength / max(strength.max(initial=0.0), 1e-300), 1e-6)
    if preferred is not None and preferred.size:
        weights[np.isin(active, preferred)] = 1e6
    if problem._equality is not None:
        weights[problem._equality[active]] = 1e6
    weighted = problem.A[active].T * weights
    # dgeqp3 picks its blocking from lwork, so every call passes what a
    # workspace query returns, as scipy.linalg.qr does.
    lwork = int(_geqp3(weighted, lwork=-1)[3][0])
    r_packed, pivots, *_ = _geqp3(weighted, lwork=lwork)
    diag = np.abs(np.diag(r_packed))
    rank = int((diag > diag.max(initial=0.0) * 1e-12).sum())
    return np.sort(pivots[:rank] - 1)


def _polish(
    problem: ConvexProblem, y: np.ndarray, tol_abs: float, tol_rel: float, by_map: bool = False
) -> tuple[np.ndarray, np.ndarray, _Certificate] | None:
    """Re-solve on the active set guessed from dual signs; None unless it passes.

    Every equality row is pinned, whatever its dual's sign.  A wrong guess
    shows up as bound violations at the re-solved point, or as wrong-signed
    duals: a weakly active row pinned by iterate noise gets one, and
    clipping it leaves a dual residual, which may fail the point or, under
    a loose tolerance, pass a point off the optimum.  Each round that has
    either releases its wrong-signed rows (counted only when its primal and
    complementarity residuals pass), adds its violated rows and re-solves.
    Rounds stop at one that has neither, after ``2 * _POLISH_ROUNDS``, or,
    while no row has been released, after ``_POLISH_ROUNDS``.  One pass
    over the problem data (:func:`_kkt_pass`) gives each round both its
    certificate and its violated rows.  The round with the smallest
    residual in tolerance units (the earliest on a tie) is returned with its
    certificate if that certificate passes.  Its kept rows and KKT factors
    become the family's most recently used either way, so they are the
    last to be dropped: a warm start from this point keeps them whole if
    it pins exactly those rows.  The other rounds' factors are kept too, so
    the next polish that repeats these rounds factors nothing.  ``by_map``
    (a polish from a caller's guess) solves each round through its row
    set's affine map, built once and kept with the factors.
    """
    # A dual pushing on an infinite bound is iterate noise, never active.
    lower = (y < 0) & problem._finite_l
    upper = (y > 0) & problem._finite_u
    if problem._equality is not None:
        lower |= problem._equality
        upper &= ~problem._equality
    best = None
    released = False
    preferred = np.empty(0, dtype=int)
    for round_ in range(2 * _POLISH_ROUNDS):
        result = _active_set_solve(
            problem, y, lower.nonzero()[0], upper.nonzero()[0], preferred, by_map
        )
        if result is None:
            break
        z_pol, y_pol, _, wrong = result
        kkt, tol, below, above = _kkt_pass(problem, z_pol, y_pol, tol_abs, tol_rel)
        cert = _Certificate(kkt, tol)
        if best is None or cert.ratio < best[1].ratio:
            best = (result, cert)
        violated = (below | above).nonzero()[0]
        if wrong.size and kkt.primal <= tol.primal and kkt.complementarity <= tol.complementarity:
            released = True
            lower[wrong] = upper[wrong] = False
        elif not violated.size or not released and round_ + 1 >= _POLISH_ROUNDS:
            break
        if violated.size:
            lower |= below
            upper |= above
            preferred = np.union1d(preferred, violated)
    if best is None:
        return None
    (z_pol, y_pol, (rows, factor), _), cert = best
    _keep_last(problem._kkt_slot, rows, factor)
    return (z_pol, y_pol, cert) if cert.passes() else None


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def solve(
    problem: ConvexProblem,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    max_iters: int = DEFAULT_MAX_ITERS,
    warm_start: Solution | None = None,
    *,
    _dual_guess: np.ndarray | None = None,
) -> Solution:
    """Solve the problem.

    Optimality is declared only for a point whose independently recomputed
    KKT residuals pass the scaled tolerances: a polished point, or else a
    converged iterate (path ``admm``).  Otherwise the iteration goes on, and
    the status reports its exhaustion.  A divergence certificate (infeasible
    or unbounded problem) is reported as infeasible, never silently.

    ``warm_start``, a solution of a problem of the same shape, is tried
    first: a re-solve on its active set is returned with zero iterations if
    it passes, and otherwise ignored.  ``_dual_guess``, dual signs of a
    vertex the caller computed in closed form (see
    ``explain._Program.vertex_duals``), is tried the same way, in place of
    the warm start's duals; a warm start given with it is only checked for
    its shape.  The ADMM start and polishing reuse
    the factors of the problem's family (see
    :meth:`ConvexProblem.with_bounds`) alike for cold and warm solves.  The
    re-solve from a guess reads each round's point off its row set's
    affine map (see :func:`_kkt_map`), which moves it from the LU solve a
    polish of an ADMM iterate makes by rounding only.  A reused factor or
    map is bit-equal to a new one, but a polish keeps a kept row set whole
    where a new selection might drop a row, so its rounds can depend on
    earlier solves; on the workloads measured no solution does
    (``test_kept_programs_and_factors_change_no_solution``).
    """
    # Each check is written so that NaN fails it.
    if not 0 < tol_abs < np.inf:
        raise ValueError(f"tol_abs must be positive and finite, got {tol_abs}")
    if not 0 <= tol_rel < np.inf:
        raise ValueError(f"tol_rel must be nonnegative and finite, got {tol_rel}")
    if not is_integer(max_iters) or max_iters < 1:
        raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters!r}")
    n, m = problem.n_vars, problem.n_constraints
    if warm_start is not None:
        if warm_start.z.shape != (n,) or warm_start.y.shape != (m,):
            raise ValueError(
                f"warm start has {warm_start.z.shape[0]} variables and "
                f"{warm_start.y.shape[0]} constraints, the problem {n} and {m}"
            )
        if _dual_guess is None:
            _dual_guess = warm_start.y
    if _dual_guess is not None:
        guess = _polish(problem, _dual_guess, tol_abs, tol_rel, by_map=True)
        if guess is not None:
            return _finish(problem, *guess, SolveStatus.OPTIMAL, 0, "warm")

    A = problem.A
    # Normalize the objective so large penalty weights cannot unbalance the
    # iteration; primal iterates are unaffected, duals scale by 1/cost.
    cost = max(1.0, float(problem._q_norm), float(np.abs(problem.P).max(initial=0.0)))
    P_s = problem.P / cost
    q_s = problem.q / cost
    q_norm = np.abs(q_s).max(initial=0.0)
    base_rho = _RHO_INITIAL
    rho = _rho_vector(problem, base_rho)
    # P_s, q_s and A are the family's own, so the same starting rho gives
    # the same map.
    start = rho.tobytes()
    x_step = problem._x_step_slot
    if start not in x_step:
        x_step.clear()
        x_step[start] = _x_step_map(P_s, q_s, A, rho)
    T, c = x_step[start]

    s = np.zeros(n + 2 * m)
    x, z, y = s[:n], s[n : n + m], s[n + m :]
    l, u = problem.l, problem.u

    status = SolveStatus.MAX_ITERS
    infeasible_streak = 0
    adapt_interval = _ADAPT_INTERVAL
    adapt_due = adapt_interval
    for it in range(1, max_iters + 1):
        checking = it % _CHECK_INTERVAL == 0 or it == max_iters
        if checking:
            x_old, y_old = x.copy(), y.copy()
        mapped = T @ s
        mapped += c
        x[:] = mapped[:n]
        v = mapped[n:]
        np.maximum(v, l, out=z)
        np.minimum(z, u, out=z)
        # Exactly 0 on every row strictly inside its bounds.
        np.subtract(v, z, out=y)
        y *= rho

        if checking:
            dx = x - x_old
            dy = y - y_old
            ax = A @ x
            pri = np.abs(ax - z).max(initial=0.0)
            pri_norm = max(np.abs(ax).max(initial=0.0), np.abs(z).max(initial=0.0))
            eps_pri = tol_abs + tol_rel * pri_norm
            px = P_s @ x
            aty = A.T @ y
            dua = np.abs(px + q_s + aty).max(initial=0.0)
            dua_norm = max(np.abs(px).max(initial=0.0), np.abs(aty).max(initial=0.0), q_norm)
            eps_dua = tol_abs + tol_rel * dua_norm
            converged = pri <= eps_pri and dua <= eps_dua
            # Degenerate problems crawl near the optimum; an active-set
            # re-solve from a close-enough iterate finishes them exactly, so
            # every check inside the window (a converged iterate always is)
            # polishes.
            pri_scale = max(pri_norm, 1e-12)
            dua_scale = max(dua_norm, 1e-12)
            if (
                pri <= max(_EARLY_POLISH_WINDOW * eps_pri, 1e-3 * pri_scale)
                and dua <= max(_EARLY_POLISH_WINDOW * eps_dua, 1e-3 * dua_scale)
            ):
                y_cost = y * cost  # undo objective normalization on the duals
                polished = _polish(problem, y_cost, tol_abs, tol_rel)
                if polished is not None:
                    path = "final_polish" if converged else "early_polish"
                    return _finish(problem, *polished, SolveStatus.OPTIMAL, it, path)
                if converged:
                    cert = _Certificate.at(problem, x, y_cost, tol_abs, tol_rel)
                    if cert.passes():
                        return _finish(
                            problem, x.copy(), y_cost, cert, SolveStatus.OPTIMAL, it, "admm"
                        )
            # A transient noise direction can mimic a divergence certificate;
            # only two consecutive confirming checks count.
            if _primal_infeasibility_certificate(problem, dy) or (
                _dual_infeasibility_certificate_scaled(problem, P_s, q_s, dx)
            ):
                infeasible_streak += 1
                if infeasible_streak >= 2:
                    status = SolveStatus.INFEASIBLE
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
                    T, c = _x_step_map(P_s, q_s, A, rho)
                    adapt_interval *= 2
                    adapt_due = it + adapt_interval

    # Copies: x and y are views of the iteration state.
    x, y = x.copy(), y * cost
    cert = _Certificate.at(problem, x, y, tol_abs, tol_rel)
    return _finish(problem, x, y, cert, status, it, "admm")


def _finish(
    problem: ConvexProblem,
    z: np.ndarray,
    y: np.ndarray,
    cert: _Certificate,
    status: SolveStatus,
    iterations: int,
    path: str,
) -> Solution:
    objective = np.inf if status is SolveStatus.INFEASIBLE else problem.objective(z)
    return Solution(
        z=z,
        y=y,
        objective=objective,
        status=status,
        iterations=iterations,
        kkt=cert.kkt,
        kkt_tol=cert.tol,
        path=path,
    )
