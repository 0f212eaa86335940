"""Dense operator-splitting solver for QPs and LPs in two-sided form.

Problems are ``minimize 0.5 z'Pz + q'z subject to l <= Az <= u`` with P
symmetric positive semidefinite (P = 0 gives an LP).  One alternating-
direction iteration with over-relaxation covers both cases.  It keeps the
state ``[x; w; z; 1]``, with ``w = y / rho`` the scaled dual.  Between two
step-size (rho) updates one iteration is a linear map of that state (its
last column holds the constant term) followed by a projection onto the
bounds: one matrix-vector product into a second state buffer, built once
per rho, and three elementwise calls.  Iterates near
convergence are polished on the active set, and a point is reported as
optimal only when independently recomputed KKT residuals pass their
tolerances; until one does, the iteration goes on.

A caller that can guess the optimum's active set passes dual signs as
``dual_guess``: the duals of the previous :class:`Solution` in a sequence
of closely related problems (the same program at consecutive alarm
steps), or those of an optimum known in closed form (a one-row
counterfactual).  The solver first re-solves on the rows the guess pins
and returns the result with zero iterations if it passes; on a miss it
runs the cold iteration, whose polish can run other rounds than a first
solve's: the missed re-solve has updated the family's kept KKT factors
(below).  With its rows fixed, a refined active-set re-solve is affine in
the pinned bounds, so a re-solve from a guess reads its point off the row
set's affine map: one gather and one matrix-vector product.  Polishes of
ADMM iterates solve through the LU factors instead.  Every point is
certified from P, q, A, l and u, never through a map.

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
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

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


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def frozen_array(name: str, value) -> np.ndarray:
    """A C-ordered, read-only float copy of ``value``, so no later write to
    the caller's array reaches the value that keeps it.  ``ValueError``,
    naming the field, unless ``value`` holds integers or floats: a bool,
    string, complex or object array is refused, not coerced."""
    array = np.array(value, order="C")
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {array.dtype}")
    if isinstance(value, (list, tuple)) and _holds_bool(value):  # [True, 2.0] became floats
        raise ValueError(f"{name} must hold real numbers, got a bool among them")
    array = array.astype(float, copy=False)
    array.flags.writeable = False
    return array


def _holds_bool(value) -> bool:
    """True if a list or tuple, at any depth, holds a bool or a bool array."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_)) or (
        isinstance(value, np.ndarray) and value.dtype.kind == "b"
    )


def fields_equal(self, other) -> bool:
    """``__eq__`` of a frozen dataclass with array fields: field by field,
    arrays element by element (the generated tuple comparison cannot take
    them)."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for field in fields(self):
        a, b = getattr(self, field.name), getattr(other, field.name)
        if a is not b and not (
            np.array_equal(a, b)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
            else a == b
        ):
            return False
    return True


def fields_hash(self) -> int:
    """``__hash__`` that agrees with :func:`fields_equal`: an array hashes by
    its shape, since equal arrays need not have equal bytes (0.0 == -0.0)."""
    return hash(tuple(
        value.shape if isinstance(value, np.ndarray) else value
        for value in (getattr(self, field.name) for field in fields(self))
    ))


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

    __eq__, __hash__ = fields_equal, fields_hash

    def __post_init__(self) -> None:
        P, q, A = (frozen_array(name, getattr(self, name)) for name in ("P", "q", "A"))
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
            object.__setattr__(self, name, arr)
        # Shared by the with_bounds family: {kept rows as bytes: _KktFactor}
        # for up to _KKT_KEPT row sets, least recently used first; {starting
        # rho as bytes: iteration map T} of its latest ADMM start; and max
        # |q|.
        object.__setattr__(self, "_kkt_slot", {})
        object.__setattr__(self, "_x_step_slot", {})
        object.__setattr__(self, "_q_norm", np.abs(q).max(initial=0.0))
        self.__dict__.update(_bound_fields([self.l], [self.u], A.shape[0])[0])

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
        This is :meth:`each_with_bounds` for one problem.
        """
        return ConvexProblem.each_with_bounds((self,), [l], [u])[0]

    @staticmethod
    def each_with_bounds(
        problems: Sequence[ConvexProblem], l: np.ndarray, u: np.ndarray
    ) -> tuple[ConvexProblem, ...]:
        """Problem i's P, q and A with row i of ``l`` and ``u`` as its bounds.

        As :meth:`with_bounds` for each problem, with every problem's bounds
        validated in one pass over the stacked rows; every problem must have
        as many constraint rows as ``l`` and ``u`` have columns.
        """
        m = problems[0].n_constraints
        moved = []
        for problem, bounds in zip(problems, _bound_fields(l, u, m, len(problems))):
            if problem.n_constraints != m:
                raise ValueError("l and u must match the constraint row count")
            copy = object.__new__(ConvexProblem)
            copy.__dict__.update(problem.__dict__, **bounds)
            moved.append(copy)
        return tuple(moved)

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


def _bound_fields(l, u, m: int, count: int = 1) -> list[dict]:
    """The bound attributes of ``count`` problems of ``m`` constraint rows,
    from row i of ``l`` and ``u`` for problem i, validated in one pass.

    Each holds its frozen ``l`` and ``u`` and the row masks polishing reads
    on every call: finite bounds, and equality rows (None when there are
    none), whose multiplier is free in sign.
    """
    l, u = frozen_array("l", l), frozen_array("u", u)
    if l.shape != (count, m) or u.shape != (count, m):
        raise ValueError("l and u must match the constraint row count")
    if not (l <= u).all():  # also false where a bound is NaN
        if np.isnan(l).any() or np.isnan(u).any():
            raise ValueError("constraint bounds must not be NaN")
        raise ValueError("constraint bounds require l <= u elementwise")
    # With no NaN left, the extremes show an infinite bound on the wrong side.
    highest_l = np.maximum.reduce(l, axis=None, initial=-np.inf)
    if highest_l == np.inf or np.minimum.reduce(u, axis=None, initial=np.inf) == -np.inf:
        raise ValueError("l must be < +inf and u > -inf")
    finite_l, finite_u, equality = np.isfinite(l), np.isfinite(u), l == u
    return [
        {"l": l[i], "u": u[i], "_finite_l": finite_l[i], "_finite_u": finite_u[i],
         "_equality": equality[i] if any_equal else None}
        for i, any_equal in enumerate(equality.any(axis=1).tolist())
    ]


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
    caller's dual guess re-solved, no iterations), ``early_polish`` (an
    active-set re-solve during the ADMM loop), ``final_polish`` (the
    re-solve after ADMM converged) or ``admm`` (the ADMM iterate itself,
    unpolished).
    """

    z: np.ndarray
    y: np.ndarray
    objective: float
    status: SolveStatus
    iterations: int
    kkt: KktResiduals
    kkt_tol: KktTolerances
    path: str

    __eq__, __hash__ = fields_equal, fields_hash


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
    # The ufunc's own reduce: np.max and .max call it through Python-level
    # wrappers that cost more than the reductions of these short vectors.
    peak = np.maximum.reduce
    primal = float(peak(np.maximum(to_lower, 0.0) + np.maximum(past_upper, 0.0), initial=0.0))

    dual = float(peak(np.abs(pz + problem.q + aty), initial=0.0))

    # On an infinite bound any push from the dual is itself the violation.
    comp_up = np.maximum(y, 0.0)
    comp_up[problem._finite_u] *= np.abs(past_upper)[problem._finite_u]
    comp_lo = np.maximum(-y, 0.0)
    comp_lo[problem._finite_l] *= np.abs(to_lower)[problem._finite_l]
    comp = float(max(peak(comp_up, initial=0.0), peak(comp_lo, initial=0.0)))

    az_norm = peak(np.abs(az), initial=0.0)
    eps_pri = tol_abs + tol_rel * max(az_norm, peak(np.abs(z), initial=0.0))
    eps_dua = tol_abs + tol_rel * max(
        peak(np.abs(pz), initial=0.0), peak(np.abs(aty), initial=0.0), problem._q_norm
    )
    eps_comp = max(1.0, peak(np.abs(y), initial=0.0)) * eps_pri
    gap = 1e-9 * (1.0 + az_norm)
    return (
        KktResiduals(primal=primal, dual=dual, complementarity=comp),
        # Python floats, as the residuals: a ratio to a tiny tolerance then
        # reads inf, without numpy's overflow warning.
        KktTolerances(*map(float, (eps_pri, eps_dua, eps_comp))),
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


def _x_step_map(P_s: np.ndarray, q_s: np.ndarray, A: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``T``, one ADMM iteration before its projection, at this rho.

    With K the x-step matrix and the state ``s = [x; w; z; 1]``, where
    ``w = y / rho`` is the scaled dual, ``T s = [x_new; v]``:
    ``x~ = K^-1 (sigma x - q_s + A' rho (z - w))``,
    ``x_new = alpha x~ + (1 - alpha) x`` and
    ``v = alpha A x~ + (1 - alpha) z + w``.  The iteration then sets
    ``z = clip(v, l, u)`` and ``w = v - z``, so ``y = rho (v - z)``.
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
    T = np.empty((n + m, n + 2 * m + 1))
    x_cols, w_cols, z_cols = T[:, :n], T[:, n : n + m], T[:, n + m : -1]
    np.multiply(_ALPHA, inv_sigma, out=x_cols)
    np.multiply(_ALPHA * rho, inv_a, out=z_cols)
    np.negative(z_cols, out=w_cols)
    np.multiply(-_ALPHA, inv_q, out=T[:, -1])
    x_diag, row = np.arange(n), np.arange(m)
    x_cols[x_diag, x_diag] += 1.0 - _ALPHA
    z_cols[n + row, row] += 1.0 - _ALPHA
    w_cols[n + row, row] += 1.0
    return T


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
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
    recently used, the last of up to ``_KKT_KEPT``; they also refine the
    regularized solve towards the unregularized one.  With ``by_map`` the
    refined point is instead the kept rows' affine map applied to their
    bounds (see :func:`_kkt_map`), built from the factors on the first such
    solve and kept with them.  Returns the point and the kept rows whose
    dual had the wrong sign for the bound they were pinned to; that dual is
    returned as zero.  An equality row's dual is free in sign.
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
    # A lookup popped the set if it was kept, so it goes in last: the most
    # recently used.
    slot[rows] = factor
    if len(slot) > _KKT_KEPT:
        del slot[next(iter(slot))]
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
    return x_pol, y_pol, active[signed != duals]


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
    # dgeqp3's minimum workspace.  Reference dgeqp3 runs blocked code, which
    # a larger lwork allows, only when the smaller dimension exceeds its
    # crossover (128); below that any lwork gives the same bits, and these
    # programs have at most about 50 variables.
    r_packed, pivots, *_ = _geqp3(weighted, lwork=3 * active.shape[0] + 1)
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
    certificate if that certificate passes.  Every round's factors are
    kept, so the next polish that repeats these rounds factors nothing.
    ``by_map`` (a polish from a caller's guess) solves each round through
    its row set's affine map, built once and kept with the factors.
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
        z_pol, y_pol, wrong = result
        kkt, tol, below, above = _kkt_pass(problem, z_pol, y_pol, tol_abs, tol_rel)
        cert = _Certificate(kkt, tol)
        if best is None or cert.ratio < best[2].ratio:
            best = (z_pol, y_pol, cert)
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
    return best if best is not None and best[2].passes() else None


def solve(
    problem: ConvexProblem,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    max_iters: int = DEFAULT_MAX_ITERS,
    dual_guess: np.ndarray | None = None,
) -> Solution:
    """Solve the problem.

    Optimality is declared only for a point whose independently recomputed
    KKT residuals pass the scaled tolerances: a polished point, or else a
    converged iterate (path ``admm``).  Otherwise the iteration goes on, and
    the status reports its exhaustion.  A divergence certificate (infeasible
    or unbounded problem) is reported as infeasible, never silently.

    ``dual_guess``, one finite dual per row, is tried first: a re-solve on
    the rows its signs pin is returned with zero iterations if it passes,
    and otherwise ignored.  It is the one way to start a solve: pass the
    ``y`` of a solution of a nearby problem of the same shape (a warm
    start), or the dual signs of an optimum known in closed form (every
    one-row counterfactual program, see ``explain._Stack.vertex_duals``).
    The ADMM start and polishing reuse the factors of the problem's family
    (see :meth:`ConvexProblem.with_bounds`) alike for cold and warm solves.
    The re-solve from a guess reads each round's point off its row set's
    affine map (see :func:`_kkt_map`), which moves it from the LU solve a
    polish of an ADMM iterate makes by rounding only.  A reused factor or
    map is bit-equal to a new one, but a polish keeps a kept row set whole
    where a new selection might drop a row, so its rounds can depend on
    earlier solves.  On the workloads measured no solution does
    (``test_kept_programs_and_factors_change_no_solution``), and a new row
    selection on every round leaves every seed-1 digest and ``getrf`` count
    of ``tests/solve_digest.py`` as it is: only the pivoted QRs multiply
    (421 to 4032 on ``lp-grid``).
    """
    # Each check is written so that NaN fails it.
    if not 0 < tol_abs < np.inf:
        raise ValueError(f"tol_abs must be positive and finite, got {tol_abs}")
    if not 0 <= tol_rel < np.inf:
        raise ValueError(f"tol_rel must be nonnegative and finite, got {tol_rel}")
    if not is_integer(max_iters) or max_iters < 1:
        raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters!r}")
    n, m = problem.n_vars, problem.n_constraints
    if dual_guess is not None:
        dual_guess = np.asarray(dual_guess, dtype=float)
        if dual_guess.shape != (m,):
            raise ValueError(f"dual_guess has shape {dual_guess.shape}, expected ({m},)")
        if not np.isfinite(dual_guess).all():
            raise ValueError("dual_guess must be finite")
        guess = _polish(problem, dual_guess, tol_abs, tol_rel, by_map=True)
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
    T = x_step[start]

    # Two buffers of the state [x; w; z; 1]: an iteration reads one and
    # writes the other, so a check finds the previous iterate in the other
    # buffer.  Each is held with its views: whole, [x; w] (the product's
    # rows: v goes where w is kept), x, w and z.
    buffers = np.zeros((2, n + 2 * m + 1))
    buffers[:, -1] = 1.0
    cur, other = ((b, b[: n + m], b[:n], b[n : n + m], b[n + m : -1]) for b in buffers)
    l, u = problem.l, problem.u

    status = SolveStatus.MAX_ITERS
    infeasible_streak = 0
    adapt_interval = _ADAPT_INTERVAL
    adapt_due = adapt_interval
    it = 0
    while it < max_iters:
        # Iterations up to the next check: every _CHECK_INTERVAL-th, and the last.
        block = min(_CHECK_INTERVAL, max_iters - it)
        for _ in range(block):
            _, mapped, _, v, z = other
            np.matmul(T, cur[0], out=mapped)
            np.maximum(v, l, out=z)
            np.minimum(z, u, out=z)
            # Exactly 0 on every row strictly inside its bounds.
            np.subtract(v, z, out=v)
            cur, other = other, cur
        it += block

        _, _, x, w, z = cur
        _, _, x_old, w_old, _ = other
        y = rho * w
        dx = x - x_old
        dy = y - rho * w_old
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
        # Degenerate problems crawl near the optimum; an active-set re-solve
        # from a close-enough iterate finishes them exactly, so every check
        # inside the window (a converged iterate always is) polishes.
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
                new_rho = _rho_vector(problem, base_rho)
                # The scaled dual follows rho, so y = rho w stays as it was.
                rescale = rho / new_rho
                for _, _, _, w_kept, _ in (cur, other):
                    w_kept *= rescale
                rho = new_rho
                T = _x_step_map(P_s, q_s, A, rho)
                adapt_interval *= 2
                adapt_due = it + adapt_interval

    # Every way out of the loop follows a check, which set x and y; x is a
    # view of the iteration state.
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
