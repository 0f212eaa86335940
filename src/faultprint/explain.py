"""Ensemble-consistent counterfactual explanations for linear models.

Given a snapshot of sensor readings that triggered an alarm, find one
minimal per-sensor change vector such that every virtual sensor in the
ensemble is simultaneously satisfied on the corrected snapshot.  Slack
variables keep the program feasible; their penalty makes slack a last
resort.  The same construction restricted to a single model yields the
independent per-model counterfactual used as a baseline.

The hard-constrained variant (no slack at all) is the large-penalty limit
of this program and is intentionally not a separate solver path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optim
from .netgen import ReadingsPanel
from .sensors import Ensemble, LinearModel

FEASIBLE_SLACK_TOL = 1e-6
_CLASSIFIER_MARGIN = 1e-6  # excludes exact decision-boundary solutions


class ExplainError(RuntimeError):
    """Raised when a counterfactual cannot be certified."""


@dataclass(frozen=True)
class CfConfig:
    """Counterfactual program settings.

    ``slack_penalty`` weights constraint violations; ``complexity`` picks the
    change-size measure (l1 keeps explanations sparse, l2 spreads them);
    ``dist`` penalizes prediction error as absolute or squared deviation;
    ``tolerances`` is the per-constraint error allowance (scalar broadcasts).
    """

    slack_penalty: float = 1e3
    complexity: str = "l1"
    dist: str = "abs"
    tolerances: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        if self.slack_penalty <= 0:
            raise ValueError("slack_penalty must be positive")
        if self.complexity not in ("l1", "l2"):
            raise ValueError("complexity must be 'l1' or 'l2'")
        if self.dist not in ("abs", "squared"):
            raise ValueError("dist must be 'abs' or 'squared'")
        if np.any(np.asarray(self.tolerances) < 0):
            raise ValueError("tolerances must be nonnegative")

    def tolerance_vector(self, k: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.tolerances, dtype=float), (k,)).copy()


@dataclass(frozen=True)
class Counterfactual:
    """A corrected snapshot and the change that produces it."""

    delta: np.ndarray
    x_cf: np.ndarray
    slacks: np.ndarray
    objective: float
    feasible_without_slack: bool
    iterations: int
    solution: optim.Solution | None = None  # the certified solve it came from

    def __post_init__(self) -> None:
        if not (np.isfinite(self.delta).all() and np.isfinite(self.x_cf).all()):
            raise ValueError("counterfactual contains non-finite values")


@dataclass(frozen=True)
class LinearClassifier:
    """Binary linear classifier sign(weights @ x + bias)."""

    weights: np.ndarray
    bias: float

    def decision(self, x: np.ndarray) -> float:
        return float(self.weights @ np.asarray(x, dtype=float) + self.bias)

    def predict(self, x: np.ndarray) -> int:
        return 1 if self.decision(x) >= 0 else -1


def snapshot_at_alarm(panel: ReadingsPanel, ensemble: Ensemble, t: int) -> np.ndarray:
    """Observed readings at step t; the anchor the counterfactual edits.

    Every model constraint is evaluated on this one snapshot (each virtual
    sensor applied to the snapshot's other channels), not on the trailing
    window the detector used, which keeps the program small and linear.
    """
    if t < ensemble.window:
        raise ValueError(f"step {t} precedes the first full model window")
    if t >= panel.n_steps:
        raise ValueError(f"step {t} beyond panel end")
    return panel.values[t].copy()


def _residual_geometry(models: tuple[LinearModel, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows g_i with prediction weights scattered and -1 at the target, plus biases."""
    G = np.zeros((len(models), n))
    b = np.empty(len(models))
    for j, model in enumerate(models):
        if model.n_sensors != n:
            raise ValueError("model dimensionality does not match the snapshot")
        others = np.arange(n) != model.target
        G[j, others] = model.weights
        G[j, model.target] = -1.0
        b[j] = model.bias
    return G, b


def snapshot_residuals(ensemble: Ensemble, x: np.ndarray) -> np.ndarray:
    """Per-model residual prediction-minus-reading on one snapshot."""
    x = np.asarray(x, dtype=float)
    G, b = _residual_geometry(ensemble.models, x.shape[0])
    return G @ x + b


@dataclass(frozen=True)
class _Layout:
    """Where each variable block lives inside the stacked solver vector."""

    n: int
    k: int
    complexity: str
    dist: str

    @property
    def n_delta_vars(self) -> int:
        return 2 * self.n if self.complexity == "l1" else self.n

    def delta_of(self, z: np.ndarray) -> np.ndarray:
        if self.complexity == "l1":
            return z[: self.n] - z[self.n : 2 * self.n]
        return z[: self.n]


def _delta_columns(layout: _Layout, G: np.ndarray) -> np.ndarray:
    """Constraint coefficients on the delta block (split for l1)."""
    if layout.complexity == "l1":
        return np.hstack([G, -G])
    return G


def _build_program(
    G: np.ndarray,
    r0: np.ndarray,
    cfg: CfConfig,
    tolerances: np.ndarray,
) -> tuple[optim.ConvexProblem, _Layout]:
    """Assemble the relaxed program for residual rows G z + r0.

    Absolute error keeps explicit slack variables.  Squared error eliminates
    the slack analytically: the penalty max(0, e^2 - tol) equals
    min over |a| <= sqrt(tol) of (e - a)^2 + 2 sqrt(tol) |e - a|, which adds
    one boxed variable, one free variable and one epigraph variable per
    constraint while staying a plain QP.
    """
    k, n = G.shape
    layout = _Layout(n=n, k=k, complexity=cfg.complexity, dist=cfg.dist)
    nd = layout.n_delta_vars
    Gd = _delta_columns(layout, G)
    lam = cfg.slack_penalty

    if cfg.dist == "abs":
        n_vars = nd + k
        rows: list[np.ndarray] = []
        lo: list[float] = []
        hi: list[float] = []
        for j in range(k):
            upper = np.zeros(n_vars)
            upper[:nd] = Gd[j]
            upper[nd + j] = -1.0
            rows.append(upper)
            lo.append(-np.inf)
            hi.append(tolerances[j] - r0[j])
            lower = np.zeros(n_vars)
            lower[:nd] = -Gd[j]
            lower[nd + j] = -1.0
            rows.append(lower)
            lo.append(-np.inf)
            hi.append(tolerances[j] + r0[j])
        bound_first = 0 if cfg.complexity == "l1" else nd
        for idx in range(bound_first, n_vars):
            row = np.zeros(n_vars)
            row[idx] = 1.0
            rows.append(row)
            lo.append(0.0)
            hi.append(np.inf)

        q = np.zeros(n_vars)
        q[nd:] = lam
        P = np.zeros((n_vars, n_vars))
        if cfg.complexity == "l1":
            q[:nd] += 1.0
        else:
            P[np.arange(n), np.arange(n)] = 2.0
        problem = optim.ConvexProblem(
            P=P, q=q, A=np.vstack(rows), l=np.array(lo), u=np.array(hi)
        )
        return problem, layout

    # squared: variable order [delta block, a (k), s (k), t (k)]
    root_tol = np.sqrt(tolerances)
    n_vars = nd + 3 * k
    a0, s0, t0 = nd, nd + k, nd + 2 * k
    rows = []
    lo = []
    hi = []
    for j in range(k):
        eq = np.zeros(n_vars)
        eq[:nd] = Gd[j]
        eq[a0 + j] = -1.0
        eq[s0 + j] = -1.0
        rows.append(eq)
        lo.append(-r0[j])
        hi.append(-r0[j])
        box = np.zeros(n_vars)
        box[a0 + j] = 1.0
        rows.append(box)
        lo.append(-root_tol[j])
        hi.append(root_tol[j])
        for sign in (1.0, -1.0):
            epi = np.zeros(n_vars)
            epi[t0 + j] = 1.0
            epi[s0 + j] = -sign
            rows.append(epi)
            lo.append(0.0)
            hi.append(np.inf)
    if cfg.complexity == "l1":
        for idx in range(nd):
            row = np.zeros(n_vars)
            row[idx] = 1.0
            rows.append(row)
            lo.append(0.0)
            hi.append(np.inf)

    q = np.zeros(n_vars)
    q[t0:] = 2.0 * lam * root_tol
    P = np.zeros((n_vars, n_vars))
    P[np.arange(s0, t0), np.arange(s0, t0)] = 2.0 * lam
    if cfg.complexity == "l1":
        q[:nd] += 1.0
    else:
        P[np.arange(n), np.arange(n)] += 2.0
    problem = optim.ConvexProblem(
        P=P, q=q, A=np.vstack(rows), l=np.array(lo), u=np.array(hi)
    )
    return problem, layout


def _decode(
    solution: optim.Solution,
    layout: _Layout,
    G: np.ndarray,
    r0: np.ndarray,
    tolerances: np.ndarray,
    cfg: CfConfig,
    x_orig: np.ndarray,
) -> Counterfactual:
    delta = layout.delta_of(solution.z)
    # Slacks are recovered from the decoded change vector (the exact optimal
    # slack given delta), not from the solver's internal slack variables.
    errors = G @ delta + r0
    if cfg.dist == "abs":
        slacks = np.clip(np.abs(errors) - tolerances, 0.0, None)
    else:
        slacks = np.clip(errors**2 - tolerances, 0.0, None)
    theta = float(np.abs(delta).sum()) if cfg.complexity == "l1" else float(delta @ delta)
    objective = theta + cfg.slack_penalty * float(slacks.sum())
    return Counterfactual(
        delta=delta,
        x_cf=x_orig + delta,
        slacks=np.asarray(slacks, dtype=float),
        objective=objective,
        feasible_without_slack=bool(np.max(slacks, initial=0.0) <= FEASIBLE_SLACK_TOL),
        iterations=solution.iterations,
        solution=solution,
    )


def _solve_program(
    problem: optim.ConvexProblem,
    solver_options: dict | None,
    warm_start: Counterfactual | None = None,
) -> optim.Solution:
    previous = warm_start.solution if warm_start is not None else None
    solution = optim.solve(problem, **(solver_options or {}), warm_start=previous)
    if solution.status is not optim.SolveStatus.OPTIMAL:
        raise ExplainError(
            f"counterfactual solve ended with status {solution.status.value} "
            f"after {solution.iterations} iterations "
            f"(kkt primal {solution.kkt.primal:.2e}, dual {solution.kkt.dual:.2e})"
        )
    return solution


def build_regression_cf(
    ensemble: Ensemble,
    x_orig: np.ndarray,
    targets: np.ndarray | float = 0.0,
    config: CfConfig = CfConfig(),
) -> optim.ConvexProblem:
    """Assemble the relaxed program for an ensemble of regression residuals.

    With zero targets the constraints ask every virtual sensor's residual on
    the corrected snapshot to vanish within its tolerance, which is exactly
    the no-alarm condition.  Large slack always keeps the program feasible.
    """
    problem, _ = _regression_program(ensemble, x_orig, targets, config)
    return problem


def _regression_program(
    ensemble: Ensemble,
    x_orig: np.ndarray,
    targets: np.ndarray | float,
    config: CfConfig,
):
    x_orig = np.asarray(x_orig, dtype=float)
    if x_orig.shape != (ensemble.n_sensors,):
        raise ValueError(
            f"snapshot has shape {x_orig.shape}, expected ({ensemble.n_sensors},)"
        )
    k = len(ensemble.models)
    y_cf = np.broadcast_to(np.asarray(targets, dtype=float), (k,))
    G, bias = _residual_geometry(ensemble.models, x_orig.shape[0])
    r0 = G @ x_orig + bias - y_cf
    tol = config.tolerance_vector(k)
    problem, layout = _build_program(G, r0, config, tol)
    return problem, (layout, G, r0, tol)


def ensemble_counterfactual(
    ensemble: Ensemble,
    x_orig: np.ndarray,
    config: CfConfig = CfConfig(),
    targets: np.ndarray | float = 0.0,
    solver_options: dict | None = None,
    warm_start: Counterfactual | None = None,
) -> Counterfactual:
    """One consistent change vector satisfying every model at once.

    ``warm_start``, the explanation of a nearby snapshot by the same
    ensemble and config, lets the solver try that optimum's active set
    first; the result is certified either way.
    """
    problem, (layout, G, r0, tol) = _regression_program(
        ensemble, x_orig, targets, config
    )
    solution = _solve_program(problem, solver_options, warm_start)
    x_orig = np.asarray(x_orig, dtype=float)
    cf = _decode(solution, layout, G, r0, tol, config, x_orig)
    if cf.feasible_without_slack:
        _certify_regression(G, r0, tol, cf, config.dist)
    return cf


def _error_measure(errors: np.ndarray, dist: str) -> np.ndarray:
    return np.abs(errors) if dist == "abs" else errors**2


def _certify_regression(
    G: np.ndarray, r0: np.ndarray, tol: np.ndarray, cf: Counterfactual, dist: str
) -> None:
    measured = _error_measure(G @ cf.delta + r0, dist)
    excess = float(np.max(measured - tol, initial=0.0))
    if excess > FEASIBLE_SLACK_TOL:
        raise ExplainError(
            f"slack-free counterfactual fails re-evaluation by {excess:.2e}"
        )


def independent_counterfactual(
    model: LinearModel,
    x_orig: np.ndarray,
    y_cf: float = 0.0,
    config: CfConfig = CfConfig(),
    solver_options: dict | None = None,
    warm_start: Counterfactual | None = None,
) -> Counterfactual:
    """Counterfactual for a single model; the per-model baseline.

    Same construction as the ensemble path restricted to one constraint, so
    an ensemble of one reproduces this optimum.
    """
    single = Ensemble(models=(model,), window=model.window)
    return ensemble_counterfactual(
        single,
        x_orig,
        config=config,
        targets=float(y_cf),
        solver_options=solver_options,
        warm_start=warm_start,
    )


def classification_ensemble_cf(
    classifiers: list[LinearClassifier] | tuple[LinearClassifier, ...],
    x_orig: np.ndarray,
    targets,
    config: CfConfig = CfConfig(),
    solver_options: dict | None = None,
) -> Counterfactual:
    """Consistent counterfactual for binary linear classifiers.

    Each constraint asks target * decision(x_cf) to be nonnegative (with a
    tiny strict margin so boundary points do not count), softened by slack.
    """
    x_orig = np.asarray(x_orig, dtype=float)
    if not classifiers:
        raise ValueError("at least one classifier is required")
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (len(classifiers),):
        raise ValueError("one target label per classifier is required")
    if not np.all(np.isin(targets, (-1.0, 1.0))):
        raise ValueError("targets must be -1 or +1")

    n = x_orig.shape[0]
    k = len(classifiers)
    layout = _Layout(n=n, k=k, complexity=config.complexity, dist=config.dist)
    nd = layout.n_delta_vars
    V = np.vstack([c.weights for c in classifiers])
    if V.shape[1] != n:
        raise ValueError("classifier dimensionality does not match the snapshot")
    scores = V @ x_orig + np.array([c.bias for c in classifiers])
    Vd = _delta_columns(layout, targets[:, None] * V)

    n_vars = nd + k
    rows = []
    lo = []
    hi = []
    for j in range(k):
        row = np.zeros(n_vars)
        row[:nd] = Vd[j]
        row[nd + j] = 1.0
        rows.append(row)
        lo.append(_CLASSIFIER_MARGIN - targets[j] * scores[j])
        hi.append(np.inf)
    bound_first = 0 if config.complexity == "l1" else nd
    for idx in range(bound_first, n_vars):
        row = np.zeros(n_vars)
        row[idx] = 1.0
        rows.append(row)
        lo.append(0.0)
        hi.append(np.inf)

    q = np.zeros(n_vars)
    q[nd:] = config.slack_penalty
    P = np.zeros((n_vars, n_vars))
    if config.complexity == "l1":
        q[:nd] += 1.0
    else:
        P[np.arange(n), np.arange(n)] = 2.0
    problem = optim.ConvexProblem(
        P=P, q=q, A=np.vstack(rows), l=np.array(lo), u=np.array(hi)
    )
    solution = _solve_program(problem, solver_options)
    delta = layout.delta_of(solution.z)
    x_cf = x_orig + delta
    bias = np.array([c.bias for c in classifiers])
    slacks = np.clip(_CLASSIFIER_MARGIN - targets * (V @ x_cf + bias), 0.0, None)
    theta = float(np.abs(delta).sum()) if config.complexity == "l1" else float(delta @ delta)
    cf = Counterfactual(
        delta=delta,
        x_cf=x_cf,
        slacks=np.asarray(slacks, dtype=float),
        objective=theta + config.slack_penalty * float(slacks.sum()),
        feasible_without_slack=bool(np.max(slacks, initial=0.0) <= FEASIBLE_SLACK_TOL),
        iterations=solution.iterations,
        solution=solution,
    )
    if cf.feasible_without_slack:
        agreement = targets * (V @ cf.x_cf + np.array([c.bias for c in classifiers]))
        if np.min(agreement, initial=0.0) < -1e-9:
            raise ExplainError("slack-free counterfactual violates a classifier target")
    return cf


def certificate_margin(
    ensemble: Ensemble,
    cf: Counterfactual,
    tolerances: float | np.ndarray,
    dist: str = "abs",
) -> float:
    """Largest re-evaluated constraint excess over its tolerance at x_cf.

    Nonpositive (up to 1e-6) whenever the counterfactual was slack-free;
    used by tests and the pipeline as the no-alarm certificate.
    """
    measured = _error_measure(snapshot_residuals(ensemble, cf.x_cf), dist)
    tol = np.broadcast_to(np.asarray(tolerances, dtype=float), measured.shape)
    return float(np.max(measured - tol, initial=-math.inf))
