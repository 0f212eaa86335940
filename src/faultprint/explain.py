"""Ensemble-consistent counterfactual explanations for linear models.

Given a snapshot of sensor readings that triggered an alarm, find one
minimal per-sensor change vector such that every virtual sensor in the
ensemble is simultaneously satisfied on the corrected snapshot.  Slack
variables keep the program feasible; their penalty makes slack a last
resort.  The same construction restricted to a single model yields the
independent per-model counterfactual used as a baseline, and with
one-sided rows it explains an ensemble of binary linear classifiers.

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
_KEPT_PROGRAM = "_kept_program"  # an owner's attribute: (key, program) of its latest call


class ExplainError(RuntimeError):
    """Raised when a counterfactual cannot be certified."""


@dataclass(frozen=True)
class CfConfig:
    """Counterfactual program settings.

    ``slack_penalty`` weights constraint violations; ``complexity`` picks the
    change-size measure (l1 keeps explanations sparse, l2 spreads them);
    ``dist`` penalizes prediction error as absolute or squared deviation;
    ``tolerances`` is the per-constraint error allowance (scalar broadcasts);
    an array is kept as a frozen copy, a scalar as a float.
    """

    slack_penalty: float = 1e3
    complexity: str = "l1"
    dist: str = "abs"
    tolerances: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        # Written so that NaN fails each check.
        if not 0 < self.slack_penalty < np.inf:
            raise ValueError("slack_penalty must be positive and finite")
        if self.complexity not in ("l1", "l2"):
            raise ValueError("complexity must be 'l1' or 'l2'")
        if self.dist not in ("abs", "squared"):
            raise ValueError("dist must be 'abs' or 'squared'")
        tolerances = np.array(self.tolerances, dtype=float)  # a copy to freeze
        if not ((tolerances >= 0) & (tolerances < np.inf)).all():
            raise ValueError("tolerances must be nonnegative and finite")
        if tolerances.ndim:
            tolerances.flags.writeable = False
        else:
            tolerances = float(tolerances)
        object.__setattr__(self, "tolerances", tolerances)

    def __eq__(self, other) -> bool:
        # Field by field: the generated tuple comparison cannot take arrays.
        if not isinstance(other, CfConfig):
            return NotImplemented
        same = (self.slack_penalty, self.complexity, self.dist) == (
            other.slack_penalty, other.complexity, other.dist
        )
        return same and np.array_equal(self.tolerances, other.tolerances)

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
    excess: float  # largest miss of a row's tolerance, re-evaluated at x_cf
    solution: optim.Solution  # the certified solve it came from

    def __post_init__(self) -> None:
        if not (np.isfinite(self.delta).all() and np.isfinite(self.x_cf).all()):
            raise ValueError("counterfactual contains non-finite values")


@dataclass(frozen=True)
class LinearClassifier:
    """Binary linear classifier sign(weights @ x + bias)."""

    weights: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float, order="C")  # a copy to freeze
        if weights.ndim != 1:
            raise ValueError("classifier weights must be a vector")
        if not np.isfinite(weights).all() or not np.isfinite(self.bias):
            raise ValueError("classifier weights and bias must be finite")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    def __eq__(self, other) -> bool:
        # Field by field: the generated tuple comparison cannot take arrays.
        if not isinstance(other, LinearClassifier):
            return NotImplemented
        return self.bias == other.bias and np.array_equal(self.weights, other.weights)

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
    if not optim.is_integer(t):
        raise ValueError(f"t must be an integer, got {t!r}")
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


class _Program:
    """The relaxed program for residual rows e = G delta + r0, for any r0.

    A two-sided row asks |e| <= tol (absolute error) or e^2 <= tol (squared
    error), a one-sided row e >= tol; slack, priced by ``cfg.slack_penalty``,
    softens each.  Variables are the change block (split into positive and
    negative parts for l1), then one slack s per residual row.  Every
    two-sided row has one layout, e - c s <= edge and -e - c s <= edge, with
    edge = tol (absolute) or sqrt(tol) (squared); a one-sided row is
    e + s >= tol.  Each residual row contributes consecutive constraint rows,
    and the nonnegativity rows (s >= 0, and the l1 change parts) come last.

    The two errors differ only in ``edge``, the slack's price and its column
    scale c.  Absolute error prices lam s with c = 1.  Squared error prices
    lam (v^2 + 2 edge v) for v = c s, which at the optimum, v = max(0, |e| -
    edge), equals lam max(0, e^2 - tol): the solver's objective is the
    explanation's.  c = 1 / (2 sqrt(lam)) makes the slack's curvature 1/2 at
    every penalty, which keeps the polish's KKT systems well conditioned (near
    5 on the seed-1 stream at lam = 1e3, against 4e6 with c = 1).  One-sided
    rows are priced as absolute error, so ``cfg.dist`` must be ``abs`` when
    any row is one-sided.

    The snapshot enters through r0 = G x + bias - targets, and r0 only
    through the bounds: P, q and A are built and validated once, and
    :meth:`at` fills in each snapshot's l and u.
    """

    def __init__(self, G, bias, targets, tol, one_sided, cfg: CfConfig):
        self.G, self.bias, self.targets = G, bias, targets
        self.tol, self.one_sided, self.cfg = tol, one_sided, cfg
        k = G.shape[0]
        l1 = cfg.complexity == "l1"
        Gd = np.concatenate([G, -G], axis=1) if l1 else G
        nd = Gd.shape[1]
        lam = cfg.slack_penalty
        if cfg.dist == "squared":
            c, edge = 0.5 / math.sqrt(lam), np.sqrt(tol)
            p_rows, q_rows = np.full(k, 2.0 * lam * c * c), 2.0 * lam * c * edge
        else:
            c, edge = 1.0, tol
            p_rows, q_rows = np.zeros(k), np.full(k, lam)
        self._slack_scale, self._edge = c, edge
        # Constraint row i holds residual row src[i]: two-sided, sign e - c s
        # <= edge - sign r0, with sign -1 on the pair's second row; one-sided,
        # e + s >= edge - r0.  The nonnegativity rows follow.
        src = np.repeat(np.arange(k), np.where(one_sided, 1, 2))
        sign = np.where(np.diff(src, prepend=-1) == 0, -1.0, 1.0)
        lower = one_sided[src]  # the bound that moves with r0 is l, else u
        slack = np.zeros((src.size, k))
        slack[np.arange(src.size), src] = np.where(lower, c, -c)
        nonneg = np.eye(nd + k)[0 if l1 else nd :]
        m = src.size + nonneg.shape[0]
        # l and u as one vector, so one assignment per snapshot fills both
        inf = np.full(src.size, np.inf)
        self._bounds = np.concatenate([
            np.where(lower, edge[src], -inf), np.zeros(nonneg.shape[0]),
            np.where(lower, inf, edge[src]), np.full(nonneg.shape[0], np.inf),
        ])
        self._moving = np.arange(src.size) + np.where(lower, 0, m)
        self._sign, self._source = -sign, src
        self._base = optim.ConvexProblem(
            P=np.diag(np.concatenate([np.full(nd, 0.0 if l1 else 2.0), p_rows])),
            q=np.concatenate([np.full(nd, 1.0 if l1 else 0.0), q_rows]),
            A=np.concatenate([np.hstack([sign[:, None] * Gd[src], slack]), nonneg]),
            l=np.full(m, -np.inf),
            u=np.full(m, np.inf),
        )
        self._has_vertex = k == 1 and not one_sided[0]  # see vertex_duals

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.G @ x + self.bias - self.targets

    def vertex_duals(self, problem: optim.ConvexProblem, r0: np.ndarray) -> np.ndarray | None:
        """Dual signs of the optimum of ``problem``, this program at r0; None
        unless the program has one two-sided row (a per-model explanation).

        The optimum's final residual e has the sign of r0 and ``|e| =
        min(|r0|, max(edge, stop))``: the penalty starts at ``edge`` (tol, or
        sqrt(tol) for squared error), and the change's marginal cost meets
        the penalty's at ``stop``.  The change goes on the largest |g_i| (l1)
        or along g (l2), and the slack is max(0, |e| - edge) / c.  A row where
        the point sits at ``u`` gets +1, at ``l`` -1.
        """
        if not self._has_vertex:
            return None
        r, edge, g, lam = float(r0[0]), float(self._edge[0]), self.G[0], self.cfg.slack_penalty
        l1, squared = self.cfg.complexity == "l1", self.cfg.dist == "squared"
        i = int(np.abs(g).argmax())
        top, norm2 = abs(float(g[i])), float(g @ g)
        if l1:
            stop = 0.5 / (lam * top) if squared else (math.inf if lam * top < 1.0 else -math.inf)
        else:
            stop = abs(r) / (1.0 + lam * norm2) if squared else abs(r) - lam * norm2 / 2.0
        e = math.copysign(min(abs(r), max(edge, stop)), r)
        z = np.zeros(problem.n_vars)
        z[-1] = max(0.0, abs(e) - edge) / self._slack_scale
        if l1:  # on the largest |g_i|, as its positive or its negative part
            z[i if (e > r) == (g[i] > 0) else g.size + i] = abs(e - r) / top
        else:
            z[: g.size] = (e - r) / norm2 * g
        Az = problem.A @ z
        gap = 1e-9 * (1.0 + np.abs(Az).max())
        duals = np.zeros(problem.n_constraints)
        duals[problem.u - Az <= gap] = 1.0
        duals[Az - problem.l <= gap] = -1.0
        return duals

    def at(self, r0: np.ndarray) -> optim.ConvexProblem:
        """The program for residuals r0; only its bounds are computed."""
        bounds = self._bounds.copy()
        bounds[self._moving] += self._sign * r0[self._source]
        m = self._base.n_constraints
        return self._base.with_bounds(bounds[:m], bounds[m:])


def _decode(
    solution: optim.Solution,
    program: _Program,
    r0: np.ndarray,
    x_orig: np.ndarray,
) -> Counterfactual:
    """The counterfactual a certified solution of ``program`` encodes.

    Slacks are recovered from the decoded change vector (the exact optimal
    slack given delta), not from the solver's internal slack variables.  The
    residual rows are re-evaluated on the corrected snapshot itself; their
    largest excess there is kept, and a slack-free result is rejected if it
    is over ``FEASIBLE_SLACK_TOL``.
    """
    G, tol, one_sided, cfg = program.G, program.tol, program.one_sided, program.cfg
    n = G.shape[1]
    l1 = cfg.complexity == "l1"
    delta = solution.z[:n] - solution.z[n : 2 * n] if l1 else solution.z[:n]
    slacks = np.maximum(_excess(G @ delta + r0, tol, one_sided, cfg.dist), 0.0)
    theta = float(np.abs(delta).sum()) if l1 else float(delta @ delta)
    x_cf = x_orig + delta
    cf = Counterfactual(
        delta=delta,
        x_cf=x_cf,
        slacks=slacks,
        objective=theta + cfg.slack_penalty * float(slacks.sum()),
        feasible_without_slack=bool(np.max(slacks, initial=0.0) <= FEASIBLE_SLACK_TOL),
        excess=float(np.max(_excess(program.residual(x_cf), tol, one_sided, cfg.dist))),
        solution=solution,
    )
    if cf.feasible_without_slack and cf.excess > FEASIBLE_SLACK_TOL:
        raise ExplainError(
            f"slack-free counterfactual fails re-evaluation by {cf.excess:.2e}"
        )
    return cf


def _error_measure(errors: np.ndarray, dist: str) -> np.ndarray:
    return np.abs(errors) if dist == "abs" else errors**2


def _excess(
    errors: np.ndarray, tol: np.ndarray, one_sided: np.ndarray, dist: str
) -> np.ndarray:
    """Per-row amount by which residuals miss their tolerances."""
    return np.where(one_sided, tol - errors, _error_measure(errors, dist) - tol)


def _counterfactual(
    program: _Program,
    x_orig: np.ndarray,
    solver_options: dict | None,
    warm_start: Counterfactual | None = None,
) -> Counterfactual:
    """Explain ``x_orig`` against the program's residual rows.

    The solve starts from the program's closed-form duals when it has them
    (:meth:`_Program.vertex_duals`), and otherwise from the warm start's.
    Every problem made from one program shares its factorizations (see
    :meth:`optim.ConvexProblem.with_bounds`), with or without a warm start.
    """
    x_orig = np.asarray(x_orig, dtype=float)
    n = program.G.shape[1]
    if x_orig.shape != (n,):
        raise ValueError(f"snapshot has shape {x_orig.shape}, expected ({n},)")
    if not np.isfinite(x_orig).all():
        raise ValueError("snapshot contains non-finite readings")
    r0 = program.residual(x_orig)
    problem = program.at(r0)
    start = None if warm_start is None else warm_start.solution.y
    m = problem.n_constraints
    if start is not None and start.shape != (m,):
        raise ValueError(f"warm start has {start.shape[0]} rows, the program {m}")
    guess = program.vertex_duals(problem, r0)
    solution = optim.solve(
        problem, **(solver_options or {}), dual_guess=start if guess is None else guess
    )
    if solution.status is not optim.SolveStatus.OPTIMAL:
        raise ExplainError(
            f"counterfactual solve ended with status {solution.status.value} "
            f"after {solution.iterations} iterations "
            f"(kkt primal {solution.kkt.primal:.2e}, dual {solution.kkt.dual:.2e})"
        )
    return _decode(solution, program, r0, x_orig)


def _linear_counterfactual(
    owner: Ensemble | LinearModel,
    models: tuple[LinearModel, ...],
    x_orig: np.ndarray,
    config: CfConfig,
    targets: np.ndarray | float,
    solver_options: dict | None,
    warm_start: Counterfactual | None,
) -> Counterfactual:
    """Explain ``x_orig`` against ``models``, with the program kept on ``owner``.

    The owner keeps the program of its latest call, which is reused when the
    targets, as given (shape and bytes), are the same and the config is
    equal.  Models are frozen, so the program is a function of those alone.
    It is kept as a plain attribute of the owner, not a dataclass field, so
    it is not compared, shown or saved, nor returned by ``fields`` or
    ``asdict``; a ``copy.copy`` keeps its own.
    """
    targets = np.asarray(targets, dtype=float)
    key = (targets.shape, targets.tobytes(), config)  # a tuple takes `is` before __eq__
    kept_key, program = vars(owner).get(_KEPT_PROGRAM, (None, None))
    if kept_key != key:
        k = len(models)
        tolerances = np.asarray(config.tolerances)
        for name, given in (("targets", targets), ("tolerances", tolerances)):
            if given.ndim and given.shape != (k,):
                raise ValueError(f"{name} has shape {given.shape}, not () or ({k},) for {k} models")
        G, bias = _residual_geometry(models, models[0].n_sensors)
        program = _Program(
            G, bias, np.broadcast_to(targets, (k,)).copy(), config.tolerance_vector(k),
            np.zeros(k, dtype=bool), config,
        )
        object.__setattr__(owner, _KEPT_PROGRAM, (key, program))  # owners are frozen
    return _counterfactual(program, x_orig, solver_options, warm_start)


def ensemble_counterfactual(
    ensemble: Ensemble,
    x_orig: np.ndarray,
    config: CfConfig = CfConfig(),
    targets: np.ndarray | float = 0.0,
    solver_options: dict | None = None,
    warm_start: Counterfactual | None = None,
) -> Counterfactual:
    """One consistent change vector satisfying every model at once.

    With zero targets the constraints ask every virtual sensor's residual on
    the corrected snapshot to vanish within its tolerance, which is exactly
    the no-alarm condition; slack keeps the program feasible.
    A solve starts from one dual guess: the closed-form optimum's when the
    ensemble has one model (as :func:`independent_counterfactual` starts),
    and otherwise ``warm_start``'s, the explanation of a nearby snapshot by
    the same ensemble and config, whose active set the solver then tries
    first.  The result is certified either way, and a warm start of another
    row count is rejected in both cases.
    The ensemble keeps its latest program, so calls with the same targets
    and config build and validate it once.
    """
    return _linear_counterfactual(
        ensemble, ensemble.models, x_orig, config, targets, solver_options, warm_start
    )


def independent_counterfactual(
    model: LinearModel,
    x_orig: np.ndarray,
    y_cf: float = 0.0,
    config: CfConfig = CfConfig(),
    solver_options: dict | None = None,
) -> Counterfactual:
    """Counterfactual for a single model; the per-model baseline.

    Same construction as the ensemble path restricted to one constraint, so
    an ensemble of one reproduces this optimum.  The model keeps its latest
    program, as an ensemble does.  In every config the optimum is known in
    closed form, and the solve starts there
    (:meth:`_Program.vertex_duals`): it still runs and is certified, and
    its result depends on the model, the snapshot and the config alone.
    """
    return _linear_counterfactual(
        model, (model,), x_orig, config, float(y_cf), solver_options, None
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
    tiny strict margin so boundary points do not count), softened by slack:
    a one-sided row of the same program, priced as absolute error.  So
    ``config.dist`` must be ``abs`` and ``config.tolerances`` zero; the
    other fields apply as given.
    """
    if config.dist != "abs":
        raise ValueError(
            f"classifier rows price absolute error: dist must be 'abs', not {config.dist!r}"
        )
    if np.any(config.tolerances):
        raise ValueError("classifier rows have a fixed margin: tolerances must be 0")
    if not classifiers:
        raise ValueError("at least one classifier is required")
    targets = np.asarray(targets, dtype=float)
    k = len(classifiers)
    if targets.shape != (k,):
        raise ValueError("one target label per classifier is required")
    if not np.all(np.isin(targets, (-1.0, 1.0))):
        raise ValueError("targets must be -1 or +1")
    n = classifiers[0].weights.shape[0]
    for index, clf in enumerate(classifiers):
        if clf.weights.shape != (n,):
            raise ValueError(
                f"classifier {index} has {clf.weights.shape[0]} weights, "
                f"expected {n} as classifier 0 has"
            )
    V = np.vstack([c.weights for c in classifiers])
    program = _Program(
        targets[:, None] * V,
        targets * np.array([c.bias for c in classifiers]),
        0.0,
        np.full(k, _CLASSIFIER_MARGIN),
        np.ones(k, dtype=bool),
        config,
    )
    return _counterfactual(program, x_orig, solver_options)


def certificate_margin(
    ensemble: Ensemble,
    cf: Counterfactual,
    tolerances: float | np.ndarray,
    dist: str = "abs",
) -> float:
    """Largest re-evaluated constraint excess over its tolerance at x_cf.

    Nonpositive (up to 1e-6) whenever the counterfactual was slack-free.
    Rebuilt from the ensemble's models, apart from the explanation's program:
    tests and the benchmark harness check ``Counterfactual.excess`` with it.
    """
    if dist not in ("abs", "squared"):
        raise ValueError(f"dist must be 'abs' or 'squared', not {dist!r}")
    measured = _error_measure(snapshot_residuals(ensemble, cf.x_cf), dist)
    tol = np.broadcast_to(np.asarray(tolerances, dtype=float), measured.shape)
    return float(np.max(measured - tol, initial=-math.inf))
