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
from .values import (
    all_finite, check_integer, check_real, fields_equal, fields_hash, frozen_array,
)

FEASIBLE_SLACK_TOL = 1e-6
_CLASSIFIER_MARGIN = 1e-6  # excludes exact decision-boundary solutions
# An owner's attributes: (key, _Stack) of its latest call, for its consistent
# program and for its per-model programs.
_KEPT_PROGRAM, _KEPT_BASELINE = "_kept_program", "_kept_baseline"


class ExplainError(RuntimeError):
    """Raised when a counterfactual cannot be certified.

    ``row`` is the index of the snapshot whose explanation failed, among
    the rows a call explains (0 for a single snapshot); None once a caller
    has named the snapshot in the message.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def _tolerance_array(tolerances) -> np.ndarray:
    """A frozen float copy of ``tolerances``, which must be nonnegative and finite."""
    tolerances = frozen_array("tolerances", tolerances)
    if not ((tolerances >= 0) & (tolerances < np.inf)).all():  # NaN fails too
        raise ValueError("tolerances must be nonnegative and finite")
    return tolerances


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

    __eq__, __hash__ = fields_equal, fields_hash

    def __post_init__(self) -> None:
        check_real("slack_penalty", self.slack_penalty)
        if not self.slack_penalty > 0:
            raise ValueError(f"slack_penalty must be positive, got {self.slack_penalty!r}")
        if self.complexity not in ("l1", "l2"):
            raise ValueError("complexity must be 'l1' or 'l2'")
        if self.dist not in ("abs", "squared"):
            raise ValueError("dist must be 'abs' or 'squared'")
        tolerances = _tolerance_array(self.tolerances)
        object.__setattr__(self, "tolerances", tolerances if tolerances.ndim else float(tolerances))

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

    __eq__, __hash__ = fields_equal, fields_hash

    def __post_init__(self) -> None:
        if not (all_finite(self.delta) and all_finite(self.x_cf)):
            raise ValueError("counterfactual contains non-finite values")


@dataclass(frozen=True)
class LinearClassifier:
    """Binary linear classifier sign(weights @ x + bias)."""

    weights: np.ndarray
    bias: float

    __eq__, __hash__ = fields_equal, fields_hash

    def __post_init__(self) -> None:
        weights = frozen_array("weights", self.weights)
        if weights.ndim != 1:
            raise ValueError("classifier weights must be a vector")
        if not np.isfinite(weights).all():
            raise ValueError("classifier weights must be finite")
        check_real("bias", self.bias)
        object.__setattr__(self, "weights", weights)

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
    check_integer("t", t)
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


class _Stack:
    """Relaxed programs of one layout, each explained on many snapshots in
    one pass.

    Program p holds residual rows e = G[p] delta + r0 for any r0.  A
    two-sided row asks |e| <= tol (absolute error) or e^2 <= tol (squared
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

    The P programs are given stacked: G as ``(P, k, n)``, ``bias``,
    ``targets`` and ``tol`` as ``(P, k)``.  They share their config, their
    rows' sides ``one_sided`` ``(k,)`` and the snapshot length: an
    ensemble's per-model programs, or one program alone (a stack of one).
    The row layout depends on ``one_sided``, the config and k alone, so it
    is worked out once for all of them.  A snapshot enters through r0 = G x
    + bias - targets, and r0 only through the bounds: each program's P, q
    and A are built and validated once, as its base problem, and the pass
    fills in each snapshot's l and u.  Those are a constant row plus r0
    times a constant ``(k, 2m)`` matrix, which has ``-sign`` at each
    constraint row's residual row and moving bound, so the stack keeps no
    state from one pass to the next.  A pass computes every program's
    residuals r0 at every snapshot, fills in and validates all their bounds
    at once, gives one-row programs their closed-form duals and decodes
    every certified solution; each program keeps its own problem family,
    and each problem its own ``optim.solve``.  A pass's arrays carry S
    snapshots first and the P programs second, ``(S, P, ...)``, and its
    problems run through them in that order.  The programs' own arrays are
    kept as ``(1, P, ...)``: at one snapshot every elementwise step then
    meets arrays of one shape, which NumPy runs without broadcasting.  Each
    product with G or A is one ``np.matmul`` over the stack: its loop runs
    each program's product at each snapshot as that program's own 2-D
    ``@`` does, so a program rounds alike in a stack and alone, at one
    snapshot or at many.
    ``prefixes`` start each program's error messages.
    """

    def __init__(
        self, G, bias, targets, tol, one_sided, cfg: CfConfig,
        prefixes: tuple[str, ...] | None = None,
    ):
        count, k, _ = G.shape
        self.cfg, self.one_sided = cfg, one_sided
        self.prefixes = prefixes or ("",) * count
        self.G, self.bias, self.targets, self.tol = G[None], bias[None], targets[None], tol[None]
        l1 = cfg.complexity == "l1"
        Gd = np.concatenate([G, -G], axis=2) if l1 else G
        nd = Gd.shape[2]
        lam = cfg.slack_penalty
        if cfg.dist == "squared":
            c, edge = 0.5 / math.sqrt(lam), np.sqrt(tol)
            p_rows, q_rows = np.full(k, 2.0 * lam * c * c), 2.0 * lam * c * edge
        else:
            c, edge = 1.0, tol
            p_rows, q_rows = np.zeros(k), np.full((count, k), lam)
        self._slack_scale, self._edge = c, edge[None]
        # Constraint row i holds residual row src[i]: two-sided, sign e - c s
        # <= edge - sign r0, with sign -1 on the pair's second row; one-sided,
        # e + s >= edge - r0.  The nonnegativity rows follow.
        src = np.repeat(np.arange(k), np.where(one_sided, 1, 2))
        sign = np.where(np.diff(src, prepend=-1) == 0, -1.0, 1.0)
        lower = one_sided[src]  # the bound that moves with r0 is l, else u
        nonneg = np.eye(nd + k)[0 if l1 else nd :]
        m = src.size + nonneg.shape[0]
        # l and u as one row, so one product per pass fills both
        self._bounds = np.full((1, count, 2 * m), np.inf)
        self._bounds[0, :, : src.size] = np.where(lower, edge[:, src], -np.inf)
        self._bounds[0, :, src.size : m] = 0.0
        self._bounds[0, :, m : m + src.size] = np.where(lower, np.inf, edge[:, src])
        # r0 moves row i's moving bound by -sign r0[src[i]]: a column holds
        # at most that one nonzero, so the product adds it and signed zeros.
        self._shift = np.zeros((k, 2 * m))
        self._shift[src, np.arange(src.size) + np.where(lower, 0, m)] = -sign
        self.A = np.zeros((1, count, m, nd + k))
        self.A[0, :, : src.size, :nd] = sign[:, None] * Gd[:, src]
        self.A[0][:, np.arange(src.size), nd + src] = np.where(lower, c, -c)
        self.A[0, :, src.size :] = nonneg
        curvature = np.diag(np.concatenate([np.full(nd, 0.0 if l1 else 2.0), p_rows]))
        q = np.concatenate([np.full((count, nd), 1.0 if l1 else 0.0), q_rows], axis=1)
        free = np.full(m, np.inf)
        self.bases = tuple(
            optim.ConvexProblem(P=curvature, q=q[p], A=self.A[0, p], l=-free, u=free)
            for p in range(count)
        )
        # Only a program of one two-sided row has a closed form (vertex_duals).
        self._has_vertex = one_sided.shape == (1,) and not one_sided[0]

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Each program's r0 = G x + bias - targets at x, as ``(S, P, k)``;
        x holds each snapshot's row for all programs, ``(S, 1, n)``, or one
        row per program, ``(S, P, n)``."""
        return np.matmul(self.G, x[..., None])[..., 0] + self.bias - self.targets

    def bounds(self, r0: np.ndarray) -> np.ndarray:
        """Each program's l and u at its row of r0 ``(S, P, k)``, as one row
        ``[l, u]`` of ``(S, P, 2m)``."""
        return self._bounds + np.matmul(r0, self._shift)

    def problems(self, bounds: np.ndarray) -> tuple[optim.ConvexProblem, ...]:
        """Each program's problem at each of its rows of :meth:`bounds`: the
        first snapshot's, in program order, then the next snapshot's."""
        m = self.bases[0].n_constraints
        rows = bounds.reshape(-1, 2 * m)
        return optim.ConvexProblem.each_with_bounds(
            self.bases * bounds.shape[0], rows[:, :m], rows[:, m:]
        )

    def vertex_duals(self, bounds: np.ndarray, r0: np.ndarray) -> np.ndarray | None:
        """Dual signs of each program's optimum at its rows of :meth:`bounds`
        and of r0, as ``(S, P, m)``; None unless the programs have one
        two-sided row each (per-model explanations).

        The optimum's final residual e has the sign of r0 and ``|e| =
        min(|r0|, max(edge, stop))``: the penalty starts at ``edge`` (tol, or
        sqrt(tol) for squared error), and the change's marginal cost meets
        the penalty's at ``stop``.  The change goes on the largest |g_i| (l1)
        or along g (l2), and the slack is max(0, |e| - edge) / c.  A row where
        the point sits at ``u`` gets +1, at ``l`` -1.
        """
        if not self._has_vertex:
            return None
        lam, l1 = self.cfg.slack_penalty, self.cfg.complexity == "l1"
        squared = self.cfg.dist == "squared"
        r, edge, g = r0[:, :, 0], self._edge[:, :, 0], self.G[0, :, 0]
        n = g.shape[1]
        i = np.abs(g).argmax(axis=1)
        peak = g[np.arange(g.shape[0]), i]
        top, norm2 = np.abs(peak), np.matmul(g[:, None], g[..., None])[:, 0, 0]
        if l1:
            stop = 0.5 / (lam * top) if squared else np.where(lam * top < 1.0, np.inf, -np.inf)
        else:
            stop = np.abs(r) / (1.0 + lam * norm2) if squared else np.abs(r) - lam * norm2 / 2.0
        e = np.copysign(np.minimum(np.abs(r), np.maximum(edge, stop)), r)
        z = np.zeros(r.shape + (self.bases[0].n_vars,))
        z[:, :, -1] = np.maximum(0.0, np.abs(e) - edge) / self._slack_scale
        if l1:  # on the largest |g_i|, as its positive or its negative part
            column = np.where((e > r) == (peak > 0), i, n + i)
            np.put_along_axis(z, column[..., None], (np.abs(e - r) / top)[..., None], axis=2)
        else:
            z[:, :, :n] = ((e - r) / norm2)[..., None] * g
        Az = np.matmul(self.A, z[..., None])[..., 0]
        gap = 1e-9 * (1.0 + np.abs(Az).max(axis=2, keepdims=True))
        m = Az.shape[2]
        duals = np.zeros_like(Az)
        duals[bounds[:, :, m:] - Az <= gap] = 1.0
        duals[Az - bounds[:, :, :m] <= gap] = -1.0
        return duals


def _decode(
    solutions: list[optim.Solution],
    stack: _Stack,
    r0: np.ndarray,
    snapshots: np.ndarray,
) -> tuple[Counterfactual, ...]:
    """The counterfactual each certified solution of the stack's programs encodes.

    ``snapshots`` are ``(S, n)``, ``r0`` their ``(S, P, k)`` residuals, and
    ``solutions`` and the result run through them as
    :meth:`_Stack.problems` does.  Slacks are recovered from the decoded
    change vector (the exact optimal slack given delta), not from the
    solver's internal slack variables.  The residual rows are re-evaluated
    on each corrected snapshot itself; their largest excess there is kept,
    and a slack-free result is rejected if it is over
    ``FEASIBLE_SLACK_TOL``, the error naming its program and its
    snapshot's row.
    """
    cfg, n = stack.cfg, snapshots.shape[1]
    l1 = cfg.complexity == "l1"
    z = np.array([solution.z for solution in solutions])
    delta = z[:, :n] - z[:, n : 2 * n] if l1 else z[:, :n]
    changes = delta.reshape(r0.shape[:2] + (n,))
    x_cf = snapshots[:, None] + changes
    fitted = np.matmul(stack.G, changes[..., None])[..., 0] + r0
    slacks = np.maximum(_excess(fitted, stack.tol, stack.one_sided, cfg.dist), 0.0)
    slacks = slacks.reshape(len(solutions), -1)
    if l1:
        theta = np.add.reduce(np.abs(delta), axis=1)
    else:
        theta = np.matmul(delta[:, None], delta[..., None])[:, 0, 0]
    objective = theta + cfg.slack_penalty * np.add.reduce(slacks, axis=1)
    free = np.maximum.reduce(slacks, axis=1, initial=0.0) <= FEASIBLE_SLACK_TOL
    refit = _excess(stack.residuals(x_cf), stack.tol, stack.one_sided, cfg.dist)
    excess = np.maximum.reduce(refit, axis=2)
    decoded = tuple(map(
        Counterfactual, delta, x_cf.reshape(-1, n), slacks, objective.tolist(), free.tolist(),
        excess.ravel().tolist(), solutions,
    ))
    programs = len(stack.bases)
    for j, cf in enumerate(decoded):
        if cf.feasible_without_slack and cf.excess > FEASIBLE_SLACK_TOL:
            raise ExplainError(
                f"{stack.prefixes[j % programs]}slack-free counterfactual fails "
                f"re-evaluation by {cf.excess:.2e}",
                j // programs,
            )
    return decoded


def _error_measure(errors: np.ndarray, dist: str) -> np.ndarray:
    return np.abs(errors) if dist == "abs" else errors**2


def _excess(
    errors: np.ndarray, tol: np.ndarray, one_sided: np.ndarray, dist: str
) -> np.ndarray:
    """Per-row amount by which residuals miss their tolerances."""
    return np.where(one_sided, tol - errors, _error_measure(errors, dist) - tol)


def _explain(
    stack: _Stack,
    snapshots: np.ndarray,
    solver_options: dict | None,
    warm_start: Counterfactual | None = None,
) -> tuple[Counterfactual, ...]:
    """Explain each row of ``snapshots`` against each of the stack's
    programs, in one pass; the explanations of one snapshot, in program
    order, then the next snapshot's.

    Each solve starts from its program's closed-form duals when the programs
    have them (:meth:`_Stack.vertex_duals`), and otherwise from the warm
    start's.  Every problem made from one program shares its factorizations
    (see :meth:`optim.ConvexProblem.with_bounds`), with or without a warm
    start, and its problems are solved in snapshot order.  A solve that ends
    other than optimal raises :class:`ExplainError` naming its program, with
    its snapshot's row.
    """
    snapshots = np.asarray(snapshots, dtype=float)
    n = stack.G.shape[3]
    if snapshots.ndim != 2 or snapshots.shape[1] != n:
        raise ValueError(f"snapshots have shape {snapshots.shape}, expected (S, {n})")
    if not np.isfinite(snapshots).all():
        raise ValueError("snapshot contains non-finite readings")
    if not snapshots.shape[0]:
        return ()
    r0 = stack.residuals(snapshots[:, None])
    bounds = stack.bounds(r0)
    problems = stack.problems(bounds)
    start = None if warm_start is None else warm_start.solution.y
    m = problems[0].n_constraints
    if start is not None and start.shape != (m,):
        raise ValueError(f"warm start has {start.shape[0]} rows, the program {m}")
    guesses = stack.vertex_duals(bounds, r0)
    if guesses is not None:
        guesses = guesses.reshape(-1, m)
    programs = len(stack.bases)
    solutions = []
    for j, problem in enumerate(problems):
        guess = start if guesses is None else guesses[j]
        solution = optim.solve(problem, **(solver_options or {}), dual_guess=guess)
        if solution.status is not optim.SolveStatus.OPTIMAL:
            raise ExplainError(
                f"{stack.prefixes[j % programs]}counterfactual solve ended with status "
                f"{solution.status.value} after {solution.iterations} iterations "
                f"(kkt primal {solution.kkt.primal:.2e}, dual {solution.kkt.dual:.2e})",
                j // programs,
            )
        solutions.append(solution)
    return _decode(solutions, stack, r0, snapshots)


def _one_row(stack: _Stack, x_orig: np.ndarray) -> np.ndarray:
    """One snapshot of shape ``(n,)``, as the one row :func:`_explain` takes."""
    x_orig = np.asarray(x_orig, dtype=float)
    n = stack.G.shape[3]
    if x_orig.shape != (n,):
        raise ValueError(f"snapshot has shape {x_orig.shape}, expected ({n},)")
    return x_orig[None]


def _check_per_model(name: str, given: np.ndarray, k: int) -> None:
    """``given`` must be a scalar or one value per model."""
    if given.ndim and given.shape != (k,):
        raise ValueError(f"{name} has shape {given.shape}, not () or ({k},) for {k} models")


def _kept_stack(
    owner: Ensemble | LinearModel,
    slot: str,
    models: tuple[LinearModel, ...],
    config: CfConfig,
    targets: np.ndarray | float,
    per_model: bool,
) -> _Stack:
    """The programs that explain snapshots against ``models``, kept on ``owner``.

    ``per_model``: one program per model (its row of the ensemble's, with
    its own target and tolerance), else one program for all of them.  The
    owner keeps, in its attribute ``slot``, the programs of its latest call,
    which are reused when the targets, as given (shape and bytes), are the
    same and the config is equal.  Models are frozen, so the programs are a
    function of those alone.  They are kept as a plain attribute of the
    owner, not a dataclass field, so they are not compared, hashed, shown or
    saved, nor returned by ``fields`` or ``asdict``; a ``copy.copy`` keeps
    its own.
    """
    targets = np.asarray(targets, dtype=float)
    key = (targets.shape, targets.tobytes(), config)  # a tuple takes `is` before __eq__
    kept_key, stack = vars(owner).get(slot, (None, None))
    if kept_key == key:
        return stack
    k = len(models)
    if not np.isfinite(targets).all():
        raise ValueError("targets must be finite")
    _check_per_model("targets", targets, k)
    _check_per_model("tolerances", np.asarray(config.tolerances), k)
    G, bias = _residual_geometry(models, models[0].n_sensors)
    targets, tol = np.broadcast_to(targets, (k,)).copy(), config.tolerance_vector(k)
    at = np.s_[:, None] if per_model else np.s_[None]  # programs first, then rows
    stack = _Stack(
        G[at], bias[at], targets[at], tol[at], np.zeros(1 if per_model else k, dtype=bool), config,
        tuple(f"per-model baseline for sensor {m.target}: " for m in models) if per_model else None,
    )
    object.__setattr__(owner, slot, (key, stack))  # owners are frozen
    return stack


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
    stack = _kept_stack(ensemble, _KEPT_PROGRAM, ensemble.models, config, targets, False)
    return _explain(stack, _one_row(stack, x_orig), solver_options, warm_start)[0]


def baseline_counterfactuals(
    ensemble: Ensemble,
    snapshots: np.ndarray,
    config: CfConfig = CfConfig(),
    targets: np.ndarray | float = 0.0,
    solver_options: dict | None = None,
) -> tuple[tuple[Counterfactual, ...], ...]:
    """Each model's own counterfactual on each snapshot: the per-model baseline.

    ``snapshots`` holds one snapshot per row, ``(S, n)``, and the result one
    tuple per row, with model j's explanation at entry j.  Model j's
    program is the ensemble's row j alone, with target j and tolerance j (a
    scalar broadcasts), as :func:`independent_counterfactual` builds it; so
    entry j equals that function's result for model j, on programs that
    have made the same solves.  A per-model explanation starts from its
    closed-form optimum, so it does not depend on the other rows: row s
    equals this function's result for that row alone.  One stacked pass
    explains every model at every snapshot, and each problem still gets its
    own certified ``optim.solve``, a model's in row order.  An explanation
    that cannot be certified raises :class:`ExplainError` naming its
    model's target sensor, with its row in ``ExplainError.row``.  The
    ensemble keeps these programs apart from its consistent program, so
    alternating the two builds neither again.
    """
    stack = _kept_stack(ensemble, _KEPT_BASELINE, ensemble.models, config, targets, True)
    decoded, programs = _explain(stack, snapshots, solver_options), len(stack.bases)
    return tuple(decoded[s : s + programs] for s in range(0, len(decoded), programs))


def independent_counterfactual(
    model: LinearModel,
    x_orig: np.ndarray,
    y_cf: float = 0.0,
    config: CfConfig = CfConfig(),
    solver_options: dict | None = None,
) -> Counterfactual:
    """Counterfactual for a single model; the per-model baseline.

    Same construction as the ensemble path restricted to one constraint, so
    an ensemble of one reproduces this optimum; it is
    :func:`baseline_counterfactuals` for one model.  The model keeps its
    latest program, as an ensemble does.  In every config the optimum is
    known in closed form, and the solve starts there
    (:meth:`_Stack.vertex_duals`): it still runs and is certified, and its
    result depends on the model, the snapshot and the config alone.
    """
    stack = _kept_stack(model, _KEPT_BASELINE, (model,), config, float(y_cf), True)
    return _explain(stack, _one_row(stack, x_orig), solver_options)[0]


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
    stack = _Stack(
        (targets[:, None] * V)[None],
        (targets * np.array([c.bias for c in classifiers]))[None],
        np.zeros((1, k)),
        np.full((1, k), _CLASSIFIER_MARGIN),
        np.ones(k, dtype=bool),
        config,
    )
    return _explain(stack, _one_row(stack, x_orig), solver_options)[0]


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
    tol = _tolerance_array(tolerances)
    _check_per_model("tolerances", tol, len(ensemble.models))
    measured = _error_measure(snapshot_residuals(ensemble, cf.x_cf), dist)
    return float(np.max(measured - tol, initial=-math.inf))
