"""Windowed linear virtual sensors: fit and serialize.

A virtual sensor predicts one pressure channel from the trailing-window
average of every other channel.  Fitting uses an orthogonal-factorization
least squares solve (never the normal equations, which tests keep as an
independent oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netgen import ReadingsPanel
from .values import check_integer, check_real, fields_equal, fields_hash, frozen_array

DEFAULT_WINDOW = 3
_KEPT_MEANS = "_kept_window_means"


@dataclass(frozen=True)
class LinearModel:
    """One virtual sensor: reading[target] ~ weights @ others + bias."""

    weights: np.ndarray
    bias: float
    target: int
    window: int

    __eq__, __hash__ = fields_equal, fields_hash

    def __post_init__(self) -> None:
        weights = frozen_array("weights", self.weights)
        if weights.ndim != 1:
            raise ValueError("weights must be a vector")
        if not np.isfinite(weights).all():
            raise ValueError("model coefficients must be finite")
        check_real("bias", self.bias)
        check_integer("target", self.target)
        check_integer("window", self.window, least=1)
        if not 0 <= self.target <= weights.shape[0]:
            raise ValueError(
                f"target index {self.target} out of range for {weights.shape[0] + 1} sensors"
            )
        object.__setattr__(self, "weights", weights)

    @property
    def n_sensors(self) -> int:
        return self.weights.shape[0] + 1


@dataclass(frozen=True)
class Ensemble:
    """One virtual sensor per pressure channel, sharing a window length."""

    models: tuple[LinearModel, ...]
    window: int

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("ensemble must contain at least one model")
        if any(m.window != self.window for m in self.models):
            raise ValueError("all models must share the ensemble window")
        sizes = {m.n_sensors for m in self.models}
        if len(sizes) != 1:
            raise ValueError("all models must cover the same sensor count")
        if len({m.target for m in self.models}) != len(self.models):
            raise ValueError("duplicate target channel in ensemble")

    @property
    def n_sensors(self) -> int:
        return self.models[0].n_sensors

    @property
    def targets(self) -> tuple[int, ...]:
        return tuple(m.target for m in self.models)


def lagged_window_means(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing means over the previous ``window`` rows, for every channel.

    Row t of the result averages rows t-window .. t-1 and is valid for
    t >= window; earlier rows are NaN.
    """
    check_integer("window", window, least=1)
    n_steps = values.shape[0]
    out = np.full_like(values, np.nan, dtype=float)
    if n_steps > window:
        windows = np.lib.stride_tricks.sliding_window_view(values, window, axis=0)
        out[window:] = windows[: n_steps - window].mean(axis=-1)
    return out


def _panel_means(panel: ReadingsPanel, window: int, keep: bool) -> np.ndarray:
    """:func:`lagged_window_means` of the whole panel, read-only.

    Training fits every model on one panel and calibration scores them all
    on it again, so a fit keeps (``keep``) the means of its window on the
    panel, and later calls with that window read them.  A panel's values
    never change, so they are a function of the window alone.  They are a
    plain attribute of the panel, not a dataclass field, so they are not
    compared, hashed or shown.  Detection does not keep them: a panel
    that is only scored stays the size it was.
    """
    check_integer("window", window, least=1)  # 3.0 == 3 would find the means kept for 3
    kept_window, means = vars(panel).get(_KEPT_MEANS, (None, None))
    if kept_window != window:
        means = lagged_window_means(panel.values, window)
        means.flags.writeable = False
        if keep:
            object.__setattr__(panel, _KEPT_MEANS, (window, means))  # panels are frozen
    return means


def fit_virtual_sensor(
    panel: ReadingsPanel,
    target: int,
    window: int = DEFAULT_WINDOW,
    fit_range: tuple[int, int] | None = None,
) -> LinearModel:
    """Least-squares fit of the target channel on windowed other channels.

    Solved through an orthogonal factorization; a rank-deficient design
    yields the minimum-norm coefficient vector.
    """
    check_integer("target", target)
    if not 0 <= target < panel.n_sensors:
        raise ValueError(f"target index {target} out of range")
    t_a, t_b = fit_range if fit_range is not None else (window, panel.n_steps)
    if t_a < window:
        raise ValueError("fit range must start at or after the first full window")
    if t_b > panel.n_steps:
        raise ValueError("fit range extends beyond the panel")
    if t_b - t_a <= panel.n_sensors + 1:
        raise ValueError(
            f"fit range of {t_b - t_a} steps is underdetermined for "
            f"{panel.n_sensors} sensors"
        )

    means = _panel_means(panel, window, keep=True)[t_a:t_b]
    inputs = np.delete(means, target, axis=1)
    design = np.hstack([inputs, np.ones((inputs.shape[0], 1))])
    response = panel.values[t_a:t_b, target]
    coeffs, *_ = np.linalg.lstsq(design, response, rcond=None)
    return LinearModel(
        weights=coeffs[:-1], bias=float(coeffs[-1]), target=target, window=window
    )


def train_ensemble(
    panel: ReadingsPanel,
    window: int = DEFAULT_WINDOW,
    fit_range: tuple[int, int] | None = None,
) -> Ensemble:
    """Fit one virtual sensor per pressure channel of the panel."""
    targets = panel.pressure_indices
    if not targets:
        raise ValueError("panel has no pressure channels to model")
    models = tuple(
        fit_virtual_sensor(panel, target, window, fit_range) for target in targets
    )
    return Ensemble(models=models, window=window)


def save_ensemble(ensemble: Ensemble, path) -> None:
    """Write models as text, one line each: target, window, bias, weights.

    Floats are written with shortest round-trip formatting, so a reloaded
    ensemble is bit-equal to the saved one.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for model in ensemble.models:
            parts = [str(model.target), str(model.window), repr(float(model.bias))]
            parts.extend(repr(float(w)) for w in model.weights)
            fh.write(" ".join(parts) + "\n")


def load_ensemble(path) -> Ensemble:
    """Read an ensemble written by :func:`save_ensemble`."""
    models = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 4:
                raise ValueError(f"{path}: line {lineno} too short for a model")
            try:
                model = LinearModel(
                    weights=np.array([float(p) for p in parts[3:]]),
                    bias=float(parts[2]),
                    target=int(parts[0]),
                    window=int(parts[1]),
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno} is not a valid model: {exc}") from None
            models.append(model)
    if not models:
        raise ValueError(f"{path}: no models found")
    try:
        return Ensemble(models=tuple(models), window=models[0].window)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
