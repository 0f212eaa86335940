"""Turn counterfactual fingerprints into faulty-sensor predictions.

The faulty sensor is read off as the channel with the largest proposed
change.  Per-step predictions are aggregated over the alarm sequence by
majority, both for the consistent explanation and for the per-model
baseline (largest change of each model's own counterfactual, then the most
common estimate).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .explain import Counterfactual
from .values import check_integer, is_integer

ZERO_DELTA_TOL = 1e-12
DEFAULT_ALARM_STEPS = 20


def normalize_explanation(delta: np.ndarray) -> np.ndarray:
    """Scale so the largest magnitude is 1; the zero vector stays zero."""
    delta = _finite(delta)
    peak = np.abs(delta).max(initial=0.0)
    if peak <= ZERO_DELTA_TOL:
        return np.zeros_like(delta)
    return delta / peak


def predict_faulty_sensor(
    delta: np.ndarray, exclude: Sequence[int] = ()
) -> Optional[int]:
    """Channel with the largest |change|; ties go to the smallest index.

    ``exclude`` removes channels that can never be faulty (flow channels in
    the synthetic pipeline); each must be a channel index in ``[0, n)``.
    An all-zero change vector yields None, the distinguished no-prediction
    outcome, which scoring counts as incorrect.
    """
    (channel,) = _largest_changes(np.asarray(delta, dtype=float)[None], exclude)
    return None if channel < 0 else int(channel)


def _largest_changes(deltas: np.ndarray, exclude: Sequence[int]) -> np.ndarray:
    """:func:`predict_faulty_sensor` of each row of ``deltas``, -1 for None."""
    magnitude = np.abs(_finite(deltas))  # a new array, so excluding writes to no caller's
    n = magnitude.shape[1]
    outside = [c for c in exclude if not (is_integer(c) and 0 <= c < n)]
    if outside:
        raise ValueError(f"exclude entries {outside} are not in [0, {n})")
    magnitude[:, list(exclude)] = -np.inf
    peak = np.maximum.reduce(magnitude, axis=1, initial=-np.inf)
    # argmax takes the first of tied maxima; a row of no channels names none
    channels = magnitude.argmax(axis=1) if n else np.zeros(len(magnitude), dtype=int)
    return np.where(peak > ZERO_DELTA_TOL, channels, -1)


def _finite(delta) -> np.ndarray:
    """``delta`` as a float array; a non-finite change names no channel."""
    delta = np.asarray(delta, dtype=float)
    if not np.isfinite(delta).all():
        raise ValueError("a change vector must be finite")
    return delta


def _mode(predictions: Iterable[Optional[int]]) -> Optional[int]:
    counts = Counter(p for p in predictions if p is not None)
    if not counts:
        return None
    best = max(counts.values())
    return min(s for s, c in counts.items() if c == best)


def aggregate_alarm_sequence(
    predictions: Sequence[Optional[int]], limit: int = DEFAULT_ALARM_STEPS
) -> Optional[int]:
    """Most frequent prediction over the first ``limit`` alarm steps.

    Ties break to the smallest sensor index; no-prediction entries are
    ignored, and None is returned only when every entry was one.
    """
    if not len(predictions):
        raise ValueError("at least one alarm-step prediction is required")
    check_integer("limit", limit, least=1)
    return _mode(predictions[:limit])


def baseline_votes(
    counterfactuals: Sequence[Counterfactual], exclude: Sequence[int] = ()
) -> np.ndarray:
    """Per channel, how many per-model counterfactuals change it the most.

    A counterfactual that names no channel (see :func:`predict_faulty_sensor`)
    casts no vote.  Every change vector must have the same length.
    """
    if not len(counterfactuals):
        raise ValueError("at least one per-model counterfactual is required")
    deltas = np.stack([cf.delta for cf in counterfactuals])
    channels = _largest_changes(deltas, exclude)
    return np.bincount(channels[channels >= 0], minlength=deltas.shape[1])


def aggregate_baseline(
    counterfactuals: Sequence[Counterfactual], exclude: Sequence[int] = ()
) -> Optional[int]:
    """The channel with the most :func:`baseline_votes`; ties go to the
    smallest index, and None means no counterfactual named a channel."""
    votes = baseline_votes(counterfactuals, exclude)
    return int(votes.argmax()) if votes.any() else None


@dataclass(frozen=True)
class ScenarioPrediction:
    """One scenario's ground truth and both methods' predictions."""

    scenario_id: str
    fault_kind: str
    magnitude: float
    true_sensor: int
    ensemble_prediction: Optional[int]
    baseline_prediction: Optional[int]

    @property
    def ensemble_correct(self) -> bool:
        return self.ensemble_prediction == self.true_sensor

    @property
    def baseline_correct(self) -> bool:
        return self.baseline_prediction == self.true_sensor


@dataclass(frozen=True)
class LocalizationReport:
    """Accuracy mean and population variance per method, over scenarios."""

    rows: tuple[ScenarioPrediction, ...]
    ensemble_accuracy: float
    ensemble_variance: float
    baseline_accuracy: float
    baseline_variance: float

    @property
    def accuracy_gap(self) -> float:
        return self.ensemble_accuracy - self.baseline_accuracy


def localization_report(rows: Sequence[ScenarioPrediction]) -> LocalizationReport:
    """Aggregate per-scenario correctness flags into the final report."""
    if not len(rows):
        raise ValueError("at least one scenario is required")
    ens = np.array([row.ensemble_correct for row in rows], dtype=float)
    base = np.array([row.baseline_correct for row in rows], dtype=float)
    return LocalizationReport(
        rows=tuple(rows),
        ensemble_accuracy=float(ens.mean()),
        ensemble_variance=float(ens.var()),
        baseline_accuracy=float(base.mean()),
        baseline_variance=float(base.var()),
    )
