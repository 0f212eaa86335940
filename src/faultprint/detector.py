"""Residual-based alarm detection over an ensemble of virtual sensors.

For every step t the detector compares each virtual sensor's prediction
(from the trailing window ending at t-1) with the observed reading at t; an
alarm fires when any absolute residual exceeds the calibrated threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netgen import FaultSpec, ReadingsPanel
from .optim import fields_equal, fields_hash
from .sensors import Ensemble, _panel_means

MIN_CALIBRATION_STEPS = 50


@dataclass(frozen=True)
class AlarmStream:
    """Alarm flags for steps t in [start, n_steps); residuals: :func:`residual_matrix`."""

    start: int
    alarms: np.ndarray  # bool, shape (n_steps - start,)

    __eq__, __hash__ = fields_equal, fields_hash

    @property
    def end(self) -> int:
        return self.start + self.alarms.shape[0]

    def alarm_steps(self) -> np.ndarray:
        """Absolute time indices at which an alarm is raised."""
        return np.flatnonzero(self.alarms) + self.start


@dataclass(frozen=True)
class DetectionReport:
    """Measured step-level rates and delay; the complements and ``detected`` are derived."""

    true_positive_rate: float
    false_positive_rate: float
    detection_delay: float  # steps; math.inf when never detected

    @property
    def true_negative_rate(self) -> float:
        return 1.0 - self.false_positive_rate

    @property
    def false_negative_rate(self) -> float:
        return 1.0 - self.true_positive_rate

    @property
    def detected(self) -> bool:
        return self.detection_delay < math.inf


def residual_matrix(ensemble: Ensemble, panel: ReadingsPanel) -> np.ndarray:
    """Residuals prediction - observation for all t >= window, all models."""
    if ensemble.n_sensors != panel.n_sensors:
        raise ValueError(
            f"ensemble covers {ensemble.n_sensors} sensors, panel has {panel.n_sensors}"
        )
    window = ensemble.window
    if panel.n_steps <= window:
        raise ValueError("panel shorter than the model window")
    means = _panel_means(panel, window, keep=False)[window:]
    observed = panel.values[window:]
    residuals = np.empty((means.shape[0], len(ensemble.models)))
    for j, model in enumerate(ensemble.models):
        inputs = np.delete(means, model.target, axis=1)
        residuals[:, j] = inputs @ model.weights + model.bias - observed[:, model.target]
    return residuals


def calibrate_threshold(
    ensemble: Ensemble,
    panel: ReadingsPanel,
    calibration_range: tuple[int, int],
    margin: float = 1.1,
) -> float:
    """Threshold = margin times the largest absolute residual on clean data."""
    if not 1.0 <= margin < np.inf:  # NaN fails too
        raise ValueError("margin must be finite and at least 1")
    t_a, t_b = calibration_range
    if t_a < ensemble.window:
        raise ValueError("calibration range must start at or after the first window")
    if t_b > panel.n_steps:
        raise ValueError("calibration range extends beyond the panel")
    if t_b - t_a < MIN_CALIBRATION_STEPS:
        raise ValueError(
            f"calibration range must cover at least {MIN_CALIBRATION_STEPS} steps"
        )
    residuals = residual_matrix(ensemble, panel)
    window = ensemble.window
    segment = residuals[t_a - window : t_b - window]
    return float(margin * np.abs(segment).max())


def detect(ensemble: Ensemble, panel: ReadingsPanel, threshold: float) -> AlarmStream:
    """Evaluate the alarm rule: any absolute residual above the threshold."""
    if not 0 <= threshold < math.inf:  # NaN fails too
        raise ValueError(f"threshold must be nonnegative and finite, got {threshold!r}")
    alarms = np.abs(residual_matrix(ensemble, panel)).max(axis=1) > threshold
    return AlarmStream(start=ensemble.window, alarms=alarms)


def detection_metrics(alarms: AlarmStream, fault: FaultSpec) -> DetectionReport:
    """Step-level confusion rates split at the fault onset.

    Pre-onset steps are negatives (alarm = false positive), post-onset steps
    positives (alarm = true positive).  Detection succeeds when any alarm
    fires at or after the onset; the delay is the gap to the first one.
    """
    onset = fault.onset
    if not alarms.start < onset < alarms.end:
        raise ValueError(
            f"fault onset {onset} outside evaluated range [{alarms.start}, {alarms.end})"
        )
    split = onset - alarms.start
    pre = alarms.alarms[:split]
    post = alarms.alarms[split:]

    fp = float(pre.sum() / pre.shape[0])
    tp = float(post.sum() / post.shape[0])
    hits = np.flatnonzero(post)
    delay = float(hits[0]) if hits.size else math.inf
    return DetectionReport(
        true_positive_rate=tp, false_positive_rate=fp, detection_delay=delay
    )
