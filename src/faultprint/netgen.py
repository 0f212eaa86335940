"""Synthetic sensor-panel generation, fault injection and CSV round-trip.

A panel mimics a small pressure/flow monitoring network: every channel is a
mix of a few shared latent signals (daily sinusoids plus a slow random walk),
so each pressure channel is close to a linear function of the remaining
channels.  Faults are injected per channel, never before the training prefix.
"""

from __future__ import annotations

import csv
import enum
import math
import numbers
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, count
from operator import itemgetter
from typing import Union, get_args

import numpy as np

from .optim import fields_equal, fields_hash, frozen_array, is_integer

DIURNAL_PERIOD = 96  # steps per daily cycle (15-minute cadence analogy)

_SINE_AMPLITUDE = (0.12, 0.18)
_PHASE_JITTER = 0.4
_WALK_STEP_STD = 0.0025
_WALK_REVERSION = 0.999  # damping keeps the slow walk statistically stable
_MIXING_GAIN = (0.7, 1.3)
_LEVEL_OFFSET = (8.0, 15.0)
_MAX_ROW_COSINE = 0.85
_SINE_SHARE = (0.45, 0.70)  # per-channel share of the diurnal signal
_ROW_DRAWS = 80  # candidates a mixing row may draw
# A draw the batched screen puts within this of the answer gets its exact
# score: far above the screen's rounding (about 1e-16), so no draw that
# could win is passed over, and small enough that few draws need it.
_SCREEN_MARGIN = 1e-9


class PanelFormatError(ValueError):
    """Raised when a panel CSV file cannot be parsed."""


class SensorKind(enum.Enum):
    PRESSURE = "pressure"
    FLOW = "flow"


@dataclass(frozen=True)
class ScenarioConfig:
    """Shape and randomness of one synthetic monitoring scenario."""

    n_pressure: int = 12
    n_flow: int = 2
    n_steps: int = 2000
    train_end: int = 700
    latent_dim: int = 3
    noise_std: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_pressure", "n_flow", "n_steps", "train_end", "latent_dim", "seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.n_pressure < 2:
            raise ValueError("n_pressure must be at least 2")
        if self.n_flow < 0:
            raise ValueError("n_flow must be nonnegative")
        if not 0 < self.train_end < self.n_steps:
            raise ValueError("train_end must lie strictly inside [1, n_steps)")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be at least 1")
        if self.latent_dim > self.n_sensors:
            raise ValueError("latent_dim cannot exceed the sensor count")
        if not 0 <= self.noise_std < np.inf:  # NaN fails too
            raise ValueError("noise_std must be nonnegative and finite")

    @property
    def n_sensors(self) -> int:
        return self.n_pressure + self.n_flow


@dataclass(frozen=True)
class ReadingsPanel:
    """Time-indexed sensor readings, one column per channel.

    ``values`` is copied and frozen at construction; panels are safe to share.
    """

    values: np.ndarray
    kinds: tuple[SensorKind, ...]
    labels: tuple[str, ...]

    __eq__, __hash__ = fields_equal, fields_hash

    def __post_init__(self) -> None:
        values = frozen_array("values", self.values)
        if values.ndim != 2:
            raise ValueError("panel values must be a 2-D array")
        if values.shape[1] != len(self.kinds) or len(self.kinds) != len(self.labels):
            raise ValueError("kinds/labels must match the column count")
        for label in self.labels:
            # A CSV header cell is 'label:kind', split at the first ':'.
            if not label or ":" in label:
                raise ValueError(f"sensor label {label!r} must be non-empty and hold no ':'")
        if not np.isfinite(values).all():
            raise ValueError("panel contains non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_sensors(self) -> int:
        return self.values.shape[1]

    @property
    def pressure_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k is SensorKind.PRESSURE)

    @property
    def flow_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k is SensorKind.FLOW)

    def with_values(self, values: np.ndarray) -> "ReadingsPanel":
        return ReadingsPanel(values=values, kinds=self.kinds, labels=self.labels)


def check_real(name: str, value, infinite_ok: bool = False) -> None:
    """The fault kinds' rule for a parameter: raise ``ValueError``, naming
    it, unless ``value`` is a real number (a bool is not one) that a float
    can hold and that is finite, or with ``infinite_ok`` above -inf (so not
    NaN)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError as exc:  # say, an int past 2**1024
        raise ValueError(f"{name} must be a real number a float can hold: {exc}") from None
    if not (value > -math.inf if infinite_ok else math.isfinite(value)):
        bound = "above -inf" if infinite_ok else "finite"
        raise ValueError(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class ConstantOffset:
    offset: float
    name = "constant_offset"

    def __post_init__(self) -> None:
        check_real("offset", self.offset)


@dataclass(frozen=True)
class GaussianNoise:
    sigma: float
    name = "gaussian_noise"

    def __post_init__(self) -> None:
        check_real("sigma", self.sigma)
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma!r}")


@dataclass(frozen=True)
class PowerFailure:
    name = "power_failure"


@dataclass(frozen=True)
class ProportionalOffset:
    alpha: float
    name = "proportional_offset"

    def __post_init__(self) -> None:
        check_real("alpha", self.alpha)


@dataclass(frozen=True)
class Drift:
    """A ramp of ``rate`` per step, clipped at ``cap``; a cap of +inf leaves it uncapped."""

    rate: float
    cap: float
    name = "drift"

    def __post_init__(self) -> None:
        check_real("rate", self.rate)
        check_real("cap", self.cap, infinite_ok=True)


FaultKind = Union[ConstantOffset, GaussianNoise, PowerFailure, ProportionalOffset, Drift]

FAULT_KINDS: dict[str, type] = {kind.name: kind for kind in get_args(FaultKind)}
FAULT_KIND_NAMES = tuple(FAULT_KINDS)


@dataclass(frozen=True)
class FaultSpec:
    """One injected sensor fault: what, where and from when on."""

    kind: FaultKind
    sensor: int
    onset: int

    def __post_init__(self) -> None:
        for name in ("sensor", "onset"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """A clean/faulty panel pair with its fault ground truth."""

    clean: ReadingsPanel
    faulty: ReadingsPanel
    fault: FaultSpec
    config: ScenarioConfig

    def __post_init__(self) -> None:
        if self.fault.onset <= self.config.train_end:
            raise ValueError("fault onset must lie after the training prefix")
        diff = self.faulty.values != self.clean.values
        touched = np.argwhere(diff)
        if touched.size and (
            touched[:, 0].min() < self.fault.onset
            or not (touched[:, 1] == self.fault.sensor).all()
        ):
            raise ValueError("faulty panel differs from clean outside the fault region")


def _sensor_layout(config: ScenarioConfig) -> tuple[tuple[SensorKind, ...], tuple[str, ...]]:
    kinds = (SensorKind.PRESSURE,) * config.n_pressure + (SensorKind.FLOW,) * config.n_flow
    labels = tuple(f"p{i:02d}" for i in range(config.n_pressure)) + tuple(
        f"f{i:02d}" for i in range(config.n_flow)
    )
    return kinds, labels


def _row_score(rows: np.ndarray, cand: np.ndarray, phasor: np.ndarray, phasor_norm) -> float:
    """How far the unit row ``cand`` misses the spread rules, 0.0 when it
    keeps both: a cosine of at most ``_MAX_ROW_COSINE`` with every accepted
    row in ``rows``, and a phasor share inside ``_SINE_SHARE``."""
    score = 0.0
    if len(rows) and cand.shape[0] > 1:
        worst = np.abs(rows @ cand).max()
        score += max(0.0, worst - _MAX_ROW_COSINE)
    if cand.shape[0] > 1 and phasor_norm > 0:
        share = abs(cand @ phasor) / phasor_norm
        score += max(0.0, _SINE_SHARE[0] - share)
        score += max(0.0, share - _SINE_SHARE[1])
    return score


def _screen(rows: np.ndarray, cands: np.ndarray, phasor: np.ndarray, phasor_norm) -> np.ndarray:
    """:func:`_row_score` of every unit row of ``cands`` in one pass, equal
    to it up to rounding (the products run in a different order)."""
    scores = np.zeros(cands.shape[0])
    if len(rows) and cands.shape[1] > 1:
        scores += np.maximum(0.0, np.abs(cands @ rows.T).max(axis=1) - _MAX_ROW_COSINE)
    if cands.shape[1] > 1 and phasor_norm > 0:
        share = np.abs(cands @ phasor) / phasor_norm
        scores += np.maximum(0.0, _SINE_SHARE[0] - share)
        scores += np.maximum(0.0, share - _SINE_SHARE[1])
    return scores


def _pick_row(
    rows: np.ndarray, draws: np.ndarray, phasor: np.ndarray, phasor_norm
) -> tuple[int, np.ndarray]:
    """The row that rejection sampling over ``draws`` accepts, and how many
    draws it reads.

    Draws are read in order: the first whose unit row scores 0.0 is taken,
    and when none does, the first of the lowest score.  The screen only
    narrows where to look; :func:`_row_score` decides on every draw the
    screen leaves within ``_SCREEN_MARGIN`` of the answer.
    """
    units = draws / np.linalg.norm(draws, axis=1, keepdims=True)
    screened = _screen(rows, units, phasor, phasor_norm)

    def unit(j: int) -> np.ndarray:
        return draws[j] / np.linalg.norm(draws[j])

    for j in np.flatnonzero(screened <= _SCREEN_MARGIN).tolist():
        cand = unit(j)
        if _row_score(rows, cand, phasor, phasor_norm) == 0.0:
            return j + 1, cand
    near = np.flatnonzero(screened <= screened.min() + _SCREEN_MARGIN).tolist()
    scored = [(_row_score(rows, unit(j), phasor, phasor_norm), j) for j in near]
    return len(draws), unit(min(scored)[1])  # ties go to the first draw


def _mixing_matrix(
    rng: np.random.Generator, n_sensors: int, latent_dim: int, phasor: np.ndarray
) -> np.ndarray:
    """Seeded random mixing with full column rank and well-spread rows.

    Rows are rejection-sampled so that no two channels are near-collinear and
    every channel carries a bounded, nonzero share of the shared diurnal
    phasor; both properties keep each channel linearly predictable from the
    others without any channel swinging much faster than the rest.

    Each row takes up to ``_ROW_DRAWS`` normal draws, scored as one block.
    When a row needs fewer, the generator is rewound and advanced by just
    those, so every draw, and the generator afterwards, is the same as
    drawing one candidate at a time: ``normal(size=(k, d))`` reads the
    stream as ``k`` calls of ``normal(size=d)`` do.
    """
    phasor_norm = np.linalg.norm(phasor)
    rows = np.empty((n_sensors, latent_dim))
    for i in range(n_sensors):
        state = rng.bit_generator.state
        draws = rng.normal(size=(_ROW_DRAWS, latent_dim))
        used, rows[i] = _pick_row(rows[:i], draws, phasor, phasor_norm)
        if used < _ROW_DRAWS:
            rng.bit_generator.state = state
            rng.normal(size=(used, latent_dim))
    gains = rng.uniform(*_MIXING_GAIN, size=n_sensors)
    matrix = rows * gains[:, None]
    if np.linalg.matrix_rank(matrix) < latent_dim:
        raise RuntimeError("mixing matrix is rank deficient")
    return matrix


def _ar1(x: np.ndarray, a: float) -> np.ndarray:
    """``y[t] = x[t] + a * y[t-1]`` down each column, from ``y[-1] = 0``.

    Scalar Python floats per column: the recurrence is sequential, and a
    numpy loop over rows costs several times more for a few columns.
    """
    return np.column_stack(
        [list(accumulate(col, lambda y, x_t: x_t + a * y)) for col in x.T.tolist()]
    )


def generate_clean(config: ScenarioConfig) -> ReadingsPanel:
    """Generate a fault-free panel; a pure function of the config.

    Channels share ``latent_dim`` latent signals (daily sinusoids with period
    ``DIURNAL_PERIOD`` plus a slow random walk) mixed through a seeded
    full-column-rank matrix, shifted by positive offsets, with iid Gaussian
    noise on top.  Every pressure channel is therefore close to a linear
    function of the remaining channels (R^2 >= 0.95 on clean data).
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_sensors
    steps = np.arange(config.n_steps)

    amplitudes = rng.uniform(*_SINE_AMPLITUDE, size=config.latent_dim)
    phases = (
        2.0 * np.pi * np.arange(config.latent_dim) / config.latent_dim
        + rng.uniform(-_PHASE_JITTER, _PHASE_JITTER, size=config.latent_dim)
    )
    sines = amplitudes * np.sin(
        2.0 * np.pi * steps[:, None] / DIURNAL_PERIOD + phases
    )
    kicks = rng.normal(0.0, _WALK_STEP_STD, size=(config.n_steps, config.latent_dim))
    walk = _ar1(kicks, _WALK_REVERSION)
    latents = sines + walk

    phasor = amplitudes * np.exp(1j * phases)
    mixing = _mixing_matrix(rng, n, config.latent_dim, phasor)
    offsets = rng.uniform(*_LEVEL_OFFSET, size=n)
    noise = rng.normal(0.0, config.noise_std, size=(config.n_steps, n))

    values = latents @ mixing.T + offsets + noise
    kinds, labels = _sensor_layout(config)
    return ReadingsPanel(values=values, kinds=kinds, labels=labels)


def check_placement(panel: ReadingsPanel, fault: FaultSpec) -> None:
    """The one placement rule: ``fault`` must hit a pressure channel of
    ``panel`` at one of its steps.  A ``ValueError`` opens with the field's name."""
    if fault.sensor not in panel.pressure_indices:
        raise ValueError(
            f"sensor must be one of the pressure channels {panel.pressure_indices}, "
            f"got {fault.sensor!r}"
        )
    if not fault.onset < panel.n_steps:  # FaultSpec keeps it nonnegative
        raise ValueError(f"onset must be a step below {panel.n_steps}, got {fault.onset!r}")


def inject_fault(clean: ReadingsPanel, fault: FaultSpec, seed: int = 0) -> ReadingsPanel:
    """Apply ``fault`` from ``fault.onset`` onwards; it must pass :func:`check_placement`."""
    check_placement(clean, fault)

    values = clean.values.copy()
    k, t0 = fault.sensor, fault.onset
    tail = values[t0:, k]
    kind = fault.kind
    if isinstance(kind, ConstantOffset):
        values[t0:, k] = tail + kind.offset
    elif isinstance(kind, GaussianNoise):
        rng = np.random.default_rng(seed)
        values[t0:, k] = tail + rng.normal(0.0, kind.sigma, size=tail.shape)
    elif isinstance(kind, PowerFailure):
        values[t0:, k] = 0.0
    elif isinstance(kind, ProportionalOffset):
        values[t0:, k] = (1.0 + kind.alpha) * tail
    elif isinstance(kind, Drift):
        drifted = tail + kind.rate * np.arange(tail.shape[0])
        values[t0:, k] = np.minimum(drifted, kind.cap)
    else:
        raise TypeError(f"unknown fault kind: {kind!r}")
    return clean.with_values(values)


def write_csv(panel: ReadingsPanel, path) -> None:
    """Write a panel as UTF-8 CSV with a ``label:kind`` header per column.

    Lines end in ``\\r\\n``, as :mod:`csv` writes them, and each cell is the
    ``repr`` of its float.  Rows are formatted one at a time, so the file is
    never held in memory.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(
            f"{label}:{kind.value}" for label, kind in zip(panel.labels, panel.kinds)
        )
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in panel.values)


def _read_header(path, reader) -> tuple[tuple[SensorKind, ...], tuple[str, ...]]:
    """Kinds and labels from the first record of ``reader``."""
    header = next(_records(path, reader), None)
    if header is None:
        raise PanelFormatError(f"{path}: empty file")

    kinds: list[SensorKind] = []
    labels: list[str] = []
    for col, cell in enumerate(header):
        label, sep, kind_token = cell.partition(":")
        if not sep or not label:
            raise PanelFormatError(
                f"{path}: header column {col} is not 'label:kind': {cell!r}"
            )
        try:
            kinds.append(SensorKind(kind_token))
        except ValueError:
            raise PanelFormatError(
                f"{path}: header column {col} has unknown kind {kind_token!r}"
            ) from None
        labels.append(label)
    return tuple(kinds), tuple(labels)


# numpy strips these four ASCII controls around a number and float() does not.
_SEPARATOR_CONTROLS = b"\x1c\x1d\x1e\x1f"


def _fast_body(path, fh, width: int) -> np.ndarray | None:
    """The data records below the header, parsed by numpy's C reader.

    Returns None wherever the csv reader of :func:`_load_csv_records` might
    decide differently: a cell numpy cannot parse, a blank line (numpy skips
    it), a row count or width that does not match, a non-finite cell, or a
    control character that numpy strips as space.
    """
    first = next(fh, "")
    if not first.rstrip("\r\n"):  # no records, or a blank line first
        return None
    lines = count(1)
    # zip advances the counter once per line handed to numpy, all in C.
    body = map(itemgetter(0), zip(chain((first,), fh), lines))
    try:
        values = np.loadtxt(body, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    if values.shape != (next(lines) - 1, width) or not np.isfinite(values).all():
        return None
    with open(path, "rb") as raw:
        for chunk in iter(partial(raw.read, 1 << 16), b""):
            if len(chunk.translate(None, _SEPARATOR_CONTROLS)) != len(chunk):
                return None
    return values


def _records(path, reader):
    """The records of ``reader``; one csv cannot read raises PanelFormatError."""
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # e.g. a cell beyond csv's field size limit
            raise PanelFormatError(f"{path}: line {reader.line_num}: {exc}") from None
        yield row


def _load_csv_records(path) -> ReadingsPanel:
    """Read a panel record by record with :mod:`csv`; every format error."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        kinds, labels = _read_header(path, reader)
        rows: list[list[float]] = []
        line_nums: list[int] = []  # the file line on which each record ends
        for row in _records(path, reader):
            if len(row) != len(labels):
                raise PanelFormatError(
                    f"{path}: line {reader.line_num} has {len(row)} cells, "
                    f"expected {len(labels)}"
                )
            parsed = []
            for col, cell in enumerate(row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise PanelFormatError(
                        f"{path}: line {reader.line_num}, column {labels[col]!r}: "
                        f"non-numeric cell {cell!r}"
                    ) from None
            rows.append(parsed)
            line_nums.append(reader.line_num)

    if not rows:
        raise PanelFormatError(f"{path}: no data rows")
    values = np.array(rows)
    non_finite = np.argwhere(~np.isfinite(values))
    if non_finite.size:
        i, col = non_finite[0]
        raise PanelFormatError(
            f"{path}: line {line_nums[i]}, column {labels[col]!r}: "
            f"non-finite cell {float(values[i, col])!r}"
        )
    return ReadingsPanel(values=values, kinds=kinds, labels=labels)


def load_csv(path) -> ReadingsPanel:
    """Read a panel written by :func:`write_csv`; exact decimal round-trip.

    The body is parsed by numpy's C reader.  Any file it might read
    differently from the :mod:`csv` module goes to the csv reader instead,
    which accepts the same files and raises every :class:`PanelFormatError`.
    Errors name the file line as an editor counts it: the header is line 1.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        kinds, labels = _read_header(path, csv.reader(fh))
        values = _fast_body(path, fh, len(labels))
    if values is None:
        return _load_csv_records(path)
    return ReadingsPanel(values=values, kinds=kinds, labels=labels)
