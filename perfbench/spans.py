"""Span recording around calls into faultprint's layers, from outside the package.

An :class:`Instrument` replaces public functions on the layer modules with
wrappers that record one span per call: name, layer, start, end, the span
that caused it, and a few per-call counts read from arguments or results.
The package calls its own layers through module attributes (``optim.solve``,
``netgen.write_csv``, ...), so a patched attribute sees every call, including
calls made inside other layers and inside forked pool workers.

Spans stay in memory.  A forked worker appends its spans to its own file in
``worker_dir`` whenever its outermost span closes; the parent merges those
files with :meth:`Instrument.collect`.

The instrument also samples the host's speed.  On a shared virtual machine
the same code can run 1.7 times slower from one moment to the next, and the
slowdown differs between cores, so the speed is measured inside the
working process: when a wrapped call returns outside any explanation call
and ``REF_INTERVAL_NS`` have passed since the last sample, and at every bench
phase boundary, the instrument times a fixed reference kernel and records it
as a ``ref`` span.  Samples never fall inside an explanation call, so its
latency stays clean.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from faultprint import detector, explain, localize, netgen, optim, pipeline, sensors

REF_INTERVAL_NS = 250_000_000
_REF_MATRIX = np.random.default_rng(0).normal(size=(40, 40))
_REF_FACTOR = cho_factor(_REF_MATRIX @ _REF_MATRIX.T + 40.0 * np.eye(40))
_REF_VALUES = np.random.default_rng(1).normal(size=600)


def reference_kernel() -> None:
    """Fixed work like the program's: small dense solves and float text I/O."""
    rhs = np.ones(40)
    for _ in range(150):
        x = cho_solve(_REF_FACTOR, rhs, check_finite=False)
        np.clip(_REF_MATRIX @ x, -1.0, 1.0)
    for value in _REF_VALUES:
        float(repr(float(value)))


class Span(NamedTuple):
    pid: int
    seq: int
    parent: int  # seq of the enclosing span in the same process, -1 at top level
    name: str
    layer: str
    start_ns: int
    end_ns: int
    attrs: dict | None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


def _solve_attrs(args, kwargs, result) -> dict:
    ratio = max(
        result.kkt.primal / result.kkt_tol.primal,
        result.kkt.dual / result.kkt_tol.dual,
        result.kkt.complementarity / result.kkt_tol.complementarity,
    )
    return {
        "iters": result.iterations,
        "optimal": result.status is optim.SolveStatus.OPTIMAL,
        "kkt_ratio": float(ratio),
    }


def _cf_attrs(args, kwargs, result) -> dict:
    return {"slack_free": bool(result.feasible_without_slack)}


def _csv_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _panel_rows(args, kwargs, result) -> dict:
    return {"rows": result.n_steps}


def _models_fit(args, kwargs, result) -> dict:
    return {"models": len(result.models)}


def _steps_scored(args, kwargs, result) -> dict:
    return {"steps": int(result.alarms.shape[0])}


AttrFn = Callable[[tuple, dict, object], dict]
COUNTERFACTUALS = ("explain.ensemble_counterfactual", "explain.independent_counterfactual")

# (module, function, layer, per-call counts).  PROBES is what an untraced run
# wraps: solve outcomes, explanation latency, the per-scenario task that lets
# pool workers hand their spans back, and a few calls per scenario of the
# ingest phase, after which the host speed can be sampled.  FULL adds every
# other layer.
PROBES: tuple[tuple[object, str, str, AttrFn | None], ...] = (
    (optim, "solve", "optim", _solve_attrs),
    (explain, "ensemble_counterfactual", "explain", _cf_attrs),
    (explain, "independent_counterfactual", "explain", None),
    (pipeline, "evaluate_scenario_files", "pipeline", None),
    (netgen, "write_csv", "netgen.write_csv", _csv_bytes),
    (netgen, "load_csv", "netgen.load_csv", _panel_rows),
    (sensors, "train_ensemble", "sensors.fit", _models_fit),
)
FULL = PROBES + (
    (netgen, "generate_clean", "netgen.generate", None),
    (netgen, "inject_fault", "netgen.generate", None),
    (sensors, "save_ensemble", "sensors.io", None),
    (sensors, "load_ensemble", "sensors.io", None),
    (detector, "calibrate_threshold", "detector.calibrate", None),
    (detector, "detect", "detector.detect", _steps_scored),
    (optim, "kkt_residuals", "optim.kkt", None),
    (localize, "normalize_explanation", "localize", None),
    (localize, "predict_faulty_sensor", "localize", None),
    (localize, "aggregate_alarm_sequence", "localize", None),
    (localize, "aggregate_baseline", "localize", None),
    (localize, "localization_report", "localize", None),
    (pipeline, "build_scenario", "pipeline", None),
    (pipeline, "write_scenario", "pipeline", None),
    (pipeline, "load_scenario_files", "pipeline", None),
    (pipeline, "load_model_files", "pipeline", None),
    (pipeline, "train_scenario", "pipeline", None),
    (pipeline, "localize_scenario", "pipeline", None),
    (pipeline, "results_to_predictions", "pipeline", None),
    # A batch runner's own time is pool start-up and waiting when jobs > 1,
    # so it gets a layer of its own and is not counted as pipeline work.
    (pipeline, "simulate_batch", "pipeline.batch", None),
    (pipeline, "train_batch", "pipeline.batch", None),
    (pipeline, "detect_batch", "pipeline.batch", None),
    (pipeline, "evaluate_batch", "pipeline.batch", None),
)

_active: "Instrument | None" = None
_fork_hook_registered = False


def _reset_after_fork() -> None:
    if _active is not None:
        _active.spans = []
        _active.stack = []
        _active._explaining = 0


class Instrument:
    """Patches layer functions for the duration of a ``with`` block."""

    def __init__(self, worker_dir: Path, full: bool) -> None:
        self.worker_dir = Path(worker_dir)
        self.targets = FULL if full else PROBES
        self.main_pid = os.getpid()
        self.spans: list[Span] = []
        self.stack: list[int] = []  # seqs of the open spans
        self._seq = 0
        self._next_ref_ns = 0
        self._explaining = 0  # open explanation calls in this process
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrument":
        global _active, _fork_hook_registered
        if _active is not None:
            raise RuntimeError("another Instrument is already active")
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_reset_after_fork)
            _fork_hook_registered = True
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        for module, attr, layer, attrs_fn in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(original, name, layer, attrs_fn))
        _active = self
        return self

    def __exit__(self, *exc) -> None:
        global _active
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        _active = None

    def _wrap(self, fn, name: str, layer: str, attrs_fn: AttrFn | None):
        explanation = name in COUNTERFACTUALS

        def wrapper(*args, **kwargs):
            self._explaining += explanation
            seq = self._seq
            self._seq += 1
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(seq)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter_ns()
                self._explaining -= explanation
                self._close(seq, parent, name, layer, start, end, {"error": type(exc).__name__})
                raise
            end = time.perf_counter_ns()
            self._explaining -= explanation
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            self._close(seq, parent, name, layer, start, end, attrs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, seq, parent, name, layer, start, end, attrs, sample=True) -> None:
        self.stack.pop()
        self.spans.append(Span(os.getpid(), seq, parent, name, layer, start, end, attrs))
        if sample and not self._explaining and end >= self._next_ref_ns:
            self.sample_speed()
        if not self.stack and os.getpid() != self.main_pid:
            self._flush_worker()

    def sample_speed(self, count: int = 1) -> None:
        """Time the reference kernel ``count`` times, one ``ref`` span each."""
        for _ in range(count):
            seq = self._seq
            self._seq += 1
            start = time.perf_counter_ns()
            reference_kernel()
            end = time.perf_counter_ns()
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(Span(os.getpid(), seq, parent, "ref.kernel", "ref", start, end, None))
        self._next_ref_ns = end + REF_INTERVAL_NS

    def _flush_worker(self) -> None:
        path = self.worker_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def phase(self, name: str):
        """Context manager recording a pipeline-layer span for a bench phase."""
        return _Phase(self, f"phase.{name}")

    def collect(self) -> list[Span]:
        """Hand over every span so far, worker files included, and start afresh."""
        spans = self.spans
        self.spans = []
        for path in sorted(self.worker_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(Span(*json.loads(line)) for line in fh)
            path.unlink()
        return spans


PHASE_SAMPLES = 3


class _Phase:
    def __init__(self, instrument: Instrument, name: str) -> None:
        self.instrument = instrument
        self.name = name

    def __enter__(self) -> "_Phase":
        inst = self.instrument
        inst.sample_speed(PHASE_SAMPLES)
        self.seq = inst._seq
        inst._seq += 1
        self.parent = inst.stack[-1] if inst.stack else -1
        inst.stack.append(self.seq)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        self.instrument._close(
            self.seq, self.parent, self.name, "pipeline", self.start, end, None, sample=False
        )
        self.instrument.sample_speed(PHASE_SAMPLES)


def self_seconds(spans: list[Span], seconds=Span.seconds.fget) -> dict[str, float]:
    """Per-layer self time: span time minus the time of its direct children.

    ``seconds`` gives a span's duration; the default is its wall time."""
    children: dict[tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            children[(span.pid, span.parent)] += seconds(span)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.layer] += seconds(span) - children.get((span.pid, span.seq), 0.0)
    return totals


def explanation_calls(spans: list[Span]) -> list[Span]:
    """Counterfactual calls not made on behalf of another one: the ensemble
    explanations and the per-model baseline explanations."""
    by_key = {(s.pid, s.seq): s for s in spans}
    return [
        s for s in spans
        if s.name in COUNTERFACTUALS
        and getattr(by_key.get((s.pid, s.parent)), "name", "") not in COUNTERFACTUALS
    ]


def direct_ensemble_calls(spans: list[Span]) -> list[Span]:
    """Ensemble explanations not made on behalf of a per-model baseline."""
    return [s for s in explanation_calls(spans) if s.name == "explain.ensemble_counterfactual"]
