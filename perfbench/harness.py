"""Workloads, correctness checks and metrics of the faultprint benchmark.

A run sets up its workload several times (setup_s is the median), then
repeats the workload's timed unit until ``seconds`` have passed, at least
once.  End-to-end metrics are medians over units, with only the light probe
spans of :data:`spans.PROBES` installed.  A traced run then sets up and runs
one more unit with every layer wrapped and reports per-layer metrics from
that unit, plus the tracing overhead: its phase time minus the untraced
median.

Reported times are rescaled to a fixed host speed (:class:`HostSpeed`).  Raw
wall times are printed alongside.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import spans as spans_mod
from faultprint import cli, detector, explain, localize, netgen, pipeline
from spans import Instrument, Span

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".perfbench-out"

SETUP_REPEATS = 3
MIN_ACCURACY = 0.90
MIN_GAP = 0.30
MAX_KKT_RATIO = 10.0
CERTIFICATE_TOL = 1e-6
REF_SECONDS = 0.004  # reference kernel time at the speed reported times are rescaled to


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "grid": the CLI pipeline; "stream": the bench's closed alarm loop
    config: dict
    jobs: int = 1
    grid_seeds: int = 1  # consecutive grid seeds, starting at --seed
    alarms_per_scenario: int = 0  # alarms explained per scenario by the closed loop


_GRID_LP = {"counterfactual": {"complexity": "l1", "dist": "abs"}}

# Why each workload exists, and which layer metric should move it, is in
# NOTES.md and BENCHMARK.json.  The stream spreads its 3015 alarms over three
# grid seeds: a scenario's QPs all take about the same number of iterations,
# and that number varies fivefold between scenarios, so fewer scenarios would
# make the stream's cost follow the seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-lp", "grid", _GRID_LP),
        Workload("grid-lp-j2", "grid", _GRID_LP, jobs=2),
        Workload(
            "alarm-stream-qp", "stream",
            {"counterfactual": {"complexity": "l2", "dist": "squared"}},
            grid_seeds=3,
            alarms_per_scenario=67,
        ),
    )
}


def config_text(sections: dict) -> str:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
        lines.append("")
    return "\n".join(lines)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def worst_share_mean(values, share: float) -> float:
    """Mean of the largest ``share`` of the values (at least one)."""
    ordered = sorted(values)
    return statistics.fmean(ordered[-max(1, round(len(ordered) * share)):])


@contextlib.contextmanager
def outdir(path: Path):
    """Point faultprint's output directory at ``path`` for the block."""
    saved = os.environ.get(pipeline.ENV_OUTDIR)
    os.environ[pipeline.ENV_OUTDIR] = str(path)
    try:
        yield path
    finally:
        if saved is None:
            os.environ.pop(pipeline.ENV_OUTDIR, None)
        else:
            os.environ[pipeline.ENV_OUTDIR] = saved


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def kernel_seconds(count: int) -> list[float]:
    out = []
    for _ in range(count):
        start = time.perf_counter()
        spans_mod.reference_kernel()
        out.append(time.perf_counter() - start)
    return out


class HostSpeed:
    """Each process's speed over time, from its reference-kernel samples.

    Between samples the kernel time is interpolated linearly, beyond the first
    and last it is held.  A stretch of wall time rescales to the reference
    speed by the time-average of ``REF_SECONDS / kernel time`` over it, which
    follows speed changes within a phase that one average factor would blur.
    """

    def __init__(self, unit_spans: list[Span]) -> None:
        self.spans = unit_spans
        refs = sorted((s for s in unit_spans if s.layer == "ref"), key=lambda s: s.start_ns)

        def series(samples):
            return (np.array([(s.start_ns + s.end_ns) / 2 for s in samples]),
                    np.array([s.seconds for s in samples]))

        pids = {s.pid for s in refs}
        self.series = {pid: series([s for s in refs if s.pid == pid]) for pid in pids}
        self.pooled = series(refs)  # for a process that never sampled

    def factor(self, pid: int, lo_ns: int, hi_ns: int) -> float:
        """Time-average of REF_SECONDS / kernel time over [lo_ns, hi_ns]."""
        mids, kernel = self.series.get(pid, self.pooled)
        inner = mids[(mids > lo_ns) & (mids < hi_ns)]
        points = np.concatenate([[lo_ns], inner, [hi_ns]])
        inverse = REF_SECONDS / np.interp(points, mids, kernel)
        if hi_ns <= lo_ns:
            return float(inverse[0])
        return float(np.trapezoid(inverse, points) / (hi_ns - lo_ns))

    def phase_seconds(self, name: str, jobs: int) -> tuple[float, float]:
        """Wall seconds of a bench phase, and its time at the reference speed.

        The processes that did the phase's work are the pool workers that
        recorded spans in it, else the bench process.  Their factors are
        averaged, weighted by how long each was active in the phase.
        """
        inside = within_phase(self.spans, name)
        ph = next(s for s in inside if s.name == f"phase.{name}")
        active: dict[int, tuple[int, int]] = {}
        for s in inside:
            if s.pid != ph.pid and s.pid in self.series:
                lo, hi = active.get(s.pid, (s.start_ns, s.end_ns))
                active[s.pid] = (min(lo, s.start_ns), max(hi, s.end_ns))
        if not active:
            active = {ph.pid: (ph.start_ns, ph.end_ns)}
        total = sum(hi - lo for lo, hi in active.values())
        factor = sum(
            self.factor(pid, lo, hi) * (hi - lo) for pid, (lo, hi) in active.items()
        ) / total
        # A kernel sample inside the phase took its time from one of ``jobs``
        # workers, and is not the program's time.
        sampled = sum(s.seconds for s in inside if s.layer == "ref") / jobs
        return ph.seconds, (ph.seconds - sampled) * factor

    def span_seconds(self, span: Span) -> float:
        return span.seconds * self.factor(span.pid, span.start_ns, span.end_ns)


@dataclass
class Unit:
    spans: list[Span]
    wall: dict[str, float]  # timed phase -> wall seconds
    seconds: dict[str, float]  # timed phase -> seconds at the reference speed
    failures: list[str] = field(default_factory=list)
    digest: str = ""  # of the unit's deterministic outputs

    @classmethod
    def measured(cls, unit_spans, jobs, failures, digest="") -> "Unit":
        speed = HostSpeed(unit_spans)
        times = {
            name: speed.phase_seconds(name, jobs) for name in ("ingest", "evaluate")
        }
        return cls(
            unit_spans,
            {name: t[0] for name, t in times.items()},
            {name: t[1] for name, t in times.items()},
            failures,
            digest,
        )


class Bench:
    def __init__(self, workload: Workload, seed: int, out_root: Path = OUT_ROOT) -> None:
        self.workload = workload
        self.seeds = tuple(seed + i for i in range(workload.grid_seeds))
        self.dir = out_root / workload.name
        self.config_path = self.dir / "faultprint.ini"
        self.setup_out = self.dir / "setup"
        self.log_path = self.dir / "cli.log"

    # -- faultprint entry points -------------------------------------------

    def cli(self, *args: str, jobs: int | None = None, config: Path | None = None) -> None:
        argv = [
            "--config", str(config or self.config_path),
            "--jobs", str(self.workload.jobs if jobs is None else jobs),
            *args,
        ]
        with open(self.log_path, "a", encoding="utf-8") as log, contextlib.redirect_stdout(log):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"faultprint {' '.join(argv)} exited with {code}")

    def config_sections(self) -> dict:
        sections = {section: dict(entries) for section, entries in self.workload.config.items()}
        sections.setdefault("grid", {})["seeds"] = ", ".join(str(s) for s in self.seeds)
        return sections

    def run_config(self) -> pipeline.RunConfig:
        return pipeline.load_run_config(self.config_path)

    # -- set-up ---------------------------------------------------------------

    def setup(self, inst: Instrument | None = None) -> tuple[float, float]:
        """Imports (in a fresh interpreter) and config writing; for the stream
        workload also simulate + train, whose outputs every unit reads.
        Returns wall seconds and seconds at the reference speed."""
        before = kernel_seconds(spans_mod.PHASE_SAMPLES)
        start = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run(
            [sys.executable, "-c", "import faultprint.cli"], cwd=ROOT, env=env, check=True
        )
        self.config_path.write_text(config_text(self.config_sections()), encoding="utf-8")
        if self.workload.kind == "stream":
            shutil.rmtree(self.setup_out, ignore_errors=True)
            with outdir(self.setup_out):
                with inst.phase("setup-simulate") if inst else contextlib.nullcontext():
                    self.cli("simulate")
                with inst.phase("setup-train") if inst else contextlib.nullcontext():
                    self.cli("train")
        wall = time.perf_counter() - start
        speed = statistics.median(before + kernel_seconds(spans_mod.PHASE_SAMPLES))
        return wall, wall * REF_SECONDS / speed

    # -- one timed unit -------------------------------------------------------

    def unit(self, inst: Instrument, index: int) -> Unit:
        if self.workload.kind == "stream":
            return self._stream_unit(inst)
        out = self.dir / f"unit-{index}"
        shutil.rmtree(out, ignore_errors=True)
        with outdir(out):
            with inst.phase("ingest"):
                for command in ("simulate", "train", "detect"):
                    self.cli(command)
            with inst.phase("evaluate"):
                self.cli("evaluate")
            unit_spans = inst.collect()
            failures = check_solves(unit_spans)
            failures += check_pipeline_outputs(out, self.run_config(), unit_spans)
            if self.workload.jobs > 1:
                failures += self._check_jobs_identity(out)
            inst.collect()  # drop spans of the checks' own faultprint calls
            digest = digest_files(out / "detection.csv", out / "localization.csv")
        return Unit.measured(unit_spans, self.workload.jobs, failures, digest)

    def _stream_unit(self, inst: Instrument) -> Unit:
        with outdir(self.setup_out):
            with inst.phase("ingest"):
                loaded = self._load_scenarios()
            with inst.phase("evaluate"):
                errors, slack_free = self._explain_alarms(inst, loaded)
        unit_spans = inst.collect()
        failures = self.check_alarms(errors, slack_free) + check_solves(unit_spans)
        return Unit.measured(unit_spans, self.workload.jobs, failures)

    def _load_scenarios(self):
        run = self.run_config()
        loaded = []
        for spec in pipeline.expand_grid(run):
            panel, _, _ = pipeline.load_scenario_files(run, spec.scenario_id)
            ensemble, threshold = pipeline.load_model_files(run, spec.scenario_id)
            stream = detector.detect(ensemble, panel, threshold)
            loaded.append((panel, ensemble, threshold, stream))
        return loaded

    def _explain_alarms(self, inst: Instrument, loaded):
        """Closed loop, one client: snapshot -> explanation -> predicted sensor.

        Returns the number of explanations that raised and the slack-free
        results for :meth:`check_alarms`."""
        run = self.run_config()
        solver_options = run.solver_options()
        slack_free = []
        errors = 0
        for panel, ensemble, threshold, stream in loaded:
            cf_config = run.cf_config(threshold)
            flow = panel.flow_indices
            with inst.phase("explain-scenario"):
                for t in stream.alarm_steps()[: self.workload.alarms_per_scenario]:
                    try:
                        snapshot = explain.snapshot_at_alarm(panel, ensemble, int(t))
                        cf = explain.ensemble_counterfactual(
                            ensemble, snapshot, cf_config, solver_options=solver_options
                        )
                        localize.predict_faulty_sensor(cf.delta, exclude=flow)
                    except explain.ExplainError:
                        errors += 1
                        continue
                    if cf.feasible_without_slack:
                        slack_free.append((ensemble, cf, threshold))
        return errors, slack_free

    def check_alarms(self, errors, slack_free) -> list[str]:
        failures = [f"{errors} alarm explanations raised ExplainError"] if errors else []
        dist = self.run_config().dist
        worst = max(
            (explain.certificate_margin(e, cf, tol, dist=dist) for e, cf, tol in slack_free),
            default=-math.inf,
        )
        if worst > CERTIFICATE_TOL:
            failures.append(f"slack-free explanation misses its certificate by {worst:.3g}")
        return failures

    def _check_jobs_identity(self, out: Path) -> list[str]:
        """Serial reruns must reproduce the parallel run's bytes.

        detection.csv is rebuilt in full.  Re-evaluating every scenario would
        double the run, so localization.csv is checked on the last fault kind
        of the grid, which Pool.map hands out in more than one chunk.
        """
        failures = []
        parallel = (out / "detection.csv").read_bytes()
        self.cli("detect", jobs=1)
        if (out / "detection.csv").read_bytes() != parallel:
            failures.append("detection.csv differs between --jobs 1 and --jobs 2")

        run = self.run_config()
        last_kind = pipeline.expand_grid(run)[-1].kind_name
        sections = self.config_sections()
        sections["grid"].update({kind: "" for kind in netgen.FAULT_KIND_NAMES})
        sections["grid"][last_kind] = ", ".join(repr(m) for m in run.magnitudes[last_kind])
        restricted = self.dir / "restricted.ini"
        restricted.write_text(config_text(sections), encoding="utf-8")
        saved = {name: (out / name).read_bytes() for name in ("localization.csv", "summary.md")}
        self.cli("evaluate", jobs=1, config=restricted)
        serial_rows = (out / "localization.csv").read_bytes().splitlines()[1:]
        parallel_rows = [
            row
            for row in saved["localization.csv"].splitlines()[1:]
            if row.startswith(f"{last_kind}-".encode())
        ]
        if not serial_rows or serial_rows != parallel_rows:
            failures.append(f"localization.csv rows of {last_kind} differ between --jobs 1 and 2")
        for name, data in saved.items():
            (out / name).write_bytes(data)
        return failures

    # -- whole run ----------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        workers = self.dir / "workers"
        setups = [self.setup() for _ in range(SETUP_REPEATS)]

        units: list[Unit] = []
        with Instrument(workers, full=False) as inst:
            started = time.perf_counter()
            while not units or time.perf_counter() - started < seconds:
                units.append(self.unit(inst, len(units)))
                # keep only the newest unit's files on disk
                shutil.rmtree(self.dir / f"unit-{len(units) - 2}", ignore_errors=True)

        traced = None
        if trace:
            with Instrument(workers, full=True) as inst:
                self.setup(inst)
                setup_spans = inst.collect()
                traced = self.unit(inst, len(units))
                traced.spans = setup_spans + traced.spans
            write_spans(self.dir / "spans.jsonl", traced.spans)

        every = units + ([traced] if traced else [])
        failures = [f for u in every for f in u.failures] + check_repeatable(every)
        attempted, failed = operation_counts([s for u in every for s in u.spans])
        if trace:
            metrics = per_layer_metrics(traced, units, self.workload.jobs)
        else:
            metrics = end_to_end_metrics([t for _, t in setups], units)
        return {
            "info": {
                "workload": self.workload.name,
                "grid_seeds": list(self.seeds),
                "units": len(units),
                "unit_wall_s": [u.wall for u in every],
                "unit_rescaled_s": [u.seconds for u in every],
                "setup_wall_s": [w for w, _ in setups],
                "setup_rescaled_s": [t for _, t in setups],
                "failures": failures,
                "environment": environment(),
            },
            "result": {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
        }


# ---------------------------------------------------------------------------
# correctness checks


def check_solves(unit_spans: list[Span]) -> list[str]:
    solves = [s for s in unit_spans if s.name == "optim.solve"]
    failures = []
    if not solves:
        failures.append("no convex solve was observed")
    bad = sum(1 for s in solves if not s.attrs.get("optimal"))
    if bad:
        failures.append(f"{bad} of {len(solves)} solves ended other than OPTIMAL")
    worst = max((s.attrs.get("kkt_ratio", math.inf) for s in solves), default=0.0)
    if worst > MAX_KKT_RATIO:
        failures.append(f"worst KKT ratio {worst:.3g} exceeds {MAX_KKT_RATIO}")
    errors = sum(1 for s in unit_spans if s.attrs and "error" in s.attrs)
    if errors:
        failures.append(f"{errors} layer calls raised")
    return failures


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_pipeline_outputs(out: Path, run: pipeline.RunConfig, unit_spans: list[Span]) -> list[str]:
    """detection.csv, localization.csv and summary.md against the grid, the
    solves the probes saw, and the paper's accuracy gates."""
    failures = []
    ids = [spec.scenario_id for spec in pipeline.expand_grid(run)]

    detection = _read_csv(out / "detection.csv")
    if [row["scenario_id"] for row in detection] != ids:
        failures.append("detection.csv does not list the grid's scenarios in order")
    missed = [row["scenario_id"] for row in detection if row["detected"] != "1"]
    if missed:
        failures.append(f"faults not detected: {', '.join(missed)}")

    rows = _read_csv(out / "localization.csv")
    if [row["scenario_id"] for row in rows] != ids:
        failures.append("localization.csv does not list the grid's scenarios in order")
        return failures
    for row in rows:
        fault = json.loads(
            (out / "scenarios" / row["scenario_id"] / "fault.json").read_text(encoding="utf-8")
        )
        if row["true_sensor"] != str(fault["fault"]["sensor"]):
            failures.append(f"{row['scenario_id']}: true_sensor disagrees with fault.json")
        for method in ("ensemble", "baseline"):
            correct = row[f"{method}_prediction"] == row["true_sensor"]
            if row[f"{method}_correct"] != str(int(correct)):
                failures.append(f"{row['scenario_id']}: {method}_correct disagrees with prediction")
    accuracy = statistics.fmean(row["ensemble_prediction"] == row["true_sensor"] for row in rows)
    baseline = statistics.fmean(row["baseline_prediction"] == row["true_sensor"] for row in rows)

    summary = (out / "summary.md").read_text(encoding="utf-8")
    reported = _summary_numbers(summary)
    solves = [s for s in within_phase(unit_spans, "evaluate") if s.name == "optim.solve"]
    if reported.get("solves") != len(solves):
        failures.append(
            f"summary.md reports {reported.get('solves')} convex solves, probes saw {len(solves)}"
        )
    if reported.get("non_optimal") != 0:
        failures.append(f"summary.md reports {reported.get('non_optimal')} non-optimal solves")
    if not reported.get("kkt_ratio", math.inf) <= MAX_KKT_RATIO:
        failures.append(f"summary.md KKT ratio {reported.get('kkt_ratio')} exceeds {MAX_KKT_RATIO}")
    if (reported.get("accuracy"), reported.get("baseline")) != (
        f"{accuracy:.4f}", f"{baseline:.4f}"
    ):
        failures.append("summary.md accuracy disagrees with localization.csv")
    if accuracy < MIN_ACCURACY:
        failures.append(f"accuracy {accuracy:.4f} below {MIN_ACCURACY}")
    if accuracy - baseline < MIN_GAP:
        failures.append(f"accuracy gap {accuracy - baseline:.4f} below {MIN_GAP}")
    return failures


def _summary_numbers(summary: str) -> dict:
    patterns = {
        "solves": (r"^- convex solves: (\d+)$", int),
        "non_optimal": (r"^- non-optimal solves: (\d+)$", int),
        "kkt_ratio": (r"^- worst KKT residual ratio vs tolerance: (\S+)$", float),
        "accuracy": (r"^\| consistent explanation \| (\S+) \|", str),
        "baseline": (r"^\| per-model baseline \| (\S+) \|", str),
    }
    found = {}
    for key, (pattern, cast) in patterns.items():
        match = re.search(pattern, summary, re.MULTILINE)
        if match:
            found[key] = cast(match.group(1))
    return found


def within_phase(unit_spans: list[Span], phase: str) -> list[Span]:
    """Spans of any process that ran inside the named bench phase."""
    ph = next(s for s in unit_spans if s.name == f"phase.{phase}")
    return [s for s in unit_spans if ph.start_ns <= s.start_ns and s.end_ns <= ph.end_ns]


def check_repeatable(units: list[Unit]) -> list[str]:
    """Every unit does the same work, so its counts and outputs repeat exactly."""
    def signature(unit: Unit):
        solves = [s for s in unit.spans if s.name == "optim.solve"]
        return len(solves), sum(s.attrs.get("iters", 0) for s in solves), unit.digest

    signatures = {signature(u) for u in units}
    if len(signatures) > 1:
        return [f"units disagree on (solves, iterations, output digest): {sorted(signatures)}"]
    return []


def digest_files(*paths: Path) -> str:
    sha = hashlib.sha256()
    for path in paths:
        sha.update(path.read_bytes())
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# metrics


def operation_counts(all_spans: list[Span]) -> tuple[int, int]:
    """Operations are convex solves and explanation calls, over every unit.

    A solve fails unless OPTIMAL; an explanation fails if it raised."""
    solves = [s for s in all_spans if s.name == "optim.solve"]
    explanations = spans_mod.explanation_calls(all_spans)
    attempted = len(solves) + len(explanations)
    failed = sum(1 for s in solves if not s.attrs.get("optimal"))
    failed += sum(1 for s in explanations if s.attrs and "error" in s.attrs)
    return attempted, failed


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def alarm_explanation_ms(unit: Unit) -> list[float]:
    """Latency of every alarm explanation (ensemble counterfactual) of the
    unit's evaluate phase, at the reference speed."""
    speed = HostSpeed(unit.spans)
    evaluate = within_phase(unit.spans, "evaluate")
    return [speed.span_seconds(s) * 1e3 for s in spans_mod.direct_ensemble_calls(evaluate)]


def end_to_end_metrics(setup_seconds: list[float], units: list[Unit]) -> dict:
    latencies_ms = [x for u in units for x in alarm_explanation_ms(u)]
    return {
        "setup_s": _metric(statistics.median(setup_seconds), "s"),
        "ingest_s": _metric(statistics.median(u.seconds["ingest"] for u in units), "s"),
        "evaluate_s": _metric(statistics.median(u.seconds["evaluate"] for u in units), "s"),
        "explain_ms_p50": _metric(percentile(latencies_ms, 50), "ms"),
        "explain_ms_worst5pct": _metric(worst_share_mean(latencies_ms, 0.05), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


def per_layer_metrics(traced: Unit, units: list[Unit], jobs: int) -> dict:
    """Layer metrics of the traced unit.  Times are at the reference speed,
    except the straggler gap and the ratios, which compare raw times."""
    sp = traced.spans
    speed = HostSpeed(sp)
    rescaled = {(s.pid, s.seq): speed.span_seconds(s) for s in sp}

    def seconds(span: Span) -> float:
        return rescaled[(span.pid, span.seq)]

    own = spans_mod.self_seconds(sp, seconds)

    def total(layer: str) -> float:
        return sum(seconds(s) for s in sp if s.layer == layer)

    def count(layer: str, key: str) -> int:
        return sum(s.attrs[key] for s in sp if s.layer == layer and s.attrs and key in s.attrs)

    solves = [s for s in sp if s.name == "optim.solve"]
    solve_ms = [seconds(s) * 1e3 for s in solves]
    iters = [s.attrs.get("iters", 0) for s in solves]
    solve_s = sum(solve_ms) / 1e3
    iters_total = sum(iters)

    outer_explain = spans_mod.explanation_calls(sp)
    ensemble = spans_mod.direct_ensemble_calls(sp)
    slack_free = sum(1 for s in ensemble if s.attrs and s.attrs.get("slack_free"))

    # Per-scenario tasks of the evaluate phase: the pipeline's own task, or
    # the closed loop's per-scenario span when the bench drives the loop.
    evaluate = next(s for s in sp if s.name == "phase.evaluate")
    tasks = [
        s for s in within_phase(sp, "evaluate")
        if s.name in ("pipeline.evaluate_scenario_files", "phase.explain-scenario")
    ]
    finish: dict[int, int] = {}
    for s in tasks:
        finish[s.pid] = max(finish.get(s.pid, 0), s.end_ns)
    straggler = (max(finish.values()) - min(finish.values())) * 1e-9 if finish else 0.0

    traced_wall = sum(traced.seconds.values())
    untraced_wall = statistics.median(sum(u.seconds.values()) for u in units)
    m = _metric
    return {
        "netgen.generate_s": m(total("netgen.generate"), "s"),
        "netgen.write_csv_s": m(total("netgen.write_csv"), "s"),
        "netgen.csv_mb_written": m(count("netgen.write_csv", "bytes") / 1e6, "MB"),
        "netgen.load_csv_s": m(total("netgen.load_csv"), "s"),
        "netgen.rows_parsed": m(count("netgen.load_csv", "rows"), "count"),
        "sensors.fit_s": m(total("sensors.fit"), "s"),
        "sensors.models_fit": m(count("sensors.fit", "models"), "count"),
        "sensors.io_s": m(total("sensors.io"), "s"),
        "detector.calibrate_s": m(total("detector.calibrate"), "s"),
        "detector.detect_s": m(total("detector.detect"), "s"),
        "detector.steps_scored": m(count("detector.detect", "steps"), "count"),
        "explain.calls": m(len(outer_explain), "count"),
        "explain.errors": m(
            sum(1 for s in outer_explain if s.attrs and "error" in s.attrs), "count"
        ),
        "explain.self_s": m(own.get("explain", 0.0), "s"),
        "explain.ensemble_calls": m(len(ensemble), "count"),
        "explain.slack_free_ratio": m(slack_free / len(ensemble) if ensemble else 0.0, "ratio"),
        "optim.solves": m(len(solves), "count"),
        "optim.solve_s": m(solve_s, "s"),
        "optim.solve_ms_p50": m(percentile(solve_ms, 50), "ms"),
        "optim.solve_ms_p95": m(percentile(solve_ms, 95), "ms"),
        "optim.iters_total": m(iters_total, "count"),
        "optim.iters_p50": m(percentile(iters, 50), "count"),
        "optim.iters_p95": m(percentile(iters, 95), "count"),
        "optim.us_per_iter": m(solve_s / iters_total * 1e6 if iters_total else 0.0, "us"),
        "optim.kkt_s": m(total("optim.kkt"), "s"),
        "optim.non_optimal": m(sum(1 for s in solves if not s.attrs.get("optimal")), "count"),
        "optim.max_kkt_ratio": m(
            max((s.attrs.get("kkt_ratio", math.inf) for s in solves), default=0.0), "ratio"
        ),
        "localize.self_s": m(own.get("localize", 0.0), "s"),
        "pipeline.self_s": m(own.get("pipeline", 0.0), "s"),
        "pipeline.worker_busy_ratio": m(
            sum(s.seconds for s in tasks) / (jobs * evaluate.seconds), "ratio"
        ),
        "pipeline.straggler_s": m(straggler, "s"),
        "trace.spans": m(sum(1 for s in sp if s.layer != "ref"), "count"),
        "trace.overhead_s": m(traced_wall - untraced_wall, "s"),
        "trace.overhead_ratio": m((traced_wall - untraced_wall) / untraced_wall, "ratio"),
    }


def write_spans(path: Path, all_spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in all_spans:
            fh.write(json.dumps(span._asdict()) + "\n")
