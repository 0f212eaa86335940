"""Command-line driver for the fault-explanation pipeline.

Subcommands mirror the pipeline stages and communicate through files, so
each one is independently re-runnable and byte-deterministic for a fixed
configuration:

    simulate  write the scenario grid (clean/faulty panels + ground truth)
    train     fit virtual sensors and calibrate the alarm threshold
    detect    evaluate the alarm rule per scenario (detection.csv)
    explain   fingerprint one scenario at one alarm step (CSV + SVG)
    evaluate  localization accuracy of both methods (CSV + markdown)
"""

from __future__ import annotations

import argparse
import csv
import math
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import detector, explain, localize, optim, pipeline, plots


def _fmt(value: float) -> str:
    return repr(float(value))


def _load_config(args: argparse.Namespace) -> pipeline.RunConfig:
    run = (
        pipeline.load_run_config(args.config)
        if args.config
        else pipeline.RunConfig()
    )
    if args.seed is not None:
        run = replace(run, seeds=(args.seed,))
    return run


def cmd_simulate(args: argparse.Namespace) -> int:
    run = _load_config(args)
    ids = pipeline.simulate_batch(run, jobs=args.jobs)
    print(f"simulated {len(ids)} scenarios under {pipeline.scenario_dir(run, '')}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    run = _load_config(args)
    ids = pipeline.train_batch(run, jobs=args.jobs)
    print(f"trained ensembles for {len(ids)} scenarios")
    return 0


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_detection_csv(path: Path, rows) -> None:
    header = [
        "scenario_id", "fault_kind", "magnitude", "seed", "sensor", "onset",
        "detected", "delay", "true_positive_rate", "true_negative_rate",
        "false_positive_rate", "false_negative_rate",
    ]
    _write_csv(path, header, (
        [
            spec.scenario_id, spec.kind_name, _fmt(spec.magnitude),
            spec.seed, fault.sensor, fault.onset,
            int(report.detected),
            "inf" if math.isinf(report.detection_delay) else _fmt(report.detection_delay),
            _fmt(report.true_positive_rate), _fmt(report.true_negative_rate),
            _fmt(report.false_positive_rate), _fmt(report.false_negative_rate),
        ]
        for spec, fault, report in rows
    ))


def cmd_detect(args: argparse.Namespace) -> int:
    run = _load_config(args)
    rows = pipeline.detect_batch(run, jobs=args.jobs)
    out = run.resolved_outdir()
    out.mkdir(parents=True, exist_ok=True)
    _write_detection_csv(out / "detection.csv", rows)

    reports = [report for _, _, report in rows]
    detected = sum(r.detected for r in reports)
    delays = [r.detection_delay for r in reports if r.detected]
    print(f"wrote {out / 'detection.csv'} ({len(rows)} scenarios)")
    print(f"detected: {detected}/{len(rows)}")
    if delays:
        print(f"median delay: {statistics.median(delays):g} steps")
    print(f"max false-positive rate: {max(r.false_positive_rate for r in reports):g}")
    return 0


def _write_fingerprint_csv(path: Path, labels, cf, model_targets) -> None:
    normalized = localize.normalize_explanation(cf.delta)
    slack_by_channel = {t: _fmt(s) for t, s in zip(model_targets, cf.slacks)}
    _write_csv(path, ["label", "delta", "normalized", "slack"], (
        [label, _fmt(cf.delta[i]), _fmt(normalized[i]), slack_by_channel.get(i, "")]
        for i, label in enumerate(labels)
    ))


def cmd_explain(args: argparse.Namespace) -> int:
    run = _load_config(args)
    if not args.scenario:
        raise pipeline.ConfigError("explain requires --scenario ID")
    panel, fault, _ = pipeline.load_scenario_files(run, args.scenario)
    ensemble, threshold = pipeline.load_model_files(run, args.scenario)
    stream = detector.detect(ensemble, panel, threshold)

    if args.step is not None:
        t = args.step
        if not stream.start <= t < stream.end:
            raise pipeline.ConfigError(f"--step {t} outside evaluated range")
    else:
        alarms = stream.alarm_steps()
        if alarms.size == 0:
            print(f"scenario {args.scenario}: no alarms raised; nothing to explain")
            return 1
        t = int(alarms[0])

    cf_config = run.cf_config(threshold)
    snapshot = explain.snapshot_at_alarm(panel, ensemble, t)
    cf = explain.ensemble_counterfactual(
        ensemble, snapshot, cf_config, solver_options=run.solver_options()
    )
    flow = panel.flow_indices
    predicted = localize.predict_faulty_sensor(cf.delta, exclude=flow)

    out = run.resolved_outdir() / "explain" / args.scenario
    out.mkdir(parents=True, exist_ok=True)
    base = f"fingerprint-t{t}"
    _write_fingerprint_csv(out / f"{base}.csv", panel.labels, cf, ensemble.targets)
    normalized = localize.normalize_explanation(cf.delta)
    svg = plots.bar_chart_svg(
        panel.labels,
        normalized,
        title=f"{args.scenario} t={t} consistent fingerprint",
        highlight=predicted,
        y_limit=1.0,
    )
    (out / f"{base}.svg").write_text(svg, encoding="utf-8")
    print(f"wrote {out / base}.csv and .svg")
    print(
        f"alarm step {t}: predicted faulty sensor "
        f"{'-' if predicted is None else panel.labels[predicted]} "
        f"(true: {panel.labels[fault.sensor]})"
    )

    if args.baseline:
        per_model = [
            explain.independent_counterfactual(
                model, snapshot, 0.0, cf_config, solver_options=run.solver_options()
            )
            for model in ensemble.models
        ]
        votes = np.zeros(len(panel.labels), dtype=int)
        for model_cf in per_model:
            est = localize.predict_faulty_sensor(model_cf.delta, exclude=flow)
            if est is not None:
                votes[est] += 1
        _write_csv(
            out / f"baseline-t{t}.csv",
            ["label", "votes"],
            ([label, int(count)] for label, count in zip(panel.labels, votes)),
        )
        svg = plots.bar_chart_svg(
            panel.labels,
            votes.astype(float),
            title=f"{args.scenario} t={t} baseline estimates",
            highlight=int(np.argmax(votes)) if votes.any() else None,
        )
        (out / f"baseline-t{t}.svg").write_text(svg, encoding="utf-8")
        print(f"wrote {out / f'baseline-t{t}'}.csv and .svg")
    return 0


def _write_localization_csv(path: Path, predictions) -> None:
    header = [
        "scenario_id", "fault_kind", "magnitude", "true_sensor",
        "ensemble_prediction", "baseline_prediction",
        "ensemble_correct", "baseline_correct",
    ]
    _write_csv(path, header, (
        [
            row.scenario_id, row.fault_kind, _fmt(row.magnitude), row.true_sensor,
            "" if row.ensemble_prediction is None else row.ensemble_prediction,
            "" if row.baseline_prediction is None else row.baseline_prediction,
            int(row.ensemble_correct), int(row.baseline_correct),
        ]
        for row in predictions
    ))


def _summary_markdown(report, results) -> str:
    detected = sum(res.detection.detected for res in results)
    delays = [res.detection.detection_delay for res in results if res.detection.detected]
    max_fp = max(res.detection.false_positive_rate for res in results)
    audit = optim.SolveAudit()
    for res in results:
        audit = audit.merge(res.audit)
    lines = [
        "# Fault localization summary",
        "",
        f"Scenarios evaluated: {len(results)}",
        "",
        "## Detection",
        "",
        f"- detected: {detected}/{len(results)}",
        f"- median delay: {statistics.median(delays):g} steps" if delays else "- median delay: n/a",
        f"- max step-level false-positive rate: {max_fp:g}",
        "",
        "## Localization accuracy (mean / population variance)",
        "",
        "| method | accuracy | variance |",
        "|---|---|---|",
        f"| consistent explanation | {report.ensemble_accuracy:.4f} | {report.ensemble_variance:.4f} |",
        f"| per-model baseline | {report.baseline_accuracy:.4f} | {report.baseline_variance:.4f} |",
        "",
        f"Accuracy gap (consistent - baseline): {report.accuracy_gap:.4f}",
        "",
        "## Solver",
        "",
        f"- convex solves: {audit.solves}",
        f"- non-optimal solves: {audit.non_optimal}",
        f"- worst KKT residual ratio vs tolerance: {audit.max_ratio:.3g}",
        "",
    ]
    return "\n".join(lines)


def cmd_evaluate(args: argparse.Namespace) -> int:
    run = _load_config(args)
    results = pipeline.evaluate_batch(run, jobs=args.jobs)
    predictions = pipeline.results_to_predictions(results)
    report = localize.localization_report(predictions)

    out = run.resolved_outdir()
    out.mkdir(parents=True, exist_ok=True)
    _write_localization_csv(out / "localization.csv", predictions)
    (out / "summary.md").write_text(_summary_markdown(report, results), encoding="utf-8")

    print(f"wrote {out / 'localization.csv'} and {out / 'summary.md'}")
    print(
        f"consistent explanation: {report.ensemble_accuracy:.4f} "
        f"(variance {report.ensemble_variance:.4f})"
    )
    print(
        f"per-model baseline:     {report.baseline_accuracy:.4f} "
        f"(variance {report.baseline_variance:.4f})"
    )
    print(f"gap: {report.accuracy_gap:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultprint",
        description="Sensor-fault detection and counterfactual localization pipeline.",
    )
    parser.add_argument("--config", metavar="PATH", help="run configuration file")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="scenario-level worker processes (default 1)")
    parser.add_argument("--seed", type=int, default=None, metavar="S",
                        help="replace the grid seed list with a single seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="generate the scenario grid on disk")
    sub.add_parser("train", help="fit virtual sensors and calibrate thresholds")
    sub.add_parser("detect", help="run the alarm rule over every scenario")
    p_explain = sub.add_parser("explain", help="fingerprint one scenario")
    p_explain.add_argument("--scenario", metavar="ID", required=True)
    p_explain.add_argument("--step", type=int, default=None, metavar="T",
                           help="alarm step to explain (default: first alarm)")
    p_explain.add_argument("--baseline", action="store_true",
                           help="also write the per-model baseline distribution")
    sub.add_parser("evaluate", help="localization accuracy of both methods")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "detect": cmd_detect,
    "explain": cmd_explain,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (pipeline.ConfigError, explain.ExplainError, FileNotFoundError, ValueError) as exc:
        print(f"faultprint: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
