"""Digest of every convex solve one workload makes, to compare two source trees.

    python tests/solve_digest.py --src src --workload lp-grid --seeds 1
    python tests/solve_digest.py --src ../other/src --workload stream --seeds 1 2 3

Workloads (the default grid of the given seeds, built, trained and detected
in memory as the CLI does it from its files):

- ``lp-grid``: each scenario's alarm steps explained as ``faultprint
  evaluate`` explains them (l1/abs, warm-started chains).
- ``l2-grid``: the same with complexity l2 and squared error.
- ``stream``: the first 67 alarms of each l2/squared scenario, each
  explained once without a warm start (the loop of the ``alarm-stream-qp``
  benchmark workload).

Prints the solve count, the ADMM iterations, the count of each solution
path and one SHA-256 over every solve's z, y, status, iterations, path,
kkt and kkt_tol, in call order.  It also prints how many pivoted-QR
(``geqp3``) and KKT LU (``getrf``) factorizations the solves made; those
counts are not part of the digest.  ``faultprint`` is imported from
``--src``, so one copy of this script hashes any checkout.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import sys
from pathlib import Path

WORKLOADS = ("lp-grid", "l2-grid", "stream")
STREAM_ALARMS = 67


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the faultprint package")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--scenarios", type=int, default=None,
                        help="only the first N scenarios of the grid")
    return parser.parse_args(argv)


def import_faultprint(src: Path):
    sys.path.insert(0, str(src))
    import faultprint

    if Path(faultprint.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"faultprint imported from {faultprint.__file__}, not {src}")
    from faultprint import detector, explain, optim, pipeline

    return detector, explain, optim, pipeline


def main(argv=None) -> int:
    args = parse_args(argv)
    detector, explain, optim, pipeline = import_faultprint(Path(args.src))

    digest = hashlib.sha256()
    paths: collections.Counter = collections.Counter()
    counts = collections.Counter()
    solve, geqp3, getrf = optim.solve, optim._geqp3, optim._getrf

    def hashed_solve(*a, **kw):
        sol = solve(*a, **kw)
        counts["solves"] += 1
        counts["iterations"] += sol.iterations
        paths[sol.path] += 1
        for part in (
            sol.z.tobytes(),
            sol.y.tobytes(),
            sol.status.value.encode(),
            str(sol.iterations).encode(),
            sol.path.encode(),
            repr(tuple(float(v) for v in sol.kkt)).encode(),
            repr(tuple(float(v) for v in sol.kkt_tol)).encode(),
        ):
            digest.update(len(part).to_bytes(8, "little") + part)
        return sol

    def counted_geqp3(*a, **kw):
        counts["geqp3"] += kw.get("lwork") != -1  # the workspace query factors nothing
        return geqp3(*a, **kw)

    def counted_getrf(*a, **kw):
        counts["getrf"] += 1
        return getrf(*a, **kw)

    optim.solve, optim._geqp3, optim._getrf = hashed_solve, counted_geqp3, counted_getrf

    l1 = args.workload == "lp-grid"
    run = pipeline.RunConfig(
        seeds=tuple(args.seeds),
        complexity="l1" if l1 else "l2",
        dist="abs" if l1 else "squared",
    )
    errors = 0
    for spec in pipeline.expand_grid(run)[: args.scenarios]:
        scenario = pipeline.build_scenario(run, spec)
        panel = scenario.faulty
        ensemble, threshold = pipeline.train_scenario(
            panel, scenario.config.train_end, run.window, run.margin
        )
        stream = detector.detect(ensemble, panel, threshold)
        if args.workload != "stream":
            pipeline.localize_scenario(run, panel, ensemble, threshold, stream)
            continue
        cf_config = run.cf_config(threshold)
        for t in stream.alarm_steps()[:STREAM_ALARMS]:
            snapshot = explain.snapshot_at_alarm(panel, ensemble, int(t))
            try:
                explain.ensemble_counterfactual(
                    ensemble, snapshot, cf_config, solver_options=run.solver_options()
                )
            except explain.ExplainError:
                errors += 1

    print(f"solves: {counts['solves']}")
    print(f"iterations: {counts['iterations']}")
    print("paths: " + " ".join(f"{p}={n}" for p, n in sorted(paths.items())))
    print(f"explain_errors: {errors}")
    print(f"geqp3: {counts['geqp3']}")
    print(f"getrf: {counts['getrf']}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
