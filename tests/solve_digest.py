"""Digest of every convex solve one workload makes, to compare two source trees.

    python tests/solve_digest.py --src src --workload lp-grid --seeds 1
    python tests/solve_digest.py --src ../other/src --workload stream --seeds 1 2 3
    python tests/solve_digest.py --src src --workload random --seeds 1
    python tests/solve_digest.py --src src --workload classifier --seeds 1

Grid workloads (the default grid of the given seeds, built, trained and
detected in memory as the CLI does it from its files):

- ``lp-grid``: each scenario's alarm steps explained as ``faultprint
  evaluate`` explains them (l1/abs: a warm-started ensemble chain, and
  per-model solves from their closed-form start).
- ``l2-grid``: the same with complexity l2 and squared error.
- ``stream``: the first 67 alarms of each l2/squared scenario, each
  explained once without a warm start (the loop of the ``alarm-stream-qp``
  benchmark workload).

The ``random`` workload solves, for each seed, 600 random bounded problems
(:func:`random_problems`) at ``tol_abs = tol_rel`` = 1e-7 and 1e-10 with
``max_iters`` 5000, and re-solves each warm, from that solution's duals,
with every finite bound widened by 1e-3.  The warm start goes in as
``dual_guess=y``.

The ``classifier`` workload explains, for each seed, 300 random ensembles
of binary linear classifiers (:func:`random_classifier_ensembles`) with
``explain.classification_ensemble_cf``, whose program has only one-sided
rows, at the solver's default options.

Prints the solve count, the ADMM iterations, the count of each status and
solution path (``guessed_paths``: those of the solves a closed-form guess
started, or ``none``; a guess is counted for each row of duals an
``explain._Stack.vertex_duals`` call returns), and two SHA-256 digests
over every solve in call order:
``sha256`` over its z, y, status, iterations, path, kkt and kkt_tol, and
``points_sha256`` over the same fields without the iterations and the
path, so a change that keeps every point and only saves iterations, or
reaches a point by another path, keeps it.  A third,
``explanations_sha256``, covers what the explanations decode from those
solves: each ``Counterfactual``'s delta, x_cf, slacks, objective and
slack-free flag, in call order (it wraps ``explain._decode``, and hashes
each explanation of a stacked decode in turn), and, on
``lp-grid`` and ``l2-grid``, each scenario's ``localize_scenario`` result
(both predictions, the step count, the certificate excess's bytes and the
solve audit).  A fourth, ``detection_sha256``, covers each grid scenario's
detection: its threshold, ``stream.start``, the bytes of ``stream.alarms``
and the six values of ``detection_metrics(stream, scenario.fault)``, read by
attribute (``DETECTION_FIELDS``).  A fifth, ``predictions_sha256``, covers
only what the explanations predict: on ``lp-grid`` and ``l2-grid`` each
scenario's two predictions and step count, on ``stream`` each
explanation's ``localize.predict_faulty_sensor(cf.delta, exclude=flow)``
(flow: the panel's flow channels), on ``classifier`` each explanation's
labels ``predict(x_cf)`` of its classifiers, so a change that moves points
at rounding level but keeps every prediction keeps it.

The call-order digests move when a change only reorders solves that share
no state, such as running a scenario's per-model baselines before its
ensemble chain.  Three more digests leave that order out.  A problem family
is the problems that share one ``_kkt_slot`` (the problems
``ConvexProblem.with_bounds`` makes from one problem, which share their
kept factors and maps), so its solves' order is its history.
``family_sha256``, ``family_points_sha256`` and
``family_explanations_sha256`` hash each family's solves, as ``sha256`` and
``points_sha256`` hash all of them, and the explanations decoded from its
solutions, as ``explanations_sha256`` hashes each explanation, each in call
order; each then hashes those family digests in sorted order.  The script
keeps a reference to every family's slot, so no later family takes its
``id``.  ``families`` counts them.  It also prints how
many ``_polish`` calls, pivoted-QR (``geqp3``) and KKT LU (``getrf``)
factorizations and ADMM x-step maps (``x_step_maps``: one x-step Cholesky
factorization each) and affine maps of kept KKT row sets (``kkt_maps``)
the solves made, and how many counterfactual programs were built
(``programs``: one per program of each ``explain._Stack``, or each
``explain._Program`` on a tree that builds its programs apart from their
stack); those counts are in no digest.
``faultprint`` is imported from ``--src``, so one copy of this script
hashes any checkout.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import struct
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("lp-grid", "l2-grid", "stream", "random", "classifier")
STREAM_ALARMS = 67
RANDOM_PROBLEMS = 600
RANDOM_TOLERANCES = (1e-7, 1e-10)
RANDOM_MAX_ITERS = 5000
RANDOM_WIDEN = 1e-3
CLASSIFIER_ENSEMBLES = 300
DETECTION_FIELDS = (
    "true_positive_rate", "true_negative_rate", "false_positive_rate",
    "false_negative_rate", "detection_delay", "detected",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the faultprint package")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--scenarios", type=int, default=None,
                        help="only the first N scenarios of the grid (problems or ensembles of a seed)")
    return parser.parse_args(argv)


def random_problems(optim, seed: int, count: int = RANDOM_PROBLEMS):
    """Random feasible bounded problems, the kind that stress polishing.

    Each has 2-8 variables, box rows on every variable (so it is bounded)
    and 1-6 random rows around a known feasible point.  Every second
    problem is a QP with a rank-n//2 P; |q| is scaled by 10^U(-1, 2).
    About 30% have one random row made an equality, 30% one random row
    one-sided and 20% a copy of a random row perturbed by 1e-9.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 9))
        x0 = rng.uniform(-1.0, 1.0, n)
        extra = rng.normal(size=(int(rng.integers(1, 7)), n))
        if rng.random() < 0.2:
            copy = extra[rng.integers(extra.shape[0])] + 1e-9 * rng.normal(size=n)
            extra = np.vstack([extra, copy])
        A = np.vstack([np.eye(n), extra])
        ax0 = A @ x0
        m = A.shape[0]
        l = ax0 - rng.uniform(0.1, 2.0, m)
        u = ax0 + rng.uniform(0.1, 2.0, m)
        if rng.random() < 0.3:
            row = n + int(rng.integers(extra.shape[0]))
            l[row] = u[row] = ax0[row]
        if rng.random() < 0.3:
            row = n + int(rng.integers(extra.shape[0]))
            if l[row] < u[row]:  # not the equality row
                if rng.random() < 0.5:
                    l[row] = -np.inf
                else:
                    u[row] = np.inf
        q = rng.normal(size=n) * 10.0 ** rng.uniform(-1.0, 2.0)
        root = rng.normal(size=(n, n // 2)) if k % 2 else np.zeros((n, 0))
        P = root @ root.T
        yield optim.ConvexProblem(P=P, q=q, A=A, l=l, u=u)


def solve_random(optim, seeds, count: int) -> None:
    """Cold and widened warm solves of each random problem at each tolerance."""
    for seed in seeds:
        for problem in random_problems(optim, seed, count):
            wider = problem.with_bounds(problem.l - RANDOM_WIDEN, problem.u + RANDOM_WIDEN)
            for tol in RANDOM_TOLERANCES:
                options = dict(tol_abs=tol, tol_rel=tol, max_iters=RANDOM_MAX_ITERS)
                cold = optim.solve(problem, **options)
                optim.solve(wider, dual_guess=cold.y, **options)


def random_classifier_ensembles(explain, seed: int, count: int = CLASSIFIER_ENSEMBLES):
    """Random classifier ensembles, each with a snapshot, targets and config.

    Each has 1-8 classifiers over 2-10 inputs and random targets of +-1, so
    some rows hold at the snapshot and some do not; complexity alternates
    between l1 and l2 and the slack penalty is 10^U(-1, 3).  About a fifth
    repeat their first classifier with its target flipped, which no change
    satisfies, so their explanation needs slack.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        n, m = int(rng.integers(2, 11)), int(rng.integers(1, 9))
        classifiers = [
            explain.LinearClassifier(rng.normal(size=n), float(rng.normal())) for _ in range(m)
        ]
        targets = rng.choice((-1.0, 1.0), size=m)
        if rng.random() < 0.2:
            classifiers.append(classifiers[0])
            targets = np.append(targets, -targets[0])
        config = explain.CfConfig(
            slack_penalty=float(10.0 ** rng.uniform(-1.0, 3.0)), complexity=("l1", "l2")[k % 2]
        )
        yield classifiers, rng.normal(scale=2.0, size=n), targets, config


def explain_classifiers(explain, seeds, count: int, predictions_digest) -> int:
    """Explain each random classifier ensemble; returns the explain errors.

    Each explanation's labels at x_cf go into ``predictions_digest`` (an
    explanation that fails enters it as ``error``).
    """
    errors = 0
    for seed in seeds:
        for classifiers, x, targets, config in random_classifier_ensembles(explain, seed, count):
            try:
                cf = explain.classification_ensemble_cf(classifiers, x, targets, config)
            except explain.ExplainError:
                errors += 1
                update(predictions_digest, b"error")
                continue
            labels = tuple(clf.predict(cf.x_cf) for clf in classifiers)
            update(predictions_digest, repr(labels).encode())
    return errors


def update(digest, part: bytes) -> None:
    """Hash one length-framed part, so no two part sequences collide."""
    digest.update(len(part).to_bytes(8, "little") + part)


def import_faultprint(src: Path):
    sys.path.insert(0, str(src))
    import faultprint

    if Path(faultprint.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"faultprint imported from {faultprint.__file__}, not {src}")
    from faultprint import detector, explain, localize, optim, pipeline

    return detector, explain, localize, optim, pipeline


def main(argv=None) -> int:
    args = parse_args(argv)
    detector, explain, localize, optim, pipeline = import_faultprint(Path(args.src))

    digest, points_digest = hashlib.sha256(), hashlib.sha256()
    explanations_digest, detection_digest = hashlib.sha256(), hashlib.sha256()
    predictions_digest = hashlib.sha256()
    statuses: collections.Counter = collections.Counter()
    paths: collections.Counter = collections.Counter()
    guessed_paths: collections.Counter = collections.Counter()
    counts = collections.Counter()
    solve, polish, geqp3, getrf = optim.solve, optim._polish, optim._geqp3, optim._getrf
    factorize, decode = optim._factorize_scaled, explain._decode
    kkt_map, stack, vertex_duals = optim._kkt_map, explain._Stack, explain._Stack.vertex_duals
    # Whether the latest vertex_duals call gave a guess, for the solve after it.
    guessed = []
    # id(_kkt_slot) -> (the slot, then its solves', points' and explanations'
    # digests); id(solution) -> (the solution, its family) until decoded.
    families, family_of_solution = {}, {}

    def family_of(problem):
        slot = problem._kkt_slot
        if id(slot) not in families:
            families[id(slot)] = (slot,) + tuple(hashlib.sha256() for _ in range(3))
        return families[id(slot)]

    def family_digest(index: int) -> str:
        combined = hashlib.sha256()
        for hexdigest in sorted(family[index].hexdigest() for family in families.values()):
            update(combined, hexdigest.encode())
        return combined.hexdigest()

    def hashed_solve(*a, **kw):
        sol = solve(*a, **kw)
        family = family_of(a[0] if a else kw["problem"])
        family_of_solution[id(sol)] = (sol, family)
        counts["solves"] += 1
        counts["iterations"] += sol.iterations
        statuses[sol.status.value] += 1
        paths[sol.path] += 1
        if guessed and guessed.pop():
            guessed_paths[sol.path] += 1
        point = (sol.z.tobytes(), sol.y.tobytes(), sol.status.value.encode())
        certificate = (
            repr(tuple(float(v) for v in sol.kkt)).encode(),
            repr(tuple(float(v) for v in sol.kkt_tol)).encode(),
        )
        how = (str(sol.iterations).encode(), sol.path.encode())
        for part in point + how + certificate:
            update(digest, part)
            update(family[1], part)
        for part in point + certificate:
            update(points_digest, part)
            update(family[2], part)
        return sol

    def hashed_decode(*a, **kw):
        decoded = decode(*a, **kw)
        for cf in decoded:  # one explanation per problem of the stack
            _, family = family_of_solution.pop(id(cf.solution))
            for part in (
                cf.delta.tobytes(),
                cf.x_cf.tobytes(),
                cf.slacks.tobytes(),
                struct.pack("<d", cf.objective),
                b"1" if cf.feasible_without_slack else b"0",
            ):
                update(explanations_digest, part)
                update(family[3], part)
        return decoded

    def counted_polish(*a, **kw):
        counts["polish"] += 1
        return polish(*a, **kw)

    def counted_geqp3(*a, **kw):
        counts["geqp3"] += 1
        return geqp3(*a, **kw)

    def counted_getrf(*a, **kw):
        counts["getrf"] += 1
        return getrf(*a, **kw)

    def counted_factorize(*a, **kw):
        counts["x_step_maps"] += 1
        return factorize(*a, **kw)

    def counted_kkt_map(*a, **kw):
        counts["kkt_maps"] += 1
        return kkt_map(*a, **kw)

    # One count per program: each _Program on a tree that builds its
    # programs apart from their stack, else each program of a _Stack, whose
    # G is (programs, rows, sensors).
    apart = getattr(explain, "_Program", None)

    class CountedBuild(apart or stack):
        def __init__(self, *a, **kw):
            counts["programs"] += 1 if apart else a[0].shape[0]
            super().__init__(*a, **kw)

    def counted_vertex_duals(self, *a):
        duals = vertex_duals(self, *a)
        # one row of duals per problem, whatever the stack's leading axes
        guessed[:] = [] if duals is None else [True] * (duals.size // duals.shape[-1])
        return duals

    optim.solve, optim._polish = hashed_solve, counted_polish
    optim._geqp3, optim._getrf = counted_geqp3, counted_getrf
    optim._factorize_scaled = counted_factorize
    optim._kkt_map, explain._decode = counted_kkt_map, hashed_decode
    setattr(explain, "_Program" if apart else "_Stack", CountedBuild)
    stack.vertex_duals = counted_vertex_duals

    if args.workload == "random":
        count = RANDOM_PROBLEMS if args.scenarios is None else args.scenarios
        solve_random(optim, args.seeds, count)
        errors = 0
    elif args.workload == "classifier":
        count = CLASSIFIER_ENSEMBLES if args.scenarios is None else args.scenarios
        errors = explain_classifiers(explain, args.seeds, count, predictions_digest)
    else:
        digests = (explanations_digest, detection_digest, predictions_digest)
        errors = solve_grid(args, detector, explain, localize, pipeline, *digests)

    print(f"solves: {counts['solves']}")
    print(f"iterations: {counts['iterations']}")
    print("statuses: " + " ".join(f"{s}={n}" for s, n in sorted(statuses.items())))
    print("paths: " + " ".join(f"{p}={n}" for p, n in sorted(paths.items())))
    guessed = " ".join(f"{p}={n}" for p, n in sorted(guessed_paths.items()))
    print(f"guessed_paths: {guessed or 'none'}")
    print(f"explain_errors: {errors}")
    print(f"polish: {counts['polish']}")
    print(f"geqp3: {counts['geqp3']}")
    print(f"getrf: {counts['getrf']}")
    print(f"x_step_maps: {counts['x_step_maps']}")
    print(f"kkt_maps: {counts['kkt_maps']}")
    print(f"programs: {counts['programs']}")
    print(f"families: {len(families)}")
    print(f"sha256: {digest.hexdigest()}")
    print(f"points_sha256: {points_digest.hexdigest()}")
    print(f"explanations_sha256: {explanations_digest.hexdigest()}")
    print(f"detection_sha256: {detection_digest.hexdigest()}")
    print(f"predictions_sha256: {predictions_digest.hexdigest()}")
    print(f"family_sha256: {family_digest(1)}")
    print(f"family_points_sha256: {family_digest(2)}")
    print(f"family_explanations_sha256: {family_digest(3)}")
    return 0


def solve_grid(
    args, detector, explain, localize, pipeline,
    explanations_digest, detection_digest, predictions_digest,
) -> int:
    """Explain the grid workload's alarm steps; returns the explain errors.

    Each ``localize_scenario`` result goes into ``explanations_digest``, each
    scenario's detection into ``detection_digest``, and what the scenario's
    explanations predict into ``predictions_digest`` (an explanation that
    fails enters it as ``error``).
    """
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
        report = detector.detection_metrics(stream, scenario.fault)
        metrics = tuple(getattr(report, name) for name in DETECTION_FIELDS)
        for part in (
            struct.pack("<d", threshold),
            str(stream.start).encode(),
            stream.alarms.tobytes(),
            repr(metrics).encode(),
        ):
            update(detection_digest, part)
        if args.workload != "stream":
            ensemble_pred, baseline_pred, steps, excess, audit = pipeline.localize_scenario(
                run, panel, ensemble, threshold, stream
            )
            predictions = repr((ensemble_pred, baseline_pred, steps)).encode()
            update(explanations_digest, predictions)
            update(predictions_digest, predictions)
            update(explanations_digest, struct.pack("<d", excess))
            audit_values = (audit.solves, audit.non_optimal, float(audit.max_ratio))
            update(explanations_digest, repr(audit_values).encode())
            continue
        cf_config = run.cf_config(threshold)
        for t in stream.alarm_steps()[:STREAM_ALARMS]:
            snapshot = explain.snapshot_at_alarm(panel, ensemble, int(t))
            try:
                cf = explain.ensemble_counterfactual(
                    ensemble, snapshot, cf_config, solver_options=run.solver_options()
                )
            except explain.ExplainError:
                errors += 1
                update(predictions_digest, b"error")
                continue
            prediction = localize.predict_faulty_sensor(cf.delta, exclude=panel.flow_indices)
            update(predictions_digest, repr(prediction).encode())
    return errors


if __name__ == "__main__":
    sys.exit(main())
