"""faultprint benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload grid-lp --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; faultprint is imported from its ``src``.
Information lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outputs go to ``.perfbench-out/<workload>/``.  See NOTES.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread per process, set before numpy loads: the solver's matrices
# are tens of rows, and --jobs 2 on two cores must not run four threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the timed unit until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced unit and print per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import faultprint
    except ImportError as exc:
        print(f"perfbench: cannot import faultprint from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(faultprint.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: faultprint imported from {faultprint.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    os.environ.pop("FAULTPRINT_OUTDIR", None)
    report = harness.Bench(workload, args.seed).run(args.seconds, bool(args.trace))
    info = report["info"]
    print(f"# environment: {json.dumps(info.pop('environment'))}")
    for failure in info["failures"]:
        print(f"# check failed: {failure}")
    print(f"# run: {json.dumps(info)}")
    print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
