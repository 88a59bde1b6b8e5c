"""Command line of the benchmark.

    python -m bench run --workload NAME|all --seed N [--seconds S]
                        [--trace [0|1]] [--out DIR] [--quick]
    python -m bench compare BASE_DIR NEW_DIR

``run`` exits non-zero when an output check fails, and when the checkout has
no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import sys

from . import SRC


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload, or all of them")
    run.add_argument("--workload", required=True,
                     help="a workload of BENCHMARK.json, or 'all'")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, default=None,
                     help="measured seconds per run (default: run_seconds "
                          "of BENCHMARK.json; with --quick, the self-test "
                          "length)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="traced run: per-layer metrics")
    run.add_argument("--out", default=None,
                     help="directory for result files (default bench/out)")
    run.add_argument("--quick", action="store_true",
                     help="self-test sizes: seconds, not minutes")
    compare = commands.add_parser("compare", help="compare two result sets")
    compare.add_argument("base")
    compare.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from .compare import compare_dirs
        return compare_dirs(args.base, args.new)

    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    from .run import DEFAULT_OUT, WORKLOADS, run_all, run as run_one
    if args.workload not in WORKLOADS and args.workload != "all":
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    out = args.out if args.out is not None else str(DEFAULT_OUT)
    if args.workload == "all":
        return run_all(args.seed, bool(args.trace), out, args.quick,
                       seconds=args.seconds)
    record = run_one(args.workload, args.seed, bool(args.trace), out=out,
                     quick=args.quick, seconds=args.seconds)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
