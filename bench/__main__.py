"""Command line of the benchmark; run from the root of a checkout.

::

    python -m bench --workload arq_small --seed 3 --seconds 10 --trace 0
    python -m bench --seed 0                  # all workloads, one process each
    python -m bench record --runs 10 --out A.json
    python -m bench calibrate --runs 3        # rewrites BENCHMARK.json bounds
    python -m bench compare A.json B.json

A single-workload run prints a summary, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  It exits non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from bench import use_src


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sub = parser.add_subparsers(dest="tool")
    record = sub.add_parser("record", help="run every workload --runs times, save results")
    calibrate = sub.add_parser("calibrate", help="record, then write bounds to BENCHMARK.json")
    for tool, runs in ((record, 10), (calibrate, 3)):
        tool.add_argument("--runs", type=int, default=runs)
        tool.add_argument("--out", default=None, help="results file (default .bench_out/)")
        tool.add_argument("--workload", dest="only", action="append", help="repeatable")
    compare = sub.add_parser("compare", help="parent results A vs change results B")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    use_src()
    from bench import spec, tools
    from bench.run import WORKLOADS, render, result, run_workload

    doc = spec.load()
    seconds = args.seconds if args.seconds is not None else doc["run_seconds"]
    if args.tool == "compare":
        return tools.compare_files(args.a, args.b, doc)
    if args.tool in ("record", "calibrate"):
        if args.tool == "calibrate" and args.runs < 3:
            raise SystemExit("calibrate needs at least 3 runs")
        names = args.only or list(WORKLOADS)
        recorded = tools.record(names, args.runs, seconds, args.out)
        if args.tool == "calibrate":
            tools.calibrate(recorded, doc)
        return 0 if tools.all_correct(recorded) else 1
    if args.workload is None:
        return tools.run_all(list(WORKLOADS), args.seed, seconds, args.trace)

    trace = bool(args.trace)
    run = run_workload(args.workload, seed=args.seed, seconds=seconds, trace=trace)
    for line in render(run, doc, trace):
        print(line)
    print(json.dumps(result(run, trace, doc)), flush=True)
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
