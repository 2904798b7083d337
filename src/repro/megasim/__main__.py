"""The megasim CLI: ``python -m repro.megasim --machines 1000000``.

Runs one scenario — serial by default, sharded over a
``repro.parallel`` pool with ``--workers N`` — printing the transcript
as epochs complete and a headline events/sec summary at the end.

``--verify-sharding`` runs the scenario twice, serial and sharded, and
demands byte-identical transcripts; the CI ``megasim-smoke`` job drives
this at 50k machines and at one million.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.megasim.engine import RunConfig, RunResult, run_serial
from repro.megasim.workloads import WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.megasim",
        description="Population-scale simulation of the paper's §1.1 meshes.",
    )
    parser.add_argument(
        "--machines", type=int, default=100_000,
        help="population size (default: 100000)",
    )
    parser.add_argument(
        "--workload", choices=WORKLOADS, default="olsr",
        help="which §1.1 scenario to run (default: olsr)",
    )
    parser.add_argument(
        "--epochs", type=int, default=3,
        help="how many epoch barriers to run (default: 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=7,
        help="run seed; same seed, same transcript (default: 7)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="shard over a worker pool of this size (0 = serial, min 2)",
    )
    parser.add_argument(
        "--verify-sharding", action="store_true",
        help="run serial AND sharded, demand byte-identical transcripts",
    )
    parser.add_argument(
        "--transcript", metavar="PATH", default=None,
        help="also write the transcript to this file",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-epoch transcript lines on stdout",
    )
    return parser


def _run_pooled(config: RunConfig, workers: int) -> RunResult:
    from repro.parallel.pool import ShardedPool

    from repro.megasim.shard import run_sharded

    pool = ShardedPool(workers=max(2, workers))
    try:
        return run_sharded(config, pool)
    finally:
        pool.close()


def _summarize(result: RunResult, mode: str) -> str:
    config = result.config
    return (
        f"hosted {config.machines:,} machines for {config.epochs} epochs "
        f"({mode}): {result.fired:,} events, {result.emitted:,} messages "
        f"in {result.elapsed:.2f}s — {result.events_per_second:,.0f} events/sec"
    )


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    config = RunConfig(
        workload=args.workload,
        machines=args.machines,
        epochs=args.epochs,
        seed=args.seed,
    )
    if args.verify_sharding:
        workers = max(2, args.workers)
        serial = run_serial(config)
        sharded = _run_pooled(config, workers)
        if not args.quiet:
            sys.stdout.write(serial.text())
        sys.stdout.write(_summarize(serial, "serial") + "\n")
        sys.stdout.write(
            _summarize(sharded, f"{workers} workers") + "\n"
        )
        if serial.text() != sharded.text():
            sys.stdout.write("shard-count invariance: FAILED\n")
            for left, right in zip(serial.lines, sharded.lines):
                if left != right:
                    sys.stdout.write(f"  serial : {left}\n")
                    sys.stdout.write(f"  sharded: {right}\n")
            return 2
        sys.stdout.write(
            f"shard-count invariance: OK "
            f"({len(serial.text())} transcript bytes identical)\n"
        )
        result = serial
    elif args.workers >= 2:
        result = _run_pooled(config, args.workers)
        if not args.quiet:
            sys.stdout.write(result.text())
        sys.stdout.write(_summarize(result, f"{args.workers} workers") + "\n")
    else:
        result = run_serial(config)
        if not args.quiet:
            sys.stdout.write(result.text())
        sys.stdout.write(_summarize(result, "serial") + "\n")
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as handle:
            handle.write(result.text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
