"""``python -m repro.conformance`` — the correctness gate as a command.

Examples::

    python -m repro.conformance --seed 0 --budget 2000
    python -m repro.conformance --engines fuzz --specs ArqData --json
    python -m repro.conformance --corpus out/corpus.jsonl
    python -m repro.conformance --replay out/corpus.jsonl
    python -m repro.conformance --triage out/bundles/fuzz_bug_crash-....jsonl

``--workers N`` runs the same units on N worker processes; the report
and the corpus file are the ones the serial run writes.

With ``REPRO_OBS_EXPORT`` set (a JSONL path, a ``host:port``, or a
comma-separated mix) a publisher thread streams live ``export`` records
of the process registry — under ``--workers N`` it advances as each
unit's metrics arrive — and the run finishes with one ``final`` record
holding the merged registry.  ``python -m repro.obs top <path>`` renders
the stream live; ``REPRO_OBS_FLIGHTREC=<dir>`` additionally dumps a
replayable flight-recorder bundle on every undeclared failure (see
``--triage``).  Corpora and bundles are :mod:`repro.obs.records` files:
a bundle leads with one corpus entry, so ``--replay`` and ``--triage``
run both through the same per-engine replay.

Exit status 0 means every engine ran clean (or every replayed entry
still reproduces, or a triaged bundle still reproduces); 1 means
findings (or replay/triage drift), or a ``--fastpath verify`` run that
demoted a spec in this process or in any worker (each is printed with
its reason).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.conformance.corpus import load_entries
from repro.conformance.runner import (
    ENGINES,
    ConformanceReport,
    replay,
    replay_corpus,
    run_all,
)
from repro.fastpath.policy import MODES, FastPath, get_policy, set_policy
from repro.obs import records


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description=(
            "Coverage-guided fuzzing, differential testing, and "
            "state-machine conformance over every in-tree spec."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="deterministic run seed")
    parser.add_argument(
        "--budget",
        type=int,
        default=2000,
        help="case budget per engine (default: 2000)",
    )
    parser.add_argument(
        "--engines",
        nargs="+",
        choices=ENGINES,
        default=list(ENGINES),
        help="engines to run (default: all)",
    )
    parser.add_argument(
        "--specs", nargs="+", default=None, help="restrict fuzzing to these spec names"
    )
    parser.add_argument(
        "--machines",
        nargs="+",
        default=None,
        help="restrict conformance to these machine names",
    )
    parser.add_argument(
        "--corpus",
        default=None,
        metavar="FILE",
        help=(
            "write this run's interesting inputs and counterexamples to this "
            "JSONL file, replacing it"
        ),
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="replay a saved corpus instead of running the engines",
    )
    parser.add_argument(
        "--triage",
        default=None,
        metavar="BUNDLE",
        help=(
            "load a flight-recorder bundle (REPRO_OBS_FLIGHTREC) and "
            "re-execute its recorded failure deterministically"
        ),
    )
    parser.add_argument(
        "--shrink-budget",
        type=int,
        default=600,
        help="predicate evaluations the shrinker may spend per failure",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "shard conformance units across this many worker processes; "
            "findings and coverage are identical to a serial run with the "
            "same seed (default: 1 = in-process)"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--fastpath",
        choices=(*MODES, "verify"),
        default=None,
        help=(
            "compiled codec and machine tier policy for this run: off / "
            "always, or 'verify' (= always, with every compiled result "
            "cross-checked against the interpreter); default: the process "
            "policy"
        ),
    )
    return parser


def _apply_fastpath(choice: Optional[str]) -> None:
    if choice is None:
        return
    if choice == "verify":
        set_policy(FastPath(mode="always", verify=True))
    else:
        set_policy(FastPath(mode=choice))


def _triage(path: str) -> int:
    """Replay one flight-recorder bundle; 0 when it still reproduces."""
    items = records.read(path)
    kinds = [r.kind for r in items]
    print(
        f"bundle {path}: frames={kinds.count('frame')} "
        f"trace={kinds.count('span')} spans"
    )
    statuses = []
    for entry in load_entries(path):
        print(
            f"  entry engine={entry.engine} outcome={entry.outcome} "
            f"subject={entry.subject or '-'} seed={entry.seed}"
        )
        if entry.detail:
            print(f"  recorded: {entry.detail}")
        status, detail = replay(entry)
        print(f"  {status.upper()}: {detail}")
        statuses.append(status)
    return 0 if statuses and set(statuses) == {"reproduced"} else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _apply_fastpath(args.fastpath)
    if args.triage:
        return _triage(args.triage)
    if args.replay:
        checked, drifts = replay_corpus(args.replay)
        print(f"replayed {checked} corpus entr{'y' if checked == 1 else 'ies'}")
        for drift in drifts:
            print(f"  DRIFT: {drift}")
        return 1 if drifts else 0

    # Live export, when REPRO_OBS_EXPORT names a target.
    from repro.obs.instrument import enable
    from repro.obs.live.expose import Exporter, PeriodicPublisher

    exporter = Exporter.from_env()
    if exporter is not None:
        registry = enable().registry  # exports need a recording registry
        publisher = PeriodicPublisher(exporter, registry.snapshot)
        print(f"obs export: {exporter.describe()}", file=sys.stderr)
    try:
        report = run_all(
            seed=args.seed,
            budget=args.budget,
            engines=args.engines,
            specs=args.specs,
            machines=args.machines,
            corpus_path=args.corpus,
            shrink_budget=args.shrink_budget,
            workers=args.workers,
        )
    finally:
        if exporter is not None:
            publisher.stop()
            exporter.publish(registry.snapshot(), phase="final")
            exporter.close()
    print(report.to_json() if args.json else report.render())
    return 0 if report.ok and not _demotions(report) else 1


def _demotions(report: ConformanceReport) -> bool:
    """Report each spec a verify-mode run demoted; True if any.

    A demotion means a compiled codec or machine diverged from the
    interpreter, so under ``--fastpath verify`` it fails the run.
    """
    if not get_policy().verify or not report.demoted:
        return False
    print(f"fastpath: {len(report.demoted)} demotion(s) under verify")
    for name, reason in report.demoted:
        print(f"  DEMOTED {name}: {reason}")
    return True


if __name__ == "__main__":
    sys.exit(main())
