"""``python -m repro.obs`` — the operational CLI for the telemetry plane.

Two subcommands, both reading :mod:`repro.obs.records` files:

* ``report <file>`` renders the dashboard from the metrics and spans of
  any record file — a live-export stream's ``final`` record, an
  ``export_json`` file, a flight-recorder bundle — the post-run view;
* ``top <export>`` tails a live-export stream and redraws the dashboard
  per ``export`` record with counter rates — the during-run view, meant
  for a second terminal beside ``python -m repro.conformance --workers N``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs.live.top import report_command, top_command


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Operational tools for the repro.obs telemetry plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="render the dashboard from an export file"
    )
    report.add_argument(
        "export", help="a record file: live export, export_json or flight bundle"
    )
    report.add_argument(
        "--trace-limit",
        type=int,
        default=30,
        help="max trace spans in the dashboard (default 30)",
    )

    top = sub.add_parser(
        "top", help="tail an export stream and redraw the dashboard live"
    )
    top.add_argument("export", help="live-export JSONL stream to tail")
    top.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="poll cadence in seconds (default 0.5)",
    )
    top.add_argument(
        "--frames",
        type=int,
        default=None,
        help="stop after N frames (default: follow until a final record)",
    )
    top.add_argument(
        "--no-follow",
        action="store_true",
        help="render what the file already holds, then exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return report_command(args.export, trace_limit=args.trace_limit)
    return top_command(
        args.export,
        interval=args.interval,
        frames=args.frames,
        follow=not args.no_follow,
    )


if __name__ == "__main__":
    sys.exit(main())
