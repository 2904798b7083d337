"""``repro.obs top`` / ``repro.obs report``: record files, rendered.

``report`` renders the PR-1 text dashboard from the metrics and spans
of any :mod:`repro.obs.records` file — the ``final`` record of a
live-export stream, an ``export_json`` file, or a flight-recorder
bundle — so the dashboard is a shell command, not just an importable
function.

``top`` tails a live-export stream the way ``tail -f`` tails a log
(:func:`repro.obs.records.follow`): every new ``export`` record becomes
a dashboard frame, with per-second counter rates computed from the
previous frame — the operational view of a sharded conformance run in a
second terminal.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from repro.obs import records as obs_records
from repro.obs.instrument import Instrumentation
from repro.obs.records import Record
from repro.obs.report import render_dashboard
from repro.obs.trace import SpanRecord


def load_export(path: str) -> List[Record]:
    """The ``export`` records in a file, oldest first."""
    return [r for r in obs_records.read(path) if r.kind == "export"]


def instrumentation_from(
    metrics: Dict[str, Any], spans: Sequence[Dict[str, Any]] = ()
) -> Instrumentation:
    """An :class:`Instrumentation` holding a metrics snapshot and spans."""
    instr = Instrumentation(enabled=True)
    instr.registry.merge_snapshot(metrics)
    instr.tracer._records.extend(SpanRecord.from_dict(span) for span in spans)
    return instr


def _counter_values(record: Record) -> Dict[Tuple[str, Tuple], Any]:
    out: Dict[Tuple[str, Tuple], Any] = {}
    for name, entries in record.body["metrics"].items():
        for entry in entries:
            if entry.get("kind") == "counter":
                key = (name, tuple(sorted(entry.get("labels", {}).items())))
                out[key] = entry.get("value", 0)
    return out


def render_rates(current: Record, previous: Optional[Record]) -> List[str]:
    """Counter deltas/second between two records, widest movers first."""
    if previous is None:
        return ["  (first frame; rates need two)"]
    dt = (current.ts or 0) - (previous.ts or 0)
    if dt <= 0:
        dt = 1.0
    now, then = _counter_values(current), _counter_values(previous)
    movers = []
    for key, value in now.items():
        delta = value - then.get(key, 0)
        if delta:
            movers.append((delta / dt, delta, key))
    if not movers:
        return ["  (no counter movement this frame)"]
    movers.sort(reverse=True)
    lines = []
    for rate, delta, (name, labels) in movers[:12]:
        label_text = (
            "{" + ",".join(f"{k}={v}" for k, v in labels) + "}" if labels else ""
        )
        lines.append(f"  {name}{label_text:<40.40}  +{delta:>8}  {rate:>10.1f}/s")
    return lines


def render_frame(
    record: Record,
    previous: Optional[Record] = None,
    title: str = "repro.obs live",
    trace_limit: int = 15,
) -> str:
    """One full ``top`` frame: header, rates, then the PR-1 dashboard."""
    lines = [f"frame seq={record.body['seq']} phase={record.body['phase']}"]
    lines.append("-- rates (counters/s vs previous frame) " + "-" * 31)
    lines.extend(render_rates(record, previous))
    instr = instrumentation_from(record.body["metrics"])
    lines.append(render_dashboard(instr, title=title, trace_limit=trace_limit))
    return "\n".join(lines)


def report_command(
    path: str, trace_limit: int = 30, out: Optional[TextIO] = None
) -> int:
    """``python -m repro.obs report <file>``: render its metrics and spans.

    The metrics are the last ``final`` export, else the last ``export``
    or ``metrics`` record; the spans are every ``span`` record.
    """
    out = out if out is not None else sys.stdout
    records = obs_records.read(path)
    snapshots = [r for r in records if r.kind in ("export", "metrics")]
    finals = [r for r in snapshots if r.body.get("phase") == "final"]
    spans = [r.body for r in records if r.kind == "span"]
    if not snapshots and not spans:
        print(f"no metrics or spans found in {path}", file=sys.stderr)
        return 1
    snapshot = (finals or snapshots or [Record("metrics", {"metrics": {}})])[-1]
    instr = instrumentation_from(snapshot.body["metrics"], spans)
    label = snapshot.body.get("phase", snapshot.kind)
    title = f"repro.obs report — {os.path.basename(path)} ({label})"
    print(render_dashboard(instr, title=title, trace_limit=trace_limit), file=out)
    return 0


def top_command(
    path: str,
    interval: float = 0.5,
    frames: Optional[int] = None,
    follow: bool = True,
    out: Optional[TextIO] = None,
) -> int:
    """``python -m repro.obs top <export>``: live dashboard frames.

    ``frames`` bounds how many frames are rendered (tests use 1-2);
    ``follow=False`` renders what the file already holds and exits.
    """
    out = out if out is not None else sys.stdout
    previous: Optional[Record] = None
    rendered = 0
    clear = follow and out is sys.stdout and hasattr(out, "isatty") and out.isatty()
    if follow:
        stream: Iterable[Record] = obs_records.follow(
            path, poll=max(0.05, interval / 4), stop_after=frames
        )
    else:
        stream = load_export(path)[-frames:] if frames else load_export(path)
    try:
        for record in stream:
            if record.kind != "export":
                continue
            if clear:
                out.write("\x1b[2J\x1b[H")
            print(render_frame(record, previous, title=f"repro.obs top — {path}"), file=out)
            previous = record
            rendered += 1
            if follow and record.body["phase"] == "final":
                break
    except KeyboardInterrupt:
        pass
    return 0 if rendered else 1
