"""``repro.obs top`` / ``repro.obs report``: the export stream, rendered.

``report`` renders the PR-1 text dashboard from any exported snapshot —
the last payload of a live-export JSONL stream, or a plain
``export_json`` file — so the dashboard is a shell command, not just an
importable function.

``top`` tails a live-export stream the way ``tail -f`` tails a log:
every new payload becomes a dashboard frame, with per-second counter
rates computed from the previous frame — the operational view of a
sharded conformance run in a second terminal.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple

from repro.obs.instrument import Instrumentation
from repro.obs.report import render_dashboard
from repro.obs.trace import SpanRecord


def load_export(path: str) -> List[Dict[str, Any]]:
    """All payloads in an exported file, oldest first.

    Accepts both forms the repo produces: a live-export JSONL stream
    (one payload per line) and a single ``export_json`` dict (wrapped
    into one payload).  Malformed lines — a run killed mid-write leaves
    at most one — are skipped.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    payloads: List[Dict[str, Any]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            payloads.append(_normalize(record))
    if payloads:
        return payloads
    # Not line-delimited: maybe one indented export_json document.
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        return []
    return [_normalize(record)] if isinstance(record, dict) else []


def _normalize(record: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap a bare ``export_json`` dict into live-export payload shape."""
    if "metrics" in record:
        return record
    return {"metrics": record}


def instrumentation_from(payload: Dict[str, Any]) -> Instrumentation:
    """An :class:`Instrumentation` holding one payload's metrics + trace."""
    instr = Instrumentation(enabled=True)
    instr.registry.merge_snapshot(payload.get("metrics", {}))
    for record in payload.get("trace", ()):
        try:
            instr.tracer._records.append(SpanRecord.from_dict(record))
        except (KeyError, TypeError):
            continue
    return instr


def _counter_values(payload: Dict[str, Any]) -> Dict[Tuple[str, Tuple], Any]:
    out: Dict[Tuple[str, Tuple], Any] = {}
    for name, entries in payload.get("metrics", {}).items():
        for entry in entries:
            if entry.get("kind") == "counter":
                key = (name, tuple(sorted(entry.get("labels", {}).items())))
                out[key] = entry.get("value", 0)
    return out


def render_rates(
    current: Dict[str, Any], previous: Optional[Dict[str, Any]]
) -> List[str]:
    """Counter deltas/second between two payloads, widest movers first."""
    if previous is None:
        return ["  (first frame; rates need two)"]
    dt = (current.get("ts") or 0) - (previous.get("ts") or 0)
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
    payload: Dict[str, Any],
    previous: Optional[Dict[str, Any]] = None,
    title: str = "repro.obs live",
    trace_limit: int = 15,
) -> str:
    """One full ``top`` frame: header, rates, then the PR-1 dashboard."""
    lines = []
    kind = payload.get("kind", "snapshot")
    seq = payload.get("seq", "-")
    lines.append(f"frame seq={seq} kind={kind}")
    lines.append("-- rates (counters/s vs previous frame) " + "-" * 31)
    lines.extend(render_rates(payload, previous))
    instr = instrumentation_from(payload)
    lines.append(render_dashboard(instr, title=title, trace_limit=trace_limit))
    return "\n".join(lines)


def _tail_payloads(
    path: str, poll: float, stop_after: Optional[int]
) -> Iterator[Dict[str, Any]]:
    """Yield payloads as they are appended; ends at EOF when not following."""
    position = 0
    yielded = 0
    buffer = ""
    while stop_after is None or yielded < stop_after:
        try:
            size = os.path.getsize(path)
        except OSError:
            time.sleep(poll)
            continue
        if size < position:  # truncated: a new run started on this path
            position = 0
            buffer = ""
        if size > position:
            with open(path, "r", encoding="utf-8") as handle:
                handle.seek(position)
                buffer += handle.read()
                position = handle.tell()
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    yielded += 1
                    yield _normalize(record)
                    if stop_after is not None and yielded >= stop_after:
                        return
        else:
            time.sleep(poll)


def report_command(
    path: str, trace_limit: int = 30, out: Optional[TextIO] = None
) -> int:
    """``python -m repro.obs report <export>``: render the final snapshot."""
    out = out if out is not None else sys.stdout
    payloads = load_export(path)
    if not payloads:
        print(f"no payloads found in {path}", file=sys.stderr)
        return 1
    finals = [p for p in payloads if p.get("kind") == "final"]
    payload = finals[-1] if finals else payloads[-1]
    instr = instrumentation_from(payload)
    title = f"repro.obs report — {os.path.basename(path)} ({payload.get('kind', 'snapshot')})"
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
    previous: Optional[Dict[str, Any]] = None
    rendered = 0
    clear = out is sys.stdout and hasattr(out, "isatty") and out.isatty()
    if not follow:
        payloads = load_export(path)
        if frames is not None:
            payloads = payloads[-frames:]
        for payload in payloads:
            print(render_frame(payload, previous, title=f"repro.obs top — {path}"), file=out)
            previous = payload
            rendered += 1
        return 0 if rendered else 1
    try:
        for payload in _tail_payloads(path, poll=max(0.05, interval / 4), stop_after=frames):
            if clear:
                out.write("\x1b[2J\x1b[H")
            print(render_frame(payload, previous, title=f"repro.obs top — {path}"), file=out)
            previous = payload
            rendered += 1
            if payload.get("kind") == "final":
                break
    except KeyboardInterrupt:
        pass
    return 0 if rendered else 1
