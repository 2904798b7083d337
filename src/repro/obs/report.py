"""Rendering for ``repro.obs``: a text dashboard and a JSON exporter.

The dashboard is deliberately terminal-shaped — the same spirit as the
capture transcripts and ASCII state diagrams elsewhere in this repo: the
DSL runtime should be inspectable from a shell, with no collector stack.

``render_dashboard`` shows counters, gauges, histograms (with a unicode
bar sketch of the bucket distribution) and a trace excerpt in which spans
indent by nesting depth and every line carries *virtual* and *wall* time.
``export_json`` emits the same data machine-readably: one ``metrics``
record plus one ``span`` record per trace record, in the
:mod:`repro.obs.records` format, which ``python -m repro.obs report``
renders back into this dashboard.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.obs import records as obs_records
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.trace import SpanRecord

_BARS = " ▁▂▃▄▅▆▇█"


def _format_labels(labels: Sequence) -> str:
    items = dict(labels)
    if not items:
        return ""
    inner = ",".join(f"{key}={value}" for key, value in sorted(items.items()))
    return "{" + inner + "}"


def _format_seconds(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def _sparkline(histogram: Histogram) -> str:
    peak = max(histogram.counts) or 1
    return "".join(
        _BARS[min(len(_BARS) - 1, (count * (len(_BARS) - 1) + peak - 1) // peak)]
        for count in histogram.counts
    )


def _rule(title: str, width: int = 72) -> str:
    return f"-- {title} " + "-" * max(0, width - len(title) - 4)


def render_counters(metrics: List[Counter]) -> List[str]:
    """Counter lines, widest-value aligned."""
    if not metrics:
        return ["  (none)"]
    rows = [
        (f"{metric.name}{_format_labels(metric.labels)}", str(metric.value))
        for metric in metrics
    ]
    name_width = max(len(name) for name, _ in rows)
    return [f"  {name.ljust(name_width)}  {value:>10}" for name, value in rows]


def render_histogram(metric: Histogram) -> List[str]:
    """A two-line histogram summary: stats, then the bucket sketch."""
    title = f"{metric.name}{_format_labels(metric.labels)}"
    stats = (
        f"count={metric.count}  mean={_format_seconds(metric.mean)}  "
        f"p50={_format_seconds(metric.quantile(0.5))}  "
        f"p95={_format_seconds(metric.quantile(0.95))}  "
        f"max={_format_seconds(metric.max if metric.count else None)}"
    )
    low = _format_seconds(metric.bounds[0])
    high = _format_seconds(metric.bounds[-1])
    return [
        f"  {title}",
        f"    {stats}",
        f"    [{low} {_sparkline(metric)} {high}]",
    ]


def render_trace(
    records: Sequence[SpanRecord], limit: int = 30
) -> List[str]:
    """A trace excerpt: one line per record, indented by nesting depth.

    Shows the *last* ``limit`` records (the freshest activity), each with
    virtual time, nesting, name, attributes and wall duration.
    """
    if not records:
        return ["  (empty trace)"]
    lines = []
    shown = list(records)[-limit:]
    if len(records) > len(shown):
        lines.append(f"  ... {len(records) - len(shown)} earlier records elided ...")
    for record in shown:
        virt = f"{record.virt_start:10.4f}" if record.virt_start is not None else "         -"
        indent = "  " * record.depth
        marker = "·" if record.kind == "event" else "▸"
        attrs = ""
        if record.attrs:
            attrs = " " + " ".join(
                f"{key}={value}" for key, value in sorted(record.attrs.items())
            )
        duration = (
            f"  [{_format_seconds(record.wall_duration)}]"
            if record.kind == "span"
            else ""
        )
        lines.append(f"  {virt}v  {indent}{marker} {record.name}{attrs}{duration}")
    return lines


def render_dashboard(
    obs: Instrumentation, title: str = "repro.obs dashboard", trace_limit: int = 30
) -> str:
    """The full text dashboard for one instrumentation context."""
    counters = [m for m in obs.registry.collect() if isinstance(m, Counter)]
    gauges = [m for m in obs.registry.collect() if isinstance(m, Gauge)]
    histograms = [m for m in obs.registry.collect() if isinstance(m, Histogram)]
    lines = [f"== {title} =="]
    lines.append(_rule(f"counters ({len(counters)})"))
    lines.extend(render_counters(counters))
    lines.append(_rule(f"gauges ({len(gauges)})"))
    lines.extend(render_counters(gauges))  # same shape: name -> value
    lines.append(_rule(f"histograms ({len(histograms)})"))
    if histograms:
        for metric in histograms:
            lines.extend(render_histogram(metric))
    else:
        lines.append("  (none)")
    records = obs.tracer.records()
    lines.append(_rule(f"trace (last {min(trace_limit, len(records))} of {len(records)}; v=virtual s, [..]=wall)"))
    lines.extend(render_trace(records, limit=trace_limit))
    return "\n".join(lines)


def export_json(
    obs: Instrumentation, path: Optional[str] = None
) -> List[obs_records.Record]:
    """A ``metrics`` record plus ``span`` records; written to ``path`` if given."""
    records = obs.to_records()
    if path is not None:
        obs_records.write(path, records)
    return records
