"""repro.obs — unified tracing, metrics and profiling for the DSL runtime.

The paper's position is that spec-first protocol definitions make tooling
"fall out" of the DSL; this package is the measurement half of that story.
One :class:`Instrumentation` object — a :class:`MetricsRegistry` plus a
ring-buffered :class:`Tracer` — threads through the machine runtime, the
codec, the definition-time checker and the network simulator, so a single
timeline correlates *what the protocol did* (transitions, frames, timers)
with *what it cost* (wall-time histograms) and *when it happened* in both
wall and simulated virtual time.

Quick start::

    from repro import obs

    instr = obs.enable()              # switch the process default on
    ...run a simulation / machine...
    print(obs.render_dashboard(instr))
    instr.tracer.to_jsonl()           # structured export

Everything is zero-dependency, and with observability off (the default)
instrumented hot paths pay roughly one attribute check per call.
"""

from repro.obs.instrument import (
    NULL_OBS,
    Instrumentation,
    disable,
    enable,
    get_default,
    profiled,
    set_default,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MergeError,
    MetricsRegistry,
    log_buckets,
)
from repro.obs.report import export_json, render_dashboard
from repro.obs.trace import SpanRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MergeError",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "log_buckets",
    "Tracer",
    "SpanRecord",
    "Instrumentation",
    "NULL_OBS",
    "get_default",
    "set_default",
    "enable",
    "disable",
    "profiled",
    "render_dashboard",
    "export_json",
]
