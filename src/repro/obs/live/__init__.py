"""``repro.obs.live`` — the operational half of the observability layer.

The core of ``repro.obs`` makes the runtime observable *after the fact*:
metrics and traces accumulate in-process and materialize when somebody
renders a dashboard.  This package makes them operational *while the
system runs*:

* :mod:`~repro.obs.live.expose` — exposition: a zero-dependency
  Prometheus-text + JSONL exporter (opt-in via ``REPRO_OBS_EXPORT``)
  serving the process registry over a localhost socket and/or an
  append-only JSONL stream, republished by a
  :class:`~repro.obs.live.expose.PeriodicPublisher` thread;
* :mod:`~repro.obs.live.flightrec` — the flight recorder: on any
  undeclared crash (fuzzer bug bucket, fast-path demotion) dump the
  failure as a corpus entry, plus recent wire frames, a metric snapshot
  and the trace ring, to a replayable :mod:`repro.obs.records` bundle
  (opt-in via ``REPRO_OBS_FLIGHTREC``);
* :mod:`~repro.obs.live.top` — the live TTY dashboard behind
  ``python -m repro.obs top`` (and ``... report``).

A sharded conformance run needs nothing extra here: each worker's unit
reply carries that unit's metric snapshot, and the runner merges it
into the process registry as the reply arrives, so the publisher sees
the run advance unit by unit.
"""

from repro.obs.live.expose import (
    Exporter,
    JsonlSink,
    MetricsServer,
    PeriodicPublisher,
    prometheus_text,
)
from repro.obs.live.flightrec import (
    FlightRecorder,
    active_recorder,
    install_recorder,
    record_crash,
    record_frame,
)

__all__ = [
    "Exporter",
    "JsonlSink",
    "MetricsServer",
    "PeriodicPublisher",
    "prometheus_text",
    "FlightRecorder",
    "active_recorder",
    "install_recorder",
    "record_crash",
    "record_frame",
]
