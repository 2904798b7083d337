"""``repro.obs.live`` — the streaming half of the observability layer.

PR 1 made the runtime observable *after the fact*: metrics and traces
accumulate in-process and materialize when somebody renders a dashboard.
This package makes them operational *while the system runs*, across
process boundaries:

* :mod:`~repro.obs.live.delta` — delta snapshots: the change in a
  registry since the last tick, in exactly the shape
  :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` consumes;
* :mod:`~repro.obs.live.stream` — the cross-process plane: a worker-side
  :class:`TelemetryStreamer` that ships deltas + fresh trace records
  over the ``repro.parallel`` result pipe, and a parent-side
  :class:`LiveAggregator` that folds them into one live registry;
* :mod:`~repro.obs.live.expose` — exposition: a zero-dependency
  Prometheus-text + JSONL exporter (opt-in via ``REPRO_OBS_EXPORT``)
  serving the merged registry over a localhost socket and/or an
  append-only JSONL stream;
* :mod:`~repro.obs.live.flightrec` — the flight recorder: on any
  undeclared crash (fuzzer bug bucket, fast-path demotion) dump the trace ring, recent wire frames, a metric snapshot
  and the run seed to a replayable JSONL bundle (opt-in via
  ``REPRO_OBS_FLIGHTREC``);
* :mod:`~repro.obs.live.top` — the live TTY dashboard behind
  ``python -m repro.obs top`` (and ``... report``).

Everything here is read-only with respect to the authoritative metrics:
the live plane aggregates into its *own* registry, so a sharded
conformance run's end-of-run merge stays byte-identical to the serial
run whether or not an exporter is attached.
"""

from repro.obs.live.delta import DeltaTracker
from repro.obs.live.expose import (
    EXPORT_SCHEMA,
    Exporter,
    JsonlSink,
    MetricsServer,
    PeriodicPublisher,
    prometheus_text,
)
from repro.obs.live.flightrec import (
    BUNDLE_SCHEMA,
    FlightBundle,
    FlightRecorder,
    active_recorder,
    install_recorder,
    load_bundle,
    record_crash,
    record_frame,
    replay_bundle,
)
from repro.obs.live.stream import STREAM_SCHEMA, LiveAggregator, TelemetryStreamer

__all__ = [
    "DeltaTracker",
    "TelemetryStreamer",
    "LiveAggregator",
    "STREAM_SCHEMA",
    "Exporter",
    "JsonlSink",
    "MetricsServer",
    "PeriodicPublisher",
    "prometheus_text",
    "EXPORT_SCHEMA",
    "FlightRecorder",
    "FlightBundle",
    "BUNDLE_SCHEMA",
    "active_recorder",
    "install_recorder",
    "record_crash",
    "record_frame",
    "load_bundle",
    "replay_bundle",
]
