"""The cross-process telemetry plane: worker streamers, parent aggregator.

Telemetry rides the pipes the sharded pool already owns.  A worker's
:class:`TelemetryStreamer` is a daemon thread that, every ``interval``
seconds, computes a metrics *delta* (see ``delta.py``) plus the trace
records that appeared since the last tick and puts them on the shared
result queue as ``("obs", 0, worker_index, payload)`` — the same 4-tuple
shape as task replies, so the parent's collection loop needs exactly one
extra branch.  No new file descriptors, no sidecar socket, no second
protocol: if the pipe works for results it works for telemetry, and
both stop together when the worker dies.

The parent's :class:`LiveAggregator` folds incoming deltas into its own
private registry (never the process default — the authoritative
end-of-run merge must stay byte-identical to a serial run) and
republishes through an optional :class:`~repro.obs.live.expose.Exporter`
at a throttled cadence.  Per-worker sequence numbers make crash/respawn
visible: a respawned worker's streamer restarts at sequence 1, which the
aggregator records as a restart rather than silently absorbing.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from repro.obs.instrument import Instrumentation, get_default
from repro.obs.live.delta import DeltaTracker
from repro.obs.metrics import MergeError, MetricsRegistry

STREAM_SCHEMA = "repro.obs/worker-stream/v1"

#: Default seconds between worker delta ticks.
DEFAULT_INTERVAL = 0.25


class TelemetryStreamer:
    """Worker-side: periodic delta snapshots onto the result queue.

    Runs beside the worker's task loop; reads are racy by design (the
    main thread mutates the registry while this thread snapshots it), so
    any exception during collection skips the tick — the delta baseline
    only advances on success, and the next tick carries the change.
    """

    def __init__(
        self,
        worker_index: int,
        results: Any,
        obs: Optional[Instrumentation] = None,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        self.worker_index = worker_index
        self.results = results
        self.obs = obs if obs is not None else get_default()
        self.interval = interval
        self._tracker = DeltaTracker(self.obs.registry)
        self._last_span_id = 0
        self._seq = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-obs-stream-{worker_index}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread after one final flush tick."""
        self._stop.set()
        self._thread.join(timeout=2.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._tick()
        self._tick()  # final flush: ship whatever the last interval missed

    def _tick(self) -> None:
        payload = self.collect()
        if payload is None:
            return
        try:
            self.results.put(("obs", 0, self.worker_index, payload))
        except Exception:
            pass  # parent gone / queue closed: telemetry dies quietly

    def collect(self) -> Optional[Dict[str, Any]]:
        """One tick's payload, or ``None`` when nothing moved.

        Public so tests can drive ticks synchronously without a thread.
        """
        try:
            metrics = self._tracker.delta_snapshot()
            trace = self._fresh_trace()
        except Exception:
            return None  # raced a mutation mid-snapshot; next tick catches up
        if not metrics and not trace:
            return None
        self._seq += 1
        return {
            "schema": STREAM_SCHEMA,
            "worker": self.worker_index,
            "pid": os.getpid(),
            "seq": self._seq,
            "metrics": metrics,
            "trace": trace,
        }

    def _fresh_trace(self) -> List[Dict[str, Any]]:
        records = []
        for record in self.obs.tracer.records():
            if record.span_id > self._last_span_id:
                records.append(record.to_dict())
        if records:
            self._last_span_id = records[-1]["span_id"]
        return records


class LiveAggregator:
    """Parent-side: merge worker deltas, keep a trace tail, republish.

    The aggregate registry is *advisory* (a live view), so a malformed
    delta is counted and dropped instead of raised — operational
    telemetry must never take down the run it observes.
    """

    def __init__(
        self,
        exporter: Optional[Any] = None,
        trace_tail: int = 512,
        publish_interval: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = MetricsRegistry()
        self.exporter = exporter
        self.trace: "deque[Dict[str, Any]]" = deque(maxlen=trace_tail)
        self.workers: Dict[int, Dict[str, int]] = {}
        self.dropped = 0
        self._lock = threading.Lock()
        self._clock = clock
        self._publish_interval = publish_interval
        self._last_publish = float("-inf")

    def ingest(self, payload: Dict[str, Any]) -> None:
        """Fold one worker stream payload into the live view."""
        with self._lock:
            worker = payload.get("worker", -1)
            seq = payload.get("seq", 0)
            state = self.workers.setdefault(
                worker, {"seq": 0, "updates": 0, "restarts": 0, "pid": 0}
            )
            if seq <= state["seq"]:
                # A respawned worker's streamer starts over at seq 1 —
                # the crash/respawn trace the dashboard surfaces.
                state["restarts"] += 1
            state["seq"] = seq
            state["updates"] += 1
            state["pid"] = payload.get("pid", state["pid"])
            try:
                self.registry.merge_snapshot(payload.get("metrics", {}))
            except MergeError:
                self.dropped += 1
            self.trace.extend(payload.get("trace", ()))
        self._maybe_publish()

    def snapshot(self) -> Dict[str, Any]:
        """The live view as plain data (metrics + stream bookkeeping)."""
        with self._lock:
            return {
                "metrics": self.registry.snapshot(),
                "workers": {
                    str(index): dict(state)
                    for index, state in sorted(self.workers.items())
                },
                "dropped": self.dropped,
                "trace": list(self.trace),
            }

    def _maybe_publish(self) -> None:
        if self.exporter is None:
            return
        now = self._clock()
        if now - self._last_publish < self._publish_interval:
            return
        self._last_publish = now
        self.publish(kind="live")

    def publish(self, kind: str = "live") -> None:
        """Push the current live view through the exporter (if any)."""
        if self.exporter is None:
            return
        view = self.snapshot()
        trace = view.pop("trace")
        self.exporter.publish(
            view.pop("metrics"),
            kind=kind,
            workers=view["workers"],
            dropped=view["dropped"],
            trace=trace[-64:],
        )
