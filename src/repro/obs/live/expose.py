"""Exposition: the merged registry, served to the outside world.

Zero-dependency on purpose — the stack's north star is a serving plane
that operators point real collectors at, and the contract starts here:

* :func:`prometheus_text` renders any metrics snapshot in the Prometheus
  text exposition format (counters, gauges, cumulative histogram
  buckets);
* :class:`JsonlSink` appends timestamped snapshot payloads to a JSONL
  file — the stream ``python -m repro.obs top`` tails;
* :class:`MetricsServer` is a localhost socket server (a ~hundred-line
  HTTP/1.0 responder, no ``http.server`` import) answering ``GET
  /metrics`` with Prometheus text and ``GET /metrics.json`` with the raw
  snapshot;
* :class:`Exporter` bundles any number of sinks behind one
  :meth:`~Exporter.publish` call and is built from the
  ``REPRO_OBS_EXPORT`` environment variable — a comma-separated list of
  targets, each either ``host:port`` (socket server) or a file path
  (JSONL stream).  Unset/empty/``off`` means no exporter: the entire
  plane stays inert and costs nothing.

Every published payload is a *cumulative* snapshot: each JSONL line
stands alone, so a tailing consumer can join at any point and a crashed
run's last line is its last known state.
"""

from __future__ import annotations

import json
import os
import re
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional

EXPORT_SCHEMA = "repro.obs/live-export/v1"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    """A Prometheus-legal metric name (dots become underscores)."""
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _label_pairs(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    parts = []
    for key, value in sorted(labels.items()):
        text = str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        parts.append(f'{_LABEL_RE.sub("_", str(key))}="{text}"')
    return "{" + ",".join(parts) + "}"


def _merge_label(labels: Dict[str, Any], extra: str) -> str:
    """Label string with one extra pre-rendered ``key="value"`` pair."""
    rendered = _label_pairs(labels)
    if not rendered:
        return "{" + extra + "}"
    return rendered[:-1] + "," + extra + "}"


def prometheus_text(snapshot: Dict[str, List[Dict[str, Any]]]) -> str:
    """A metrics snapshot in the Prometheus text exposition format.

    Histograms come out cumulative (``_bucket{le=...}`` including
    ``+Inf``) with ``_sum`` and ``_count`` series, exactly as a
    collector expects.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        entries = snapshot[name]
        if not entries:
            continue
        flat = _metric_name(name)
        kind = entries[0].get("kind", "untyped")
        prom_type = {"counter": "counter", "gauge": "gauge", "histogram": "histogram"}
        lines.append(f"# TYPE {flat} {prom_type.get(kind, 'untyped')}")
        for entry in entries:
            labels = entry.get("labels", {})
            if entry.get("kind") in ("counter", "gauge"):
                lines.append(f"{flat}{_label_pairs(labels)} {entry.get('value', 0)}")
                continue
            bounds = entry.get("bounds") or []
            counts = entry.get("bucket_counts") or []
            cumulative = 0
            for index, bound in enumerate(bounds):
                cumulative += counts[index] if index < len(counts) else 0
                le = 'le="' + repr(bound) + '"'
                lines.append(f"{flat}_bucket{_merge_label(labels, le)} {cumulative}")
            inf = 'le="+Inf"'
            lines.append(
                f"{flat}_bucket{_merge_label(labels, inf)} {entry.get('count', 0)}"
            )
            lines.append(f"{flat}_sum{_label_pairs(labels)} {entry.get('sum', 0.0)}")
            lines.append(f"{flat}_count{_label_pairs(labels)} {entry.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")


class JsonlSink:
    """Appends one JSON payload per publish to a JSONL file."""

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # Truncate at attach time: the stream documents *this* run.
        with open(path, "w", encoding="utf-8"):
            pass

    def publish(self, payload: Dict[str, Any]) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")

    def close(self) -> None:  # file is opened per publish; nothing held
        pass

    def describe(self) -> str:
        return f"jsonl:{self.path}"


class MetricsServer:
    """A localhost socket serving the latest published snapshot.

    ``GET /metrics`` answers Prometheus text, ``GET /metrics.json`` the
    raw payload; anything else is 404.  One thread, blocking accept,
    HTTP/1.0 close-per-request — this is an exposition endpoint for a
    scraper, not a web framework.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(8)
        self.host, self.port = self._sock.getsockname()[:2]
        self._latest: Optional[Dict[str, Any]] = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._serve_forever, name="repro-obs-expose", daemon=True
        )
        self._thread.start()

    def publish(self, payload: Dict[str, Any]) -> None:
        self._latest = payload  # atomic reference swap; readers copy it

    def _serve_forever(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                break
            try:
                self._answer(conn)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def _answer(self, conn: socket.socket) -> None:
        conn.settimeout(2.0)
        try:
            request = conn.recv(4096).decode("latin-1", "replace")
        except (OSError, socket.timeout):
            return
        first = request.split("\r\n", 1)[0]
        parts = first.split()
        path = parts[1] if len(parts) >= 2 else "/"
        payload = self._latest or {"schema": EXPORT_SCHEMA, "metrics": {}}
        if path.startswith("/metrics.json"):
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            ctype = "application/json"
            status = "200 OK"
        elif path.startswith("/metrics"):
            body = prometheus_text(payload.get("metrics", {})).encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
            status = "200 OK"
        else:
            body = b"repro.obs.live: try /metrics or /metrics.json\n"
            ctype = "text/plain; charset=utf-8"
            status = "404 Not Found"
        head = (
            f"HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        conn.sendall(head.encode("latin-1") + body)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=1.0)

    def describe(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"


_HOST_PORT_RE = re.compile(r"^(?P<host>[A-Za-z0-9_.\-]+):(?P<port>\d{1,5})$")


class Exporter:
    """Any number of sinks behind one publish call.

    Build one explicitly with sinks, or from the environment with
    :meth:`from_env` — ``None`` when ``REPRO_OBS_EXPORT`` names no
    target, which is how every call site keeps the disabled path free.
    """

    def __init__(self, sinks: List[Any]) -> None:
        self.sinks = list(sinks)
        self._seq = 0
        self._lock = threading.Lock()

    @classmethod
    def from_env(cls, env: Optional[Dict[str, str]] = None) -> Optional["Exporter"]:
        """The exporter ``REPRO_OBS_EXPORT`` asks for, or ``None``.

        The value is a comma-separated target list: ``host:port`` starts
        a :class:`MetricsServer` on that address (port ``0`` picks a free
        port), anything else is a JSONL stream path.  ``off``/``0`` and
        empty tokens are ignored.
        """
        raw = (env if env is not None else os.environ).get("REPRO_OBS_EXPORT", "")
        sinks: List[Any] = []
        for token in raw.split(","):
            token = token.strip()
            if not token or token.lower() in ("off", "0", "no", "none", "false"):
                continue
            match = _HOST_PORT_RE.match(token)
            if match:
                sinks.append(
                    MetricsServer(match.group("host"), int(match.group("port")))
                )
            else:
                sinks.append(JsonlSink(token))
        if not sinks:
            return None
        return cls(sinks)

    def publish(
        self,
        metrics: Dict[str, List[Dict[str, Any]]],
        kind: str = "snapshot",
        **extra: Any,
    ) -> Dict[str, Any]:
        """Publish one cumulative snapshot to every sink; returns the payload."""
        with self._lock:
            self._seq += 1
            payload: Dict[str, Any] = {
                "schema": EXPORT_SCHEMA,
                "seq": self._seq,
                "ts": time.time(),
                "kind": kind,
                "metrics": metrics,
            }
            payload.update(extra)
            for sink in self.sinks:
                try:
                    sink.publish(payload)
                except OSError:
                    pass  # a full disk must not take down the run
            return payload

    def close(self) -> None:
        for sink in self.sinks:
            try:
                sink.close()
            except OSError:
                pass

    def describe(self) -> str:
        return ", ".join(sink.describe() for sink in self.sinks)


class PeriodicPublisher:
    """A daemon thread publishing ``source()`` every ``interval`` seconds.

    ``python -m repro.conformance`` runs one over the process registry,
    serial or sharded (a sharded run merges each unit's metrics into
    that registry as the unit's reply arrives).  ``source`` returns a
    metrics snapshot; read errors (a registry mutating mid-snapshot)
    skip the tick rather than killing the thread.
    """

    def __init__(
        self,
        exporter: Exporter,
        source: Callable[[], Dict[str, List[Dict[str, Any]]]],
        interval: float = 0.5,
    ) -> None:
        self.exporter = exporter
        self.source = source
        self.interval = max(0.05, interval)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-publisher", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._tick()

    def _tick(self) -> None:
        try:
            metrics = self.source()
        except Exception:
            return
        self.exporter.publish(metrics, kind="live")

    def stop(self) -> None:
        """Stop the thread (no final publish; callers publish the final)."""
        self._stop.set()
        self._thread.join(timeout=2.0)
