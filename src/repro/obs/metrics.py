"""The metrics half of ``repro.obs``: counters, gauges and histograms.

Zero-dependency and deliberately small: a :class:`MetricsRegistry` maps a
``(name, labels)`` pair to exactly one metric instance, created on first
use — the Prometheus client model, shrunk to what a single-process
protocol runtime needs.  All metrics are plain Python objects with
``__slots__``; updating one is an attribute increment, so instrumented
code stays cheap even when observability is on.

Histograms use **fixed log-scale buckets**: protocol latencies span many
orders of magnitude (a dispatch is sub-microsecond, a lossy transfer is
seconds), so linear buckets waste resolution.  The default bucket ladder
covers 100 ns to ~400 s with a constant factor of 4 between bounds.

Everything is snapshot-able (:meth:`MetricsRegistry.snapshot` returns
plain dicts, JSON-ready) and resettable (:meth:`MetricsRegistry.reset`
zeroes values but keeps instances, so cached metric handles stay valid
across tests).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Any, DefaultDict, Dict, Iterator, List, Optional, Sequence, Tuple

LabelItems = Tuple[Tuple[str, Any], ...]


class MergeError(ValueError):
    """A snapshot cannot be folded into this registry without corrupting it.

    Raised by :meth:`MetricsRegistry.merge_snapshot` *before* any value is
    applied: the registry is untouched when this escapes, so a malformed
    worker payload costs one merge, never the counters already aggregated.
    """


def log_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """A geometric ladder of ``count`` upper bounds starting at ``start``.

    ``log_buckets(1e-6, 4, 4)`` is ``(1e-06, 4e-06, 1.6e-05, 6.4e-05)``.
    """
    if start <= 0:
        raise ValueError(f"bucket start must be positive, got {start}")
    if factor <= 1:
        raise ValueError(f"bucket factor must exceed 1, got {factor}")
    if count < 1:
        raise ValueError(f"need at least one bucket, got {count}")
    bounds = []
    bound = float(start)
    for _ in range(count):
        bounds.append(bound)
        bound *= factor
    return tuple(bounds)


#: Default histogram ladder: 1e-7 s .. ~4.3e2 s, factor 4 — wide enough
#: for both a dict lookup and a multi-second simulated transfer.
DEFAULT_TIME_BUCKETS = log_buckets(1e-7, 4.0, 17)


class Counter:
    """A monotonically increasing count (events, bytes, rejections)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        self.value += amount

    def _reset(self) -> None:
        self.value = 0

    def _snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {dict(self.labels)}, value={self.value})"


class Gauge:
    """A value that goes up and down (queue depth, pending events)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.value -= amount

    def _reset(self) -> None:
        self.value = 0.0

    def _snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {dict(self.labels)}, value={self.value})"


class Histogram:
    """A distribution over fixed log-scale buckets.

    ``bounds`` are ascending *upper* bounds; an observation lands in the
    first bucket whose bound is >= the value, or the overflow bucket past
    the last bound.  ``counts`` therefore has ``len(bounds) + 1`` cells.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = (
            DEFAULT_TIME_BUCKETS if bounds is None else tuple(bounds)
        )
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be ascending")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from bucket counts.

        Returns the upper bound of the bucket containing the quantile
        (clamped to the observed max for the overflow bucket); 0 when the
        histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(self.bounds):
                    return min(self.bounds[index], self.max)
                return self.max
        return self.max

    def _reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def _snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "bounds": list(self.bounds),
            "bucket_counts": list(self.counts),
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, {dict(self.labels)}, "
            f"count={self.count}, mean={self.mean:.3g})"
        )


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Named, labeled metrics with get-or-create semantics.

    The same ``(name, labels)`` pair always returns the same instance, so
    hot code may cache the handle or re-look it up; both see one value.
    Requesting an existing name with a different metric kind raises — a
    name identifies one kind of thing.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], Any] = {}
        #: Per-namespace dicts for caching resolved metric handles.  Hot
        #: paths that would otherwise re-resolve the same labeled metric
        #: on every call (dict lookup + label sorting) stash the handles
        #: in ``handle_caches[namespace]``, keyed however they like;
        #: finding the cache is a dict read, not a call.  The caches live
        #: and die with the registry's instances: :meth:`reset` keeps them
        #: (instances survive), :meth:`clear` empties them (instances are
        #: dropped, so any cached handle would be stale).
        self.handle_caches: DefaultDict[str, Dict[Any, Any]] = defaultdict(dict)

    def _get_or_create(self, cls: type, name: str, labels: LabelItems, **kwargs: Any):
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._get_or_create(Counter, name, _label_items(labels))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._get_or_create(Gauge, name, _label_items(labels))

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use.

        ``bounds`` applies only at creation; later lookups reuse the
        existing ladder.
        """
        return self._get_or_create(
            Histogram, name, _label_items(labels), bounds=bounds
        )

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The metric for ``(name, labels)``, or None (never creates)."""
        return self._metrics.get((name, _label_items(labels)))

    def value(self, name: str, **labels: Any) -> Any:
        """Counter/gauge value (0 when the metric does not exist yet)."""
        metric = self.get(name, **labels)
        return 0 if metric is None else metric.value

    def collect(self, prefix: str = "") -> Iterator[Any]:
        """Iterate metrics (optionally only those whose name starts with a prefix)."""
        for (name, _), metric in sorted(self._metrics.items()):
            if name.startswith(prefix):
                yield metric

    def snapshot(self) -> Dict[str, List[Dict[str, Any]]]:
        """All metrics as plain, JSON-ready data, grouped by name."""
        result: Dict[str, List[Dict[str, Any]]] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            result.setdefault(name, []).append(
                {"labels": dict(labels), "kind": metric.kind, **metric._snapshot()}
            )
        return result

    def _validate_merge(self, snapshot: Dict[str, List[Dict[str, Any]]]) -> None:
        """Reject a snapshot that cannot merge cleanly (registry untouched)."""
        claimed: Dict[Tuple[str, LabelItems], str] = {}
        for name, entries in snapshot.items():
            if not isinstance(entries, (list, tuple)):
                raise MergeError(
                    f"metric {name!r}: entries must be a list, got {entries!r}"
                )
            for entry in entries:
                if not isinstance(entry, dict):
                    raise MergeError(
                        f"metric {name!r}: entry must be a dict, got {entry!r}"
                    )
                labels = entry.get("labels", {})
                if not isinstance(labels, dict):
                    raise MergeError(
                        f"metric {name!r}: labels must be a dict, got {labels!r}"
                    )
                kind = entry.get("kind")
                if kind not in ("counter", "gauge", "histogram"):
                    raise MergeError(
                        f"cannot merge metric {name!r} of kind {kind!r}"
                    )
                key = (name, _label_items(labels))
                seen_kind = claimed.get(key)
                if seen_kind is not None and seen_kind != kind:
                    raise MergeError(
                        f"metric {name!r}{labels}: snapshot claims both "
                        f"{seen_kind!r} and {kind!r} for one label set"
                    )
                claimed[key] = kind
                existing = self._metrics.get(key)
                if existing is not None and existing.kind != kind:
                    raise MergeError(
                        f"metric {name!r}{labels}: snapshot says {kind!r}, "
                        f"registry holds a {existing.kind}"
                    )
                if kind == "counter":
                    value = entry.get("value", 0)
                    if not isinstance(value, (int, float)) or value < 0:
                        raise MergeError(
                            f"counter {name!r}{labels}: value must be a "
                            f"non-negative number, got {value!r}"
                        )
                elif kind == "gauge":
                    value = entry.get("value", 0.0)
                    if not isinstance(value, (int, float)):
                        raise MergeError(
                            f"gauge {name!r}{labels}: value must be a number, "
                            f"got {value!r}"
                        )
                else:
                    bounds = list(entry.get("bounds") or [])
                    if not bounds or list(bounds) != sorted(bounds):
                        raise MergeError(
                            f"histogram {name!r}{labels}: bounds must be a "
                            f"non-empty ascending ladder, got {bounds!r}"
                        )
                    if existing is not None and list(existing.bounds) != bounds:
                        raise MergeError(
                            f"histogram {name!r}: cannot merge bucket ladder "
                            f"{bounds!r} into {list(existing.bounds)!r}"
                        )
                    counts = entry.get("bucket_counts") or []
                    if len(counts) > len(bounds) + 1:
                        raise MergeError(
                            f"histogram {name!r}{labels}: {len(counts)} bucket "
                            f"counts for {len(bounds)} bounds"
                        )

    def merge_snapshot(self, snapshot: Dict[str, List[Dict[str, Any]]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The cross-process aggregation primitive: worker processes ship
        snapshots (plain JSON-ready dicts) over a queue and the parent
        merges them, so a sharded run's metrics read exactly like the
        serial run's.  Counters and gauges add their values; histograms
        add bucket counts, counts and sums and widen min/max.

        The whole snapshot is validated before anything is applied:
        mismatched histogram ladders, unknown metric kinds, malformed
        values, and label sets claimed by two different kinds all raise
        :class:`MergeError` with the registry left exactly as it was.
        """
        self._validate_merge(snapshot)
        for name, entries in snapshot.items():
            for entry in entries:
                labels = entry.get("labels", {})
                kind = entry.get("kind")
                if kind == "counter":
                    value = entry.get("value", 0)
                    if value:
                        self.counter(name, **labels).inc(value)
                elif kind == "gauge":
                    value = entry.get("value", 0.0)
                    if value:
                        self.gauge(name, **labels).inc(value)
                else:
                    bounds = entry.get("bounds")
                    histogram = self.histogram(name, bounds=bounds, **labels)
                    counts = entry.get("bucket_counts") or []
                    for index, count in enumerate(counts):
                        histogram.counts[index] += count
                    histogram.count += entry.get("count", 0)
                    histogram.total += entry.get("sum", 0.0)
                    low, high = entry.get("min"), entry.get("max")
                    if low is not None and low < histogram.min:
                        histogram.min = low
                    if high is not None and high > histogram.max:
                        histogram.max = high

    def reset(self) -> None:
        """Zero every metric, keeping instances (cached handles stay valid)."""
        for metric in self._metrics.values():
            metric._reset()

    def clear(self) -> None:
        """Drop every metric instance (a fresh registry).

        The :attr:`handle_caches` are emptied too, so callers holding a
        cache dict re-resolve against the fresh registry instead of
        updating orphaned metric objects.
        """
        self._metrics.clear()
        for cache in self.handle_caches.values():
            cache.clear()

    def __len__(self) -> int:
        return len(self._metrics)
