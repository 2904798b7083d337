"""The tracing half of ``repro.obs``: ring-buffered spans and events.

A :class:`Tracer` records :class:`SpanRecord` entries into a bounded ring
buffer (old records fall off the back, so a long simulation cannot grow
memory without bound).  Every record carries **two timestamps**:

* *wall* time from a monotonic clock (``time.perf_counter``) — what the
  host actually spent;
* *virtual* time from an attached simulator clock — when it happened in
  the simulated world.

The pair is the whole point: a retransmission timer that fires 0.5
virtual seconds later costs microseconds of wall time, and profiling the
runtime requires seeing both axes against one timeline.

Spans nest: entering a span pushes it onto a stack, so records created
inside it (child spans, point events) carry its id as ``parent_id``.
Export is one ``span`` record per line in the :mod:`repro.obs.records`
format, and round-trips through :meth:`Tracer.from_jsonl`.
"""

from __future__ import annotations

import io
import time
import zlib
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import records as obs_records


def frame_digest(data: bytes) -> str:
    """A short stable digest of a frame, for correlating trace records.

    The same bytes submitted to a channel (a capture record) and consumed
    by a machine transition (an ``exec_trans`` span) share this digest, so
    the two timelines join on it.  CRC32 is plenty for correlation and an
    order of magnitude cheaper than a cryptographic hash.
    """
    return format(zlib.crc32(bytes(data)) & 0xFFFFFFFF, "08x")


class SpanRecord:
    """One span or point event on the trace timeline.

    ``kind`` is ``"span"`` (has a duration) or ``"event"`` (a point).
    ``wall_end``/``virt_end`` stay None until the span closes (and always
    for events).  ``attrs`` is a small dict of user labels.
    """

    __slots__ = (
        "name",
        "kind",
        "span_id",
        "parent_id",
        "depth",
        "wall_start",
        "wall_end",
        "virt_start",
        "virt_end",
        "attrs",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        wall_start: float,
        virt_start: Optional[float],
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.kind = kind
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.wall_start = wall_start
        self.wall_end: Optional[float] = None
        self.virt_start = virt_start
        self.virt_end: Optional[float] = None
        self.attrs = attrs

    @property
    def wall_duration(self) -> Optional[float]:
        """Wall seconds the span took (None while open / for events)."""
        if self.wall_end is None:
            return None
        return self.wall_end - self.wall_start

    @property
    def virt_duration(self) -> Optional[float]:
        """Virtual seconds the span covered (None without a virtual clock)."""
        if self.virt_end is None or self.virt_start is None:
            return None
        return self.virt_end - self.virt_start

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form: the body of a ``span`` record."""
        return {
            "name": self.name,
            "kind": self.kind,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
            "virt_start": self.virt_start,
            "virt_end": self.virt_end,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        """Inverse of :meth:`to_dict`."""
        record = cls(
            name=data["name"],
            kind=data["kind"],
            span_id=data["span_id"],
            parent_id=data["parent_id"],
            depth=data["depth"],
            wall_start=data["wall_start"],
            virt_start=data["virt_start"],
            attrs=dict(data.get("attrs") or {}),
        )
        record.wall_end = data.get("wall_end")
        record.virt_end = data.get("virt_end")
        return record

    def __repr__(self) -> str:
        duration = self.wall_duration
        timing = f"{duration * 1e6:.1f}us" if duration is not None else "open"
        return f"SpanRecord({self.name!r}, id={self.span_id}, {self.kind}, {timing})"


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def set_attr(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute on the live span."""
        self.record.attrs[key] = value

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.record.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self.record)


class Tracer:
    """Bounded, nesting-aware structured trace recorder.

    Parameters
    ----------
    capacity:
        Ring-buffer size; the oldest records are evicted beyond it.
    clock:
        Wall clock (monotonic seconds); injectable for tests.

    The ``virtual_clock`` attribute, when set (a no-argument callable
    returning simulated seconds), stamps every record with virtual time as
    well; :class:`~repro.netsim.simulator.Simulator` attaches itself here
    when built with an enabled instrumentation.
    """

    def __init__(
        self,
        capacity: int = 4096,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"tracer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.clock = clock
        self.virtual_clock: Optional[Callable[[], float]] = None
        self._records: "deque[SpanRecord]" = deque(maxlen=capacity)
        self._stack: List[SpanRecord] = []
        self._next_id = 1

    # -- recording ---------------------------------------------------------

    def _virt_now(self, override: Optional[float]) -> Optional[float]:
        if override is not None:
            return override
        if self.virtual_clock is not None:
            return self.virtual_clock()
        return None

    def _new_record(
        self, name: str, kind: str, virt: Optional[float], attrs: Dict[str, Any]
    ) -> SpanRecord:
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            name=name,
            kind=kind,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            wall_start=self.clock(),
            virt_start=self._virt_now(virt),
            attrs=attrs,
        )
        self._next_id += 1
        self._records.append(record)
        return record

    def span(self, name: str, virt: Optional[float] = None, **attrs: Any) -> _SpanHandle:
        """Open a nested span; use as a context manager.

        ``virt`` overrides the virtual start time (otherwise the attached
        virtual clock, if any, is read).
        """
        record = self._new_record(name, "span", virt, attrs)
        self._stack.append(record)
        return _SpanHandle(self, record)

    def _close(self, record: SpanRecord) -> None:
        record.wall_end = self.clock()
        record.virt_end = self._virt_now(None)
        if record.virt_end is None:
            record.virt_end = record.virt_start
        # Pop through any unclosed children (a child leaked by an early
        # return closes with its parent rather than corrupting the stack).
        while self._stack:
            top = self._stack.pop()
            if top is record:
                break
            if top.wall_end is None:
                top.wall_end = record.wall_end
                top.virt_end = record.virt_end

    def event(self, name: str, virt: Optional[float] = None, **attrs: Any) -> SpanRecord:
        """Record a point event under the current span (if any)."""
        return self._new_record(name, "event", virt, attrs)

    # -- inspection / export ----------------------------------------------

    def records(self) -> Tuple[SpanRecord, ...]:
        """The buffered records, oldest first."""
        return tuple(self._records)

    def find(self, name: str) -> List[SpanRecord]:
        """All buffered records with a given name."""
        return [r for r in self._records if r.name == name]

    def children_of(self, record: SpanRecord) -> List[SpanRecord]:
        """Buffered records whose parent is ``record``."""
        return [r for r in self._records if r.parent_id == record.span_id]

    def to_records(self) -> List[obs_records.Record]:
        """The buffer as ``span`` records, oldest first."""
        return [obs_records.Record("span", r.to_dict()) for r in self._records]

    def to_jsonl(self) -> str:
        """The buffer as JSON Lines, one ``span`` record per line."""
        return "\n".join(map(obs_records.dumps, self.to_records()))

    @staticmethod
    def from_jsonl(text: str) -> List[SpanRecord]:
        """The spans in JSONL text (the export round-trip)."""
        return [
            SpanRecord.from_dict(r.body)
            for r in obs_records.read(io.StringIO(text))
            if r.kind == "span"
        ]

    def reset(self) -> None:
        """Drop all records and any open span state."""
        self._records.clear()
        self._stack.clear()
        self.virtual_clock = None
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._records)
