"""The traced trial: span wrappers around each layer's entry points.

Spans are recorded from the benchmark's side of each layer boundary: the
benchmark replaces a class attribute (``PacketSpec.decode``,
``SessionManager.frame_from``, ...) with a wrapper that opens a span on a
private :class:`repro.obs.trace.Tracer` and calls the original.  Global
``repro.obs`` instrumentation stays disabled throughout, and every
replaced attribute is put back when the ``ExitStack`` of patches closes.

Spans nest through the tracer's stack, so a layer's *self* time is its
span's duration minus the durations of its direct children
(:func:`summarize`).  The self times of every layer plus a residual --
what no span covers: the event loop, socket receive calls, the
benchmark's own loop -- add up to the measured time per operation
(:func:`reconcile`).

The tracer's clock is the thread's CPU time, not ``perf_counter``: on
loopback a ``sendto`` can wake the peer process on the sender's core,
and a wall-clock span would then charge the peer's run time to the
sender.  The span files keep the ``repro.obs`` field names, so their
``wall_*`` fields hold CPU seconds.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict, deque
from contextlib import ExitStack
from typing import Any, Callable, Deque, Dict, Iterable, List, Tuple
from unittest import mock

from repro.obs.trace import SpanRecord, Tracer

from bench.stats import quartiles

#: Large enough that no traced trial evicts a record (asserted by
#: :func:`check_complete`).
TRACER_CAPACITY = 4_000_000


def new_tracer() -> Tracer:
    return Tracer(capacity=TRACER_CAPACITY, clock=time.thread_time)


def check_complete(tracer: Tracer) -> None:
    """Raise if the ring buffer filled, i.e. a record may have been evicted."""
    if len(tracer) >= tracer.capacity:
        raise RuntimeError(
            f"tracer filled its {tracer.capacity} records; spans were evicted"
        )


def wrap(patches: ExitStack, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
    """Set ``owner.name`` to ``make(original)`` until ``patches`` closes."""
    patches.enter_context(mock.patch.object(owner, name, make(getattr(owner, name))))


def spanned(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    """A wrapper factory: ``fn`` becomes ``fn`` inside a span called ``name``."""
    span = tracer.span

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                return fn(*args, **kwargs)

        return traced

    return make


def trace_core(patches: ExitStack, tracer: Tracer) -> None:
    """Codec, ``Verified`` checking, machine dispatch and the timer wheel."""
    from repro.core.machine import Machine
    from repro.core.packet import PacketSpec
    from repro.serve.wheel import TimerWheel

    for method in ("make", "encode", "decode", "verify"):
        wrap(patches, PacketSpec, method, spanned(tracer, f"core.packet.{method}"))
    wrap(patches, Machine, "exec_trans", spanned(tracer, "core.machine.exec"))
    wrap(patches, TimerWheel, "advance", spanned(tracer, "serve.wheel.advance"))

    span = tracer.span

    def try_exec(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(self: Any, *args: Any, **kwargs: Any) -> Any:
            with span("core.machine.try_exec") as handle:
                result = fn(self, *args, **kwargs)
                handle.record.attrs["hit"] = result is not None
                return result

        return traced

    wrap(patches, Machine, "try_exec", try_exec)


def trace_server(patches: ExitStack, tracer: Tracer) -> None:
    """Everything :func:`trace_core` covers plus the serving plane's layers."""
    from repro.serve.apps import APPS
    from repro.serve.manager import SendFactory, SessionManager
    from repro.serve.transport import UdpServeProtocol

    trace_core(patches, tracer)
    span = tracer.span
    clock = time.perf_counter  # queue wait is waiting, so it is wall time
    # Enqueue stamps per session app, consumed in FIFO order by on_frame:
    # the manager drains each session's queue in arrival order.
    enqueued: Dict[int, Deque[float]] = defaultdict(deque)

    def recv(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(self: Any, data: bytes, addr: Any) -> None:
            with span("serve.transport.recv", bytes=len(data)):
                fn(self, data, addr)

        return traced

    def demux(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(self: Any, peer: Any, data: bytes, send: Any) -> Any:
            with span("serve.manager.demux"):
                stamp = clock()
                admission = fn(self, peer, data, send)
                if admission.accepted:
                    enqueued[id(admission.session.app)].append(stamp)
                return admission

        return traced

    def on_frame(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(self: Any, data: bytes) -> None:
            stamps = enqueued.get(id(self))
            with span("serve.apps.on_frame") as handle:
                if stamps:
                    handle.record.attrs["queue_wait"] = clock() - stamps.popleft()
                fn(self, data)

        return traced

    def close(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(self: Any, peer: Any, reason: str = "peer") -> Any:
            with span("serve.manager.close", reason=reason):
                session = fn(self, peer, reason=reason)
                if session is not None:
                    enqueued.pop(id(session.app), None)
                return session

        return traced

    send_span = spanned(tracer, "serve.transport.send")

    def send_factory(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(self: Any, peer: Any) -> Any:
            return send_span(fn(self, peer))

        return traced

    wrap(patches, UdpServeProtocol, "datagram_received", recv)
    wrap(patches, SessionManager, "frame_from", demux)
    wrap(patches, SessionManager, "_open", spanned(tracer, "serve.manager.open"))
    wrap(patches, SessionManager, "close", close)
    wrap(patches, SessionManager, "_drain_slot", spanned(tracer, "serve.manager.drain"))
    wrap(patches, SendFactory, "__call__", send_factory)
    for app_cls in set(APPS.values()):
        wrap(patches, app_cls, "on_frame", on_frame)


def trace_megasim(patches: ExitStack, tracer: Tracer, workload: Any) -> None:
    """The epoch engine's phases: plan, cohort apply, digest, barrier."""
    from repro.megasim import engine
    from repro.megasim.population import Population

    wrap(patches, engine.ShardEngine, "step", spanned(tracer, "megasim.step"))
    wrap(patches, type(workload), "plan", spanned(tracer, "megasim.plan"))
    wrap(patches, Population, "apply", spanned(tracer, "megasim.apply"))
    wrap(patches, Population, "digest_partial", spanned(tracer, "megasim.digest"))
    wrap(patches, engine, "route", spanned(tracer, "megasim.barrier"))


# -- analysis ---------------------------------------------------------------


class Layer:
    """One span name's totals: calls, self seconds (sum, median), inclusive."""

    __slots__ = ("name", "calls", "self_total", "self_p50", "inclusive")

    def __init__(
        self,
        name: str,
        calls: int = 0,
        self_total: float = 0.0,
        self_p50: float = 0.0,
        inclusive: float = 0.0,
    ) -> None:
        self.name = name
        self.calls = calls
        self.self_total = self_total
        self.self_p50 = self_p50
        self.inclusive = inclusive

    def self_mean(self) -> float:
        return self.self_total / self.calls if self.calls else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def summarize(records: Iterable[SpanRecord]) -> Dict[str, Layer]:
    """Group closed spans by name; self time = duration - direct children."""
    spans = [r for r in records if r.kind == "span" and r.wall_end is not None]
    children: Dict[int, float] = defaultdict(float)
    for record in spans:
        if record.parent_id is not None:
            children[record.parent_id] += record.wall_end - record.wall_start
    self_times: Dict[str, List[float]] = defaultdict(list)
    inclusive: Dict[str, float] = defaultdict(float)
    for record in spans:
        duration = record.wall_end - record.wall_start
        self_times[record.name].append(duration - children.get(record.span_id, 0.0))
        inclusive[record.name] += duration
    return {
        name: Layer(name, len(times), sum(times), quartiles(times)[1], inclusive[name])
        for name, times in self_times.items()
    }


def reconcile(
    layers: Dict[str, Layer], measured_total: float, ops: int
) -> Tuple[List[Tuple[str, float, float, float, float]], float, float]:
    """Split a measured total over the layers.

    Returns ``(rows, residual_per_op, total_per_op)`` where each row is
    ``(name, calls_per_op, self_mean_s, self_p50_s, self_per_op_s)`` and
    ``sum(self_per_op) + residual_per_op == total_per_op`` exactly.
    """
    if ops <= 0:
        raise ValueError("reconciling over zero operations")
    rows = []
    for layer in sorted(layers.values(), key=lambda l: -l.self_total):
        rows.append(
            (
                layer.name,
                layer.calls / ops,
                layer.self_mean(),
                layer.self_p50,
                layer.self_total / ops,
            )
        )
    total = measured_total / ops
    residual = total - sum(row[4] for row in rows)
    return rows, residual, total


def render_table(
    title: str,
    rows: List[Tuple[str, float, float, float, float]],
    residual: float,
    total: float,
    op: str,
) -> str:
    """The per-layer table: self times plus the residual equal the total."""
    lines = [
        f"{title}",
        f"  {'layer':30s} {'calls/' + op:>12s} {'self us':>10s} "
        f"{'p50 us':>10s} {'us/' + op:>10s}",
    ]
    for name, calls, mean, p50, per_op in rows:
        lines.append(
            f"  {name:30s} {calls:12.3f} {mean * 1e6:10.2f} "
            f"{p50 * 1e6:10.2f} {per_op * 1e6:10.2f}"
        )
    lines.append(f"  {'(residual: no span)':30s} {'':12s} {'':10s} {'':10s} {residual * 1e6:10.2f}")
    lines.append(f"  {'= measured per ' + op:30s} {'':12s} {'':10s} {'':10s} {total * 1e6:10.2f}")
    return "\n".join(lines)


def write_jsonl(tracer: Tracer, path: Any) -> None:
    """Spans in the ``repro.obs`` trace JSONL format."""
    with open(path, "w", encoding="utf-8") as handle:
        text = tracer.to_jsonl()
        handle.write(text + ("\n" if text else ""))


def attr_values(records: Iterable[SpanRecord], key: str) -> List[Any]:
    """Every value the records carry under attribute ``key``."""
    return [r.attrs[key] for r in records if key in r.attrs]
