"""The session manager: demultiplex, bound, shed, observe — at density.

One :class:`SessionManager` owns every session a listener serves.  It is
deliberately transport-agnostic and synchronous — the asyncio transports
call into it, and the stress tests drive it directly — which keeps the
overload logic (the part that must not be subtly wrong) testable without
sockets or an event loop.

Responsibilities, in the order a frame meets them:

1. **Demultiplex** by peer key.  The ``peer -> Session`` table is the
   *only* hash lookup on the per-frame path; everything else is slab
   array indexing through the session's slot id
   (:class:`~repro.serve.session.SessionSlab`).  An unknown peer opens a
   session: its app is built over a **cached sealed spec** (one spec and
   one staged dispatch table shared by every session of a protocol —
   rebuilding them per accept was 75% of PR 7's accept cost), and an
   exchange recorder is attached when differential recording is on.  The
   first frame on a packet spec compiles it (:mod:`repro.fastpath`);
   every later session reuses that codec.
2. **Admission under overload.**  When the session table is at
   ``max_sessions``, the *oldest-idle* session is shed to make room.
   Finding it rides a lazy min-heap of ``(last_activity, open_seq,
   generation, slot)`` stamps: activity never touches the heap; a stale
   stamp surfacing at shed time is re-pushed with the current activity
   (exact, amortized O(log n) — the PR 7 ``min()`` scan was O(n) per
   shed, O(n²) under churn at capacity).  Stale stamps left by normal
   closes are compacted away when they outnumber live sessions, the same
   tombstone policy as the simulator's event queue.
3. **Bounded queueing.**  Each session's receive queue is capped; a full
   queue drops the frame (UDP) or reports congestion so the transport
   pauses reading (TCP).  Drains are deferred through the host's
   ``defer`` hook (``loop.call_soon`` live, inline in tests) via a
   **preallocated per-slot callback** — no ``lambda`` per enqueue —
   fenced by the slot generation so a drain that outlives its session
   can never touch a *retired* slot.  The callback is slot-level and
   idempotent: if the slot was re-allocated before a stale firing, it
   runs the new occupant's pending drain early, and the occupant's own
   deferred firing becomes a no-op — delivery is exactly-once either
   way.  Each session is a fault domain: a role that raises while its
   queue drains closes that session (reason ``app_error``), drops the
   rest of its queue and still resumes a paused connection.
4. **Idle reaping** rides the hashed timer wheel lazily: one
   preallocated per-slot timer callback per session, rescheduled only
   when it fires early — no cancel churn and no closure allocation on
   the per-frame hot path.  The wheel itself is shared: live, the
   :class:`~repro.serve.transport.Server` owns one wheel and every
   manager on it schedules there.

The per-frame metric handles (frames in/out, queue drops) are resolved
once through ``MetricsRegistry.handle_cache`` instead of re-resolving
labeled names per frame; everything still lands on ``repro.obs`` —
``serve.sessions_active`` gauge, open/close/shed/drop counters labeled
by reason, per-dispatch spans, and session-lifetime histograms — so
``python -m repro.obs top`` pointed at a live server's export stream
shows the serving plane breathing.
"""

from __future__ import annotations

import heapq
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.instrument import Instrumentation, get_default
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.apps import app_class
from repro.serve.record import ExchangeRecord, ExchangeRecorder
from repro.serve.session import Session, SessionSlab
from repro.serve.wheel import TimerWheel

Send = Callable[[bytes], None]
Defer = Callable[[Callable[[], None]], None]

#: Compact the shed heap when stale stamps exceed live sessions by this
#: margin (hysteresis so tiny tables never bother).
_HEAP_SLACK = 16


class Admission:
    """What happened to one offered frame.

    The manager reuses **one** :class:`Admission` instance across
    :meth:`SessionManager.frame_from` calls (the demux hot path allocates
    nothing); read it before offering the next frame, copy the fields if
    you must keep them.
    """

    __slots__ = ("accepted", "congested", "session")

    def __init__(
        self, accepted: bool, congested: bool, session: Optional[Session]
    ) -> None:
        self.accepted = accepted
        self.congested = congested
        self.session = session


class SendFactory:
    """Defer building a per-peer send until a session actually opens.

    Datagram transports receive thousands of frames for peers they
    already know; wrapping the ``peer -> send`` factory lets them pass
    one long-lived object to :meth:`SessionManager.frame_from` instead of
    closing over the address per datagram.  The manager calls the factory
    exactly once, at session open.
    """

    __slots__ = ("build",)

    def __init__(self, build: Callable[[Any], Send]) -> None:
        self.build = build

    def __call__(self, peer: Any) -> Send:
        return self.build(peer)


class _DrainTask:
    """Preallocated per-slot drain callback (reused across occupants)."""

    __slots__ = ("manager", "slot", "gen")

    def __init__(self, manager: "SessionManager", slot: int) -> None:
        self.manager = manager
        self.slot = slot
        self.gen = -1

    def __call__(self) -> None:
        self.manager._drain_slot(self.slot, self.gen)


class _IdleTask:
    """Preallocated per-slot idle-check callback with a generation fence."""

    __slots__ = ("manager", "slot", "gen")

    def __init__(self, manager: "SessionManager", slot: int) -> None:
        self.manager = manager
        self.slot = slot
        self.gen = -1

    def __call__(self) -> None:
        self.manager._idle_check(self.slot, self.gen)


class _MetricHandles:
    """Pre-resolved serve metric handles for one protocol.

    Cached in the registry's ``handle_cache("serve")`` so the per-frame
    path pays one dict ``get`` instead of name resolution plus label
    sorting; ``registry.clear()`` empties the cache (handles would be
    stale), ``reset()`` keeps it (instances survive).
    """

    __slots__ = (
        "registry",
        "protocol",
        "frames_in",
        "frames_out",
        "queue_drops",
        "opened",
        "shed",
        "active",
        "seconds",
        "_closed",
    )

    def __init__(self, registry: MetricsRegistry, protocol: str) -> None:
        self.registry = registry
        self.protocol = protocol
        self.frames_in: Counter = registry.counter(
            "serve.frames_in", protocol=protocol
        )
        self.frames_out: Counter = registry.counter(
            "serve.frames_out", protocol=protocol
        )
        self.queue_drops: Counter = registry.counter(
            "serve.queue_drops", protocol=protocol
        )
        self.opened: Counter = registry.counter(
            "serve.sessions_opened", protocol=protocol
        )
        self.shed: Counter = registry.counter(
            "serve.sessions_shed", protocol=protocol
        )
        self.active: Gauge = registry.gauge("serve.sessions_active")
        self.seconds: Histogram = registry.histogram(
            "serve.session_seconds", protocol=protocol
        )
        self._closed: Dict[str, Counter] = {}

    def closed(self, reason: str) -> Counter:
        handle = self._closed.get(reason)
        if handle is None:
            handle = self._closed[reason] = self.registry.counter(
                "serve.sessions_closed", protocol=self.protocol, reason=reason
            )
        return handle


def session_seed(base_seed: int, peer: str) -> int:
    """Deterministic per-peer seed (CRC32, not randomized str hashing)."""
    return zlib.crc32(f"{base_seed}:{peer}".encode())


class SessionManager:
    """Owns the session table for one listener.

    Parameters
    ----------
    protocol:
        Registry key into :data:`repro.serve.apps.APPS`.
    wheel:
        The hashed timer wheel driving idle reaping.  Live, this is the
        owning :class:`~repro.serve.transport.Server`'s wheel, shared by
        every manager (and ticked once); tests hand-advance it.
    clock:
        Monotonic float source; ``loop.time`` live, hand-advanced in
        tests.
    max_sessions:
        The shed threshold: admitting a new peer beyond this evicts the
        oldest-idle session first.
    max_queue:
        Per-session receive-queue bound.
    idle_timeout:
        Seconds of silence before a session is reaped.  Doubles as the
        protocol timer (the handshake responder's half-open RESET fires
        on reaping).
    app_params:
        Extra keyword arguments for the responder role (e.g. ``window``).
    record:
        Attach an exchange recorder to every session (the loopback
        differential mode).
    defer:
        Drain scheduler; defaults to immediate (synchronous) draining.
    """

    def __init__(
        self,
        protocol: str,
        *,
        wheel: TimerWheel,
        clock: Callable[[], float],
        max_sessions: int = 1024,
        max_queue: int = 64,
        idle_timeout: float = 30.0,
        app_params: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        record: bool = False,
        defer: Optional[Defer] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be positive, got {max_sessions}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        self.protocol = protocol
        self.app_cls = app_class(protocol)
        self.wheel = wheel
        self.clock = clock
        self.max_sessions = max_sessions
        self.max_queue = max_queue
        self.idle_timeout = idle_timeout
        self.app_params = dict(app_params or {})
        self.seed = seed
        self.record = record
        self.defer: Defer = defer if defer is not None else (lambda fn: fn())
        self.obs = obs if obs is not None else get_default()
        #: ``peer -> Session`` — the datapath's one hash lookup.  Views
        #: stay valid after close (frozen); the dict holds live ones only.
        self.sessions: Dict[Any, Session] = {}
        self.slab = SessionSlab(max_queue=max_queue)
        #: Records of *closed* sessions, in close order.
        self.records: List[ExchangeRecord] = []
        self.opened_total = 0
        self.closed_total = 0
        self.shed_total = 0
        self.drop_total = 0
        # Preallocated per-slot callbacks, extended with slab capacity.
        self._drain_tasks: List[_DrainTask] = []
        self._idle_tasks: List[_IdleTask] = []
        # Oldest-idle shed heap: (last_activity, open_seq, generation,
        # slot).  open_seq breaks activity ties in open order, matching
        # the PR 7 min()-over-insertion-order semantics exactly.
        self._idle_heap: List[Tuple[float, int, int, int]] = []
        self._heap_stale = 0
        self._open_seq = 0
        self._admission = Admission(False, False, None)

    # -- observability plumbing --------------------------------------------

    def _handles(self) -> _MetricHandles:
        """The pre-resolved metric handles (one registry lookup, cached)."""
        registry = self.obs.registry
        cache = registry.handle_cache("serve")
        handles = cache.get(self.protocol)
        if handles is None:
            handles = _MetricHandles(registry, self.protocol)
            cache[self.protocol] = handles
        return handles

    # -- the datapath ------------------------------------------------------

    def frame_from(self, peer: Any, data: bytes, send: Any) -> Admission:
        """One inbound frame from ``peer``; the transport's entry point.

        ``send`` is consulted only when this frame *opens* a session: it
        is either the per-peer send callable itself or a
        :class:`SendFactory` the manager invokes with the peer key.  For
        frames on existing sessions it is ignored (the open-time send is
        kept), so transports can pass one long-lived object and the hot
        path allocates nothing.  The returned :class:`Admission` is
        reused across calls.
        """
        session = self.sessions.get(peer)
        if session is None:
            session = self._open(peer, send)
        slab = self.slab
        slot = session._slot
        queue = slab.queue[slot]
        admission = self._admission
        if len(queue) >= self.max_queue:
            slab.drops[slot] += 1
            slab.congested[slot] = True
            self.drop_total += 1
            if self.obs.enabled:
                self._handles().queue_drops.inc()
            admission.accepted = False
        else:
            queue.append(data)
            if len(queue) >= self.max_queue:
                slab.congested[slot] = True
            if not slab.drain_scheduled[slot]:
                slab.drain_scheduled[slot] = True
                task = self._drain_tasks[slot]
                task.gen = slab.generation[slot]
                self.defer(task)
            admission.accepted = True
        admission.congested = slab.congested[slot]
        admission.session = session
        return admission

    def _drain_slot(self, slot: int, gen: int) -> None:
        slab = self.slab
        if slab.generation[slot] != gen or slab.closed[slot]:
            return  # the session this drain was scheduled for is gone
        slab.drain_scheduled[slot] = False
        queue = slab.queue[slot]
        if queue:
            app = slab.app[slot]
            recorder = slab.recorder[slot]
            slab.last_activity[slot] = self.clock()
            obs = self.obs
            try:
                if obs.enabled:
                    frames_in = self._handles().frames_in
                    span = obs.tracer.span
                    peer_name = str(slab.peer[slot])
                    protocol = self.protocol
                    while queue:
                        data = queue.popleft()
                        if recorder is not None:
                            recorder.frame_in(data)
                        frames_in.inc()
                        with span(
                            "serve.dispatch", protocol=protocol, peer=peer_name
                        ):
                            app.on_frame(data)
                else:
                    while queue:
                        data = queue.popleft()
                        if recorder is not None:
                            recorder.frame_in(data)
                        app.on_frame(data)
            except Exception:
                # Each session is a fault domain: a raising app loses its
                # own session (and the rest of its queue, which the close
                # clears) and nobody else's.  A paused connection still
                # resumes, so its transport is not stranded.
                resume = slab.resume[slot] if slab.congested[slot] else None
                self.close(slab.peer[slot], reason="app_error")
                if resume is not None:
                    resume()
                return
        if slab.congested[slot]:
            slab.congested[slot] = False
            resume = slab.resume[slot]
            if resume is not None:
                resume()

    # -- session lifecycle -------------------------------------------------

    def _open(self, peer: Any, send: Any) -> Session:
        slab = self.slab
        while slab.live >= self.max_sessions:
            self._shed_oldest_idle()
        now = self.clock()
        seed = session_seed(self.seed, str(peer))
        recorder: Optional[ExchangeRecorder] = None
        if self.record:
            recorder = ExchangeRecorder(
                protocol=self.protocol,
                peer=str(peer),
                clock=self.clock,
                seed=seed,
                params=self.app_params,
            )
        if type(send) is SendFactory:
            send = send(peer)

        def sending(data: bytes, _send: Send = send) -> None:
            if recorder is not None:
                recorder.frame_out(data)
            if self.obs.enabled:
                self._handles().frames_out.inc()
            _send(data)

        app = self.app_cls(sending, seed=seed, **self.app_params)
        slot = slab.alloc(peer, app, send, now, recorder)
        while len(self._drain_tasks) <= slot:
            index = len(self._drain_tasks)
            self._drain_tasks.append(_DrainTask(self, index))
            self._idle_tasks.append(_IdleTask(self, index))
        session = slab.handle[slot]
        assert session is not None
        self.sessions[peer] = session
        self.opened_total += 1
        self._open_seq += 1
        gen = slab.generation[slot]
        heapq.heappush(self._idle_heap, (now, self._open_seq, gen, slot))
        idle_task = self._idle_tasks[slot]
        idle_task.gen = gen
        slab.idle_handle[slot] = self.wheel.schedule(
            self.idle_timeout, idle_task
        )
        obs = self.obs
        if obs.enabled:
            handles = self._handles()
            handles.opened.inc()
            handles.active.set(slab.live)
            obs.tracer.event(
                "serve.session_open", protocol=self.protocol, peer=str(peer)
            )
        return session

    def _idle_check(self, slot: int, gen: int) -> None:
        slab = self.slab
        if slab.generation[slot] != gen or slab.closed[slot]:
            return  # stale timer: the slot was retired (maybe reused)
        idle_for = self.clock() - slab.last_activity[slot]
        if idle_for + 1e-9 >= self.idle_timeout:
            # Protocol timer first (the handshake responder's RESET),
            # then reap the slot.
            slab.app[slot].on_timer()
            self.close(slab.peer[slot], reason="idle")
        else:
            # Activity since scheduling: re-arm for the remainder.  This
            # lazy scheme touches the wheel once per timeout window, not
            # once per frame — and reuses the same callback object.
            task = self._idle_tasks[slot]
            task.gen = gen
            slab.idle_handle[slot] = self.wheel.schedule(
                self.idle_timeout - idle_for, task
            )

    def _shed_oldest_idle(self) -> None:
        slab = self.slab
        heap = self._idle_heap
        while heap:
            stamp, seq, gen, slot = heap[0]
            if slab.generation[slot] != gen or slab.closed[slot]:
                heapq.heappop(heap)  # tombstone from a normal close
                self._heap_stale = max(0, self._heap_stale - 1)
                continue
            current = slab.last_activity[slot]
            if current > stamp:
                # The session was active since this stamp: refresh the
                # entry in place and look again (exact lazy deletion).
                heapq.heapreplace(heap, (current, seq, gen, slot))
                continue
            heapq.heappop(heap)
            self.shed_total += 1
            if self.obs.enabled:
                self._handles().shed.inc()
            self.close(slab.peer[slot], reason="shed")
            return
        raise RuntimeError(
            "shed requested with no shedable session "
            f"(live={slab.live}, max={self.max_sessions})"
        )

    def close(self, peer: Any, reason: str = "peer") -> Optional[Session]:
        """Close one session; returns its (frozen) view, or None."""
        session = self.sessions.pop(peer, None)
        if session is None:
            return None
        slab = self.slab
        slot = session._slot
        idle_handle = slab.idle_handle[slot]
        if idle_handle is not None:
            self.wheel.cancel(idle_handle)
        recorder = slab.recorder[slot]
        if recorder is not None:
            self.records.append(recorder.record)
        opened_at = slab.opened_at[slot]
        slab.retire(slot)  # freezes the view, bumps the generation
        if reason != "shed":
            # A shed already popped its heap stamp; any other close
            # leaves one behind.  Compact when tombstones outnumber the
            # live table (amortized O(1) per close).
            self._heap_stale += 1
            if self._heap_stale > slab.live + _HEAP_SLACK:
                self._idle_heap = [
                    entry
                    for entry in self._idle_heap
                    if slab.generation[entry[3]] == entry[2]
                    and not slab.closed[entry[3]]
                ]
                heapq.heapify(self._idle_heap)
                self._heap_stale = 0
        self.closed_total += 1
        obs = self.obs
        if obs.enabled:
            handles = self._handles()
            handles.closed(reason).inc()
            handles.active.set(slab.live)
            handles.seconds.observe(max(0.0, self.clock() - opened_at))
            obs.tracer.event(
                "serve.session_close",
                protocol=self.protocol,
                peer=str(peer),
                reason=reason,
            )
        return session

    def close_all(self, reason: str = "shutdown") -> int:
        """Close every session; returns how many were open."""
        peers = list(self.sessions)
        for peer in peers:
            self.close(peer, reason=reason)
        return len(peers)

    # -- introspection -----------------------------------------------------

    def collect_records(self) -> List[ExchangeRecord]:
        """Closed sessions' records plus the live ones, in open order."""
        live = [
            s.recorder.record
            for s in self.sessions.values()
            if s.recorder is not None
        ]
        return list(self.records) + live

    def stats(self) -> Dict[str, int]:
        """Operator counters (mirrored in obs when enabled)."""
        return {
            "active": self.slab.live,
            "opened": self.opened_total,
            "closed": self.closed_total,
            "shed": self.shed_total,
            "queue_drops": self.drop_total,
        }

    def __repr__(self) -> str:
        return (
            f"SessionManager({self.protocol!r}, active={self.slab.live}, "
            f"max={self.max_sessions})"
        )
