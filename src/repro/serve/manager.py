"""The session manager: demultiplex, bound, shed, observe — at density.

One :class:`SessionManager` owns every session a listener serves.  It is
deliberately transport-agnostic and synchronous — the asyncio transports
call into it, and the stress tests drive it directly — which keeps the
overload logic (the part that must not be subtly wrong) testable without
sockets or an event loop.

Responsibilities, in the order a frame meets them:

1. **Demultiplex** by peer key.  The ``peer -> Session`` table is the
   *only* hash lookup on the per-frame path; everything else is field
   access on the :class:`~repro.serve.session.Session`.  An unknown peer
   opens a session: its app is built over a **cached sealed spec** (one
   spec shared by every session of a protocol — rebuilding it and its
   dispatch per accept was 75% of the accept cost), and an exchange
   recorder is attached when differential recording is on.  The first
   frame compiles the role's packet and machine specs
   (:mod:`repro.fastpath`); every later session reuses those modules.
2. **Admission under overload.**  When the session table is at
   ``max_sessions``, the *oldest-idle* session is shed to make room.
   Finding it rides a lazy min-heap of ``(last_activity, open_seq,
   peer)`` stamps: activity never touches the heap; a stamp surfacing at
   shed time whose session has been active since is re-pushed with the
   current activity (exact, amortized O(log n) — a ``min()`` scan is
   O(n) per shed, O(n²) under churn at capacity).  A stamp is stale
   once its peer has no session or a session with another ``open_seq``;
   stale stamps left by normal closes are compacted away when they
   outnumber live sessions, the same tombstone policy as the simulator's
   event queue.  Stamps name the peer, not the session, so the heap
   never keeps a closed session alive.
3. **Run the frame.**  The session's app handles the frame inside
   :meth:`SessionManager.frame_from`, in the transport callback that
   received it: no per-session queue, no second event-loop turn.  The
   kernel's socket buffers are the only queue — a UDP socket drops on
   overflow, and TCP flow control pushes back on the peer.  Each session
   is a fault domain: a role that raises on a frame or while its idle
   timer fires closes that session (reason ``app_error``) and nobody
   else's.
4. **Idle reaping** rides the hashed timer wheel lazily: one timer per
   session, rescheduled only when it fires early — no cancel churn on
   the per-frame hot path.  The wheel is the host's: live, the
   :class:`~repro.serve.transport.Server` owns and ticks it.

The per-frame metric handles (frames in/out) are resolved once through
``MetricsRegistry.handle_cache`` instead of re-resolving labeled names
per frame; everything still lands on ``repro.obs`` —
``serve.sessions_active`` gauge, open/close/shed counters labeled by
reason, per-dispatch spans, and session-lifetime histograms — so
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
from repro.serve.session import Session
from repro.serve.wheel import TimerWheel

Send = Callable[[bytes], None]

#: Compact the shed heap when stale stamps exceed live sessions by this
#: margin (hysteresis so tiny tables never bother).
_HEAP_SLACK = 16


class Admission:
    """What happened to one offered frame.

    ``accepted`` is False when the session's app raised on the frame,
    which closed ``session`` (reason ``app_error``).  The manager reuses
    **one** :class:`Admission` instance across
    :meth:`SessionManager.frame_from` calls (the demux hot path allocates
    nothing); read it before offering the next frame, copy the fields if
    you must keep them.
    """

    __slots__ = ("accepted", "session")

    def __init__(self, accepted: bool, session: Optional[Session]) -> None:
        self.accepted = accepted
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
        owning :class:`~repro.serve.transport.Server`'s wheel; tests
        hand-advance it, and may share one wheel between managers.
    clock:
        Monotonic float source; ``loop.time`` live, hand-advanced in
        tests.
    max_sessions:
        The shed threshold: admitting a new peer beyond this evicts the
        oldest-idle session first.
    idle_timeout:
        Seconds of silence before a session is reaped.  Doubles as the
        protocol timer (the handshake responder's half-open RESET fires
        on reaping).
    app_params:
        Extra keyword arguments for the responder role (e.g. ``window``).
    record:
        Attach an exchange recorder to every session (the loopback
        differential mode).
    """

    def __init__(
        self,
        protocol: str,
        *,
        wheel: TimerWheel,
        clock: Callable[[], float],
        max_sessions: int = 1024,
        idle_timeout: float = 30.0,
        app_params: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        record: bool = False,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be positive, got {max_sessions}")
        self.protocol = protocol
        self.app_cls = app_class(protocol)
        self.wheel = wheel
        self.clock = clock
        self.max_sessions = max_sessions
        self.idle_timeout = idle_timeout
        self.app_params = dict(app_params or {})
        self.seed = seed
        self.record = record
        self.obs = obs if obs is not None else get_default()
        #: ``peer -> Session`` — the datapath's one hash lookup.  It holds
        #: live sessions only; a closed one is popped.
        self.sessions: Dict[Any, Session] = {}
        #: Records of *closed* sessions, in close order.
        self.records: List[ExchangeRecord] = []
        self.opened_total = 0
        self.closed_total = 0
        self.shed_total = 0
        # Oldest-idle shed heap: (last_activity, open_seq, peer).  open_seq
        # breaks activity ties in open order, the order of a min() over
        # the table, and is unique, so peers are never compared.
        self._idle_heap: List[Tuple[float, int, Any]] = []
        self._heap_stale = 0
        self._open_seq = 0
        self._admission = Admission(False, None)

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

        The session's app handles the frame before this returns.  ``send``
        is consulted only when this frame *opens* a session: it is either
        the per-peer send callable itself or a :class:`SendFactory` the
        manager invokes with the peer key.  For frames on existing
        sessions it is ignored (the open-time send is kept), so transports
        can pass one long-lived object and the hot path allocates
        nothing.  The returned :class:`Admission` is reused across calls.
        """
        session = self.sessions.get(peer)
        if session is None:
            session = self._open(peer, send)
        admission = self._admission
        admission.accepted = self._drain_slot(session, data)
        admission.session = session
        return admission

    def _drain_slot(self, session: Session, data: bytes) -> bool:
        """Run one frame through ``session``'s app; False if the app raised.

        ``bench/trace.py`` wraps this method by name for its
        ``serve.manager.drain`` span: renaming it breaks the traced trial.
        """
        session.last_activity = self.clock()
        recorder = session.recorder
        if recorder is not None:
            recorder.frame_in(data)
        obs = self.obs
        try:
            if obs.enabled:
                self._handles().frames_in.inc()
                with obs.tracer.span(
                    "serve.dispatch", protocol=self.protocol, peer=str(session.peer)
                ):
                    session.app.on_frame(data)
            else:
                session.app.on_frame(data)
        except Exception:
            # Each session is a fault domain: a raising app loses its own
            # session and nobody else's.
            self.close(session.peer, reason="app_error")
            return False
        return True

    # -- session lifecycle -------------------------------------------------

    def _open(self, peer: Any, send: Any) -> Session:
        while len(self.sessions) >= self.max_sessions:
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
        self._open_seq += 1
        session = Session(self, peer, app, recorder, now, self._open_seq)
        self.sessions[peer] = session
        self.opened_total += 1
        heapq.heappush(self._idle_heap, (now, self._open_seq, peer))
        session.idle_handle = self.wheel.schedule(
            self.idle_timeout, session.idle_check
        )
        obs = self.obs
        if obs.enabled:
            handles = self._handles()
            handles.opened.inc()
            handles.active.set(len(self.sessions))
            obs.tracer.event(
                "serve.session_open", protocol=self.protocol, peer=str(peer)
            )
        return session

    def _idle_check(self, session: Session) -> None:
        idle_for = self.clock() - session.last_activity
        if idle_for + 1e-9 >= self.idle_timeout:
            # Protocol timer first (the handshake responder's RESET),
            # then reap.  A raising timer closes only its own session:
            # the wheel keeps firing everyone else's.
            try:
                session.app.on_timer()
            except Exception:
                self.close(session.peer, reason="app_error")
                return
            self.close(session.peer, reason="idle")
        else:
            # Activity since scheduling: re-arm for the remainder.  This
            # lazy scheme touches the wheel once per timeout window, not
            # once per frame.
            session.idle_handle = self.wheel.schedule(
                self.idle_timeout - idle_for, session.idle_check
            )

    def _stamped(self, open_seq: int, peer: Any) -> Optional[Session]:
        """The live session a shed-heap stamp was pushed for, or None."""
        session = self.sessions.get(peer)
        if session is None or session.open_seq != open_seq:
            return None
        return session

    def _shed_oldest_idle(self) -> None:
        heap = self._idle_heap
        while heap:
            stamp, seq, peer = heap[0]
            session = self._stamped(seq, peer)
            if session is None:
                heapq.heappop(heap)  # tombstone from a normal close
                self._heap_stale = max(0, self._heap_stale - 1)
                continue
            current = session.last_activity
            if current > stamp:
                # The session was active since this stamp: refresh the
                # entry in place and look again (exact lazy deletion).
                heapq.heapreplace(heap, (current, seq, peer))
                continue
            heapq.heappop(heap)
            self.shed_total += 1
            if self.obs.enabled:
                self._handles().shed.inc()
            self.close(peer, reason="shed")
            return
        raise RuntimeError(
            "shed requested with no shedable session "
            f"(live={len(self.sessions)}, max={self.max_sessions})"
        )

    def close(self, peer: Any, reason: str = "peer") -> Optional[Session]:
        """Close one session; returns it (now ``closed``), or None."""
        session = self.sessions.pop(peer, None)
        if session is None:
            return None
        session.closed = True
        self.wheel.cancel(session.idle_handle)
        session.idle_handle = None
        recorder = session.recorder
        if recorder is not None:
            self.records.append(recorder.record)
        if reason != "shed":
            # A shed already popped its heap stamp; any other close
            # leaves one behind.  Compact when tombstones outnumber the
            # live table (amortized O(1) per close).
            self._heap_stale += 1
            if self._heap_stale > len(self.sessions) + _HEAP_SLACK:
                self._idle_heap = [
                    entry
                    for entry in self._idle_heap
                    if self._stamped(entry[1], entry[2]) is not None
                ]
                heapq.heapify(self._idle_heap)
                self._heap_stale = 0
        self.closed_total += 1
        obs = self.obs
        if obs.enabled:
            handles = self._handles()
            handles.closed(reason).inc()
            handles.active.set(len(self.sessions))
            handles.seconds.observe(max(0.0, self.clock() - session.opened_at))
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
        """Closed sessions' records in close order, then live ones in open order."""
        live = [
            s.recorder.record
            for s in self.sessions.values()
            if s.recorder is not None
        ]
        return list(self.records) + live

    def stats(self) -> Dict[str, int]:
        """Operator counters (mirrored in obs when enabled)."""
        return {
            "active": len(self.sessions),
            "opened": self.opened_total,
            "closed": self.closed_total,
            "shed": self.shed_total,
        }

    def __repr__(self) -> str:
        return (
            f"SessionManager({self.protocol!r}, active={len(self.sessions)}, "
            f"max={self.max_sessions})"
        )
