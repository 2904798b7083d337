"""Session storage for the serving plane: a slab, viewed through handles.

PR 7 stored one :class:`Session` *object* per peer — fine at hundreds of
sessions, allocator churn at tens of thousands.  This module now mirrors
the simulator's slab move (``netsim/simulator.py``): every hot per-session
field lives in **parallel arrays indexed by a recycled slot id**, and
:class:`Session` is a thin *view* over the slab — the manager's datapath
reads and writes the arrays directly, while tests, transports and apps
keep the exact attribute surface they had.

The slab is the density story in three parts:

* **One dict, period.**  The manager's ``peer -> Session`` table is the
  only per-frame hash lookup; the view carries its slot, and everything
  else is array indexing.
* **Slots are recycled** through a free list the moment a session closes,
  so a server under peer churn reuses a bounded arena — including the
  per-slot drain/idle callback objects the manager preallocates, which is
  what makes the demux hot path allocation-free (no ``lambda`` per
  enqueue, no closure per idle re-arm).
* **Views freeze on retire.**  When a session closes, its terminal field
  values are copied into the handle before the slot is recycled, so a
  caller that kept the :class:`Session` (the interop tests inspect closed
  sessions' apps) can never observe the next occupant.

A per-slot **generation** counter is bumped on every retire/alloc; the
manager's preallocated timer callbacks carry the generation they were
armed for, so a timer that survives into a recycled slot is recognizably
stale and ignored (property-tested in ``tests/test_timer_wheel.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.protocols.role import Role
from repro.serve.record import ExchangeRecorder


class SessionSlab:
    """Parallel per-session arrays indexed by a recycled slot id.

    The slab stores state only — the manager owns policy (bounds,
    shedding, timers) and keeps its own parallel arrays for the
    preallocated callback objects, extended in lockstep through
    :attr:`capacity`.
    """

    __slots__ = (
        "peer",
        "app",
        "recorder",
        "queue",
        "opened_at",
        "last_activity",
        "congested",
        "resume",
        "idle_handle",
        "drops",
        "closed",
        "generation",
        "send",
        "drain_scheduled",
        "handle",
        "free",
        "live",
        "max_queue",
    )

    def __init__(self, max_queue: int = 1 << 30) -> None:
        self.max_queue = max_queue
        self.peer: List[Any] = []
        self.app: List[Optional[Role]] = []
        self.recorder: List[Optional[ExchangeRecorder]] = []
        self.queue: List[Deque[bytes]] = []
        self.opened_at: List[float] = []
        self.last_activity: List[float] = []
        self.congested: List[bool] = []
        self.resume: List[Optional[Callable[[], None]]] = []
        self.idle_handle: List[Any] = []
        self.drops: List[int] = []
        self.closed: List[bool] = []
        #: Bumped on every retire; alloc stamps the slot's current value
        #: into the view and the manager's timer callbacks, so anything
        #: armed for a previous occupant is recognizably stale.
        self.generation: List[int] = []
        self.send: List[Optional[Callable[[bytes], None]]] = []
        self.drain_scheduled: List[bool] = []
        self.handle: List[Optional["Session"]] = []
        self.free: List[int] = []
        self.live = 0

    @property
    def capacity(self) -> int:
        """Slots ever created (live + free); bounded by peak concurrency."""
        return len(self.peer)

    def alloc(
        self,
        peer: Any,
        app: Role,
        send: Callable[[bytes], None],
        opened_at: float,
        recorder: Optional[ExchangeRecorder] = None,
    ) -> int:
        """Claim a slot (recycled when possible) and populate it."""
        if self.free:
            slot = self.free.pop()
            self.peer[slot] = peer
            self.app[slot] = app
            self.recorder[slot] = recorder
            # The deque survives retirement empty; reuse it.
            self.opened_at[slot] = opened_at
            self.last_activity[slot] = opened_at
            self.congested[slot] = False
            self.resume[slot] = None
            self.idle_handle[slot] = None
            self.drops[slot] = 0
            self.closed[slot] = False
            self.send[slot] = send
            self.drain_scheduled[slot] = False
        else:
            slot = len(self.peer)
            self.peer.append(peer)
            self.app.append(app)
            self.recorder.append(recorder)
            self.queue.append(deque())
            self.opened_at.append(opened_at)
            self.last_activity.append(opened_at)
            self.congested.append(False)
            self.resume.append(None)
            self.idle_handle.append(None)
            self.drops.append(0)
            self.closed.append(False)
            self.generation.append(0)
            self.send.append(send)
            self.drain_scheduled.append(False)
            self.handle.append(None)
        view = Session(self, slot, self.generation[slot])
        self.handle[slot] = view
        self.live += 1
        return slot

    def retire(self, slot: int) -> "Session":
        """Freeze the slot's view, clear the arrays, recycle the slot."""
        view = self.handle[slot]
        assert view is not None
        view._freeze()
        self.peer[slot] = None
        self.app[slot] = None
        self.recorder[slot] = None
        self.queue[slot].clear()
        self.resume[slot] = None
        self.idle_handle[slot] = None
        self.closed[slot] = True
        self.send[slot] = None
        self.drain_scheduled[slot] = False
        self.handle[slot] = None
        self.generation[slot] += 1  # stale-timer fence
        self.free.append(slot)
        self.live -= 1
        return view


class Session:
    """A thin view over one slab slot; freezes when the session closes.

    The attribute surface is PR 7's session object, unchanged — the
    manager's hot path bypasses these properties and indexes the slab
    arrays directly.
    """

    __slots__ = ("_slab", "_slot", "generation", "_frozen")

    def __init__(self, slab: SessionSlab, slot: int, generation: int) -> None:
        self._slab: Optional[SessionSlab] = slab
        self._slot = slot
        self.generation = generation
        self._frozen: Optional[dict] = None

    @property
    def slot(self) -> int:
        """The slab slot this view indexes (stable until the close)."""
        return self._slot

    def _freeze(self) -> None:
        """Copy terminal state into the view; called once by retire."""
        slab, slot = self._slab, self._slot
        assert slab is not None
        self._frozen = {
            "peer": slab.peer[slot],
            "app": slab.app[slot],
            "recorder": slab.recorder[slot],
            "queue": deque(slab.queue[slot]),
            "opened_at": slab.opened_at[slot],
            "last_activity": slab.last_activity[slot],
            "congested": slab.congested[slot],
            "resume": slab.resume[slot],
            "idle_handle": None,
            "drops": slab.drops[slot],
        }
        self._slab = None

    # -- field views -------------------------------------------------------

    @property
    def peer(self) -> Any:
        slab = self._slab
        return slab.peer[self._slot] if slab is not None else self._frozen["peer"]

    @property
    def app(self) -> Role:
        slab = self._slab
        return slab.app[self._slot] if slab is not None else self._frozen["app"]

    @property
    def recorder(self) -> Optional[ExchangeRecorder]:
        slab = self._slab
        if slab is not None:
            return slab.recorder[self._slot]
        return self._frozen["recorder"]

    @property
    def queue(self) -> Deque[bytes]:
        slab = self._slab
        return slab.queue[self._slot] if slab is not None else self._frozen["queue"]

    @property
    def opened_at(self) -> float:
        slab = self._slab
        if slab is not None:
            return slab.opened_at[self._slot]
        return self._frozen["opened_at"]

    @property
    def last_activity(self) -> float:
        slab = self._slab
        if slab is not None:
            return slab.last_activity[self._slot]
        return self._frozen["last_activity"]

    @property
    def congested(self) -> bool:
        slab = self._slab
        if slab is not None:
            return slab.congested[self._slot]
        return self._frozen["congested"]

    @congested.setter
    def congested(self, value: bool) -> None:
        slab = self._slab
        if slab is not None:
            slab.congested[self._slot] = value
        else:
            self._frozen["congested"] = value

    @property
    def resume(self) -> Optional[Callable[[], None]]:
        slab = self._slab
        if slab is not None:
            return slab.resume[self._slot]
        return self._frozen["resume"]

    @resume.setter
    def resume(self, value: Optional[Callable[[], None]]) -> None:
        slab = self._slab
        if slab is not None:
            slab.resume[self._slot] = value
        else:
            self._frozen["resume"] = value

    @property
    def idle_handle(self) -> Any:
        slab = self._slab
        if slab is not None:
            return slab.idle_handle[self._slot]
        return self._frozen["idle_handle"]

    @property
    def drops(self) -> int:
        slab = self._slab
        return slab.drops[self._slot] if slab is not None else self._frozen["drops"]

    @property
    def closed(self) -> bool:
        """True once the manager retired this session's slot."""
        return self._slab is None

    # -- compat operations (the manager's hot path inlines these) ----------

    def enqueue(self, data: bytes) -> bool:
        """Offer a frame; False (and a drop) when the queue is full."""
        slab = self._slab
        if slab is None:
            return False
        slot = self._slot
        queue = slab.queue[slot]
        if len(queue) >= slab.max_queue:
            slab.drops[slot] += 1
            slab.congested[slot] = True
            return False
        queue.append(data)
        if len(queue) >= slab.max_queue:
            slab.congested[slot] = True
        return True

    def consume(self, data: bytes, now: float) -> None:
        """Feed one frame to the app, recording it; updates activity."""
        slab = self._slab
        if slab is None:
            return
        slot = self._slot
        slab.last_activity[slot] = now
        recorder = slab.recorder[slot]
        if recorder is not None:
            recorder.frame_in(data)
        slab.app[slot].on_frame(data)

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"slot={self._slot}"
        return f"Session({self.peer!r}, {self.app.protocol}, {state})"
