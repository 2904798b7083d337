"""Session state for the serving plane: one object per live session.

A :class:`Session` holds everything the manager keeps about one peer —
its role, exchange recorder, bounded receive queue, activity stamps and
idle timer — in ``__slots__`` fields that the manager's datapath reads
and writes directly.  The session is its own deferred-drain callback,
so the datapath builds no closure per enqueue, and a drain that fires
after the session closed does nothing.  Once closed, nothing the
manager or the wheel keeps refers to the session: a caller that kept it
(the interop tests inspect closed sessions' apps) still reads its
terminal state, and reference counting frees it once the caller lets go.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from repro.protocols.role import Role
from repro.serve.record import ExchangeRecorder
from repro.serve.wheel import TimerHandle

if TYPE_CHECKING:
    from repro.serve.manager import SessionManager


class Session:
    """One peer's session on a :class:`~repro.serve.manager.SessionManager`.

    The manager owns policy (bounds, shedding, timers); the session holds
    state.  ``open_seq`` is the manager's open counter at open time: it
    orders activity ties in the shed heap and tells a stale heap stamp
    from the stamp of a later session of the same peer.
    """

    __slots__ = (
        "manager",
        "peer",
        "app",
        "recorder",
        "queue",
        "opened_at",
        "last_activity",
        "open_seq",
        "congested",
        "resume",
        "idle_handle",
        "drops",
        "closed",
        "drain_scheduled",
        "__weakref__",
    )

    def __init__(
        self,
        manager: "SessionManager",
        peer: Any,
        app: Role,
        recorder: Optional[ExchangeRecorder],
        opened_at: float,
        open_seq: int,
    ) -> None:
        self.manager = manager
        self.peer = peer
        self.app = app
        self.recorder = recorder
        self.queue: Deque[bytes] = deque()
        self.opened_at = opened_at
        self.last_activity = opened_at
        self.open_seq = open_seq
        self.congested = False
        self.resume: Optional[Callable[[], None]] = None
        self.idle_handle: Optional[TimerHandle] = None
        self.drops = 0
        self.closed = False
        self.drain_scheduled = False

    def __call__(self) -> None:
        """Drain the receive queue (the manager's deferred-drain callback)."""
        self.manager._drain_slot(self)

    def idle_check(self) -> None:
        """The idle timer's callback."""
        self.manager._idle_check(self)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"Session({self.peer!r}, {self.app.protocol}, {state})"
