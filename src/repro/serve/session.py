"""Session state for the serving plane: one object per live session.

A :class:`Session` holds everything the manager keeps about one peer —
its role, exchange recorder, activity stamps and idle timer — in
``__slots__`` fields that the manager's datapath reads and writes
directly.  It holds no frames: the manager runs each frame through the
role in the call that received it.  Once closed, nothing the manager or
the wheel keeps refers to the session: a caller that kept it (the
interop tests inspect closed sessions' apps) still reads its terminal
state, and reference counting frees it once the caller lets go.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

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
        "opened_at",
        "last_activity",
        "open_seq",
        "idle_handle",
        "closed",
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
        self.opened_at = opened_at
        self.last_activity = opened_at
        self.open_seq = open_seq
        self.idle_handle: Optional[TimerHandle] = None
        self.closed = False

    def idle_check(self) -> None:
        """The idle timer's callback."""
        self.manager._idle_check(self)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"Session({self.peer!r}, {self.app.protocol}, {state})"
