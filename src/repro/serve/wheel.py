"""A hashed timer wheel for the real-time serving plane.

The simulator's :class:`~repro.netsim.timers.Timer` rides the event heap:
every start is an ``O(log n)`` push and every restart a tombstone.  A
server multiplexing thousands of sessions restarts a retransmission or
idle timer on *every* frame, so the serving plane uses the classic hashed
wheel instead: scheduling and cancellation are O(1), and one ``advance``
per tick fires everything due, regardless of how many sessions exist.

The wheel is deliberately host-agnostic — it never reads a clock.  The
asyncio transport advances it from a tick task with ``loop.time()``; the
tests advance it by hand.  That is what makes the wheel property-testable
with the same interleaving style as the simulator's cancel/accounting
suite (``tests/test_netsim_properties.py``):

* ``pending`` always equals scheduled minus (fired + cancelled);
* a cancelled timer never fires, and cancelling twice is a no-op;
* a timer never fires before its deadline (it may fire up to one tick
  *late* — wheel granularity — never early).

Entries carry their absolute tick index, so a far-future timer parked in
a wrapped slot is skipped until the cursor genuinely reaches its round.
Within one advance, due timers fire in ``(deadline, schedule order)``
order — deterministic under equal deadlines, like the simulator.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional


class TimerHandle:
    """One scheduled callback; returned by :meth:`TimerWheel.schedule`."""

    __slots__ = ("deadline", "tick", "seq", "callback", "cancelled", "fired")

    def __init__(
        self, deadline: float, tick: int, seq: int, callback: Callable[[], None]
    ) -> None:
        self.deadline = deadline
        self.tick = tick
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self.fired = False

    @property
    def live(self) -> bool:
        """True while the timer is scheduled and still due to fire."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "fired" if self.fired else "pending"
        return f"TimerHandle(deadline={self.deadline:.4f}, {state})"


class TimerWheel:
    """A hashed timer wheel: O(1) schedule/cancel, one scan per tick.

    Parameters
    ----------
    tick:
        Wheel granularity in seconds.  Timers fire at the first processed
        tick boundary at or after their deadline, so expiry can be late by
        up to one tick but never early.
    slots:
        Number of hash buckets; timers further out than ``slots * tick``
        simply survive extra cursor passes (each entry knows its absolute
        tick index).
    now:
        The wheel's initial clock reading; pass ``loop.time()`` when
        driving it from asyncio so deadlines share the loop's epoch.
    """

    def __init__(self, tick: float = 0.005, slots: int = 256, now: float = 0.0) -> None:
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        if slots < 2:
            raise ValueError(f"need at least 2 slots, got {slots}")
        self.tick = tick
        self.slots = slots
        self._buckets: List[List[TimerHandle]] = [[] for _ in range(slots)]
        self._now = now
        self._cursor = math.floor(now / tick)
        self._seq = 0
        self._pending = 0
        self.scheduled_total = 0
        self.fired_total = 0
        self.cancelled_total = 0

    # -- inspection --------------------------------------------------------

    @property
    def now(self) -> float:
        """The clock reading of the last :meth:`advance`."""
        return self._now

    @property
    def pending(self) -> int:
        """Timers scheduled and still due to fire."""
        return self._pending

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        deadline = self._now + delay
        # First tick boundary at or after the deadline; clamp past the
        # cursor so an intra-tick deadline lands on the very next advance.
        tick_index = math.ceil(deadline / self.tick - 1e-9)
        if tick_index * self.tick < deadline:
            tick_index += 1
        tick_index = max(tick_index, self._cursor + 1)
        handle = TimerHandle(deadline, tick_index, self._seq, callback)
        self._seq += 1
        self._buckets[tick_index % self.slots].append(handle)
        self._pending += 1
        self.scheduled_total += 1
        return handle

    def cancel(self, handle: TimerHandle) -> bool:
        """Cancel a pending timer; returns whether it was still live.

        O(1): the entry stays in its bucket as a tombstone and is dropped
        when the cursor reaches it; its callback is dropped now, so the
        tombstone keeps nothing the callback refers to alive until then.
        Cancelling a fired or already cancelled handle is a no-op, as
        with simulator events.
        """
        if handle.cancelled or handle.fired:
            return False
        handle.cancelled = True
        handle.callback = None
        self._pending -= 1
        self.cancelled_total += 1
        return True

    # -- driving -----------------------------------------------------------

    def advance(self, now: float) -> int:
        """Fire every timer due at or before ``now``; returns the count.

        Callbacks run inside the call and may freely schedule or cancel
        further timers (a retransmission rearming itself lands on a later
        tick of the same advance when its delay is short enough).
        """
        if now < self._now:
            raise ValueError(f"clock went backwards: {now} < {self._now}")
        self._now = now
        target = math.floor(now / self.tick + 1e-9)
        fired = 0
        while self._cursor < target:
            self._cursor += 1
            bucket = self._buckets[self._cursor % self.slots]
            due: List[TimerHandle] = []
            keep: List[TimerHandle] = []
            for handle in bucket:
                if handle.cancelled:
                    continue  # drop the tombstone on the way past
                if handle.tick == self._cursor:
                    due.append(handle)
                else:
                    keep.append(handle)
            self._buckets[self._cursor % self.slots] = keep
            due.sort(key=lambda h: (h.deadline, h.seq))
            for handle in due:
                if handle.cancelled:  # cancelled by an earlier callback
                    continue
                handle.fired = True
                self._pending -= 1
                self.fired_total += 1
                fired += 1
                handle.callback()
        return fired

    def __repr__(self) -> str:
        return (
            f"TimerWheel(tick={self.tick}, slots={self.slots}, "
            f"pending={self._pending})"
        )


class WheelTimer:
    """A restartable one-shot timer over a wheel.

    The serving plane's drop-in for :class:`~repro.netsim.timers.Timer`:
    the same ``start``/``stop``/``running`` surface the simulator drivers
    use, so protocol code reads identically on both planes.
    """

    def __init__(
        self,
        wheel: TimerWheel,
        duration: float,
        callback: Callable[[], None],
        name: str = "timer",
    ) -> None:
        if duration <= 0:
            raise ValueError(f"timer duration must be positive, got {duration}")
        self.wheel = wheel
        self.duration = duration
        self.callback = callback
        self.name = name
        self._handle: Optional[TimerHandle] = None
        self.starts = 0
        self.expirations = 0

    @property
    def running(self) -> bool:
        """True while an expiry is pending."""
        return self._handle is not None and self._handle.live

    def start(self, duration: Optional[float] = None) -> None:
        """(Re)start the timer; a pending expiry is cancelled first."""
        if duration is not None:
            if duration <= 0:
                raise ValueError(f"timer duration must be positive, got {duration}")
            self.duration = duration
        self.stop()
        self.starts += 1
        self._handle = self.wheel.schedule(self.duration, self._fire)

    def stop(self) -> None:
        """Cancel a pending expiry; no-op when idle."""
        if self._handle is not None:
            self.wheel.cancel(self._handle)
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self.expirations += 1
        self.callback()

    def __repr__(self) -> str:
        state = "running" if self.running else "idle"
        return f"WheelTimer({self.name!r}, {self.duration}s, {state})"
