"""The discrete-event simulation core: a virtual clock over an event queue.

Deterministic by construction: events at equal times fire in scheduling
order (a monotonically increasing tie-breaker), and all randomness in the
wider simulator flows from explicitly seeded ``random.Random`` instances —
never the global RNG.

The priority queue holds ``(time, seq, event)`` tuples: ``(time, seq)`` is
unique, so the tuples compare in C and never reach the :class:`Event`.
An event drops its callback once it fires or is cancelled, so a handle
the caller keeps retains nothing the callback refers to.

Cancellation stays O(1): a cancelled event becomes a tombstone that is
discarded when its position surfaces.  Tombstones can no longer pile up,
though — whenever cancelled entries outnumber live ones the queue is
**compacted** (tombstones filtered out, remainder re-heapified), which is
amortized O(1) per cancellation and keeps the queue within 2x of the live
event count under retransmission-style schedule/cancel churn.  The
accounting stays exact throughout: a skipped or compacted tombstone is
never counted as a processed event, never consumes a ``max_events``
budget slot, and :attr:`Simulator.events_pending` (live events only)
stays O(1) to read.

When built with an enabled :class:`~repro.obs.Instrumentation`, the
simulator counts events scheduled/fired/cancelled/skipped/compacted,
keeps an ``sim.events_pending`` gauge, and attaches its virtual clock to
the tracer so every trace record carries simulated time.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.obs.instrument import Instrumentation, get_default


class BudgetExhausted(RuntimeError):
    """:meth:`Simulator.run_until` spent its event budget inconclusively.

    Raised when the budget runs out while live events remain and the
    predicate still does not hold — the one outcome that is neither
    "became true" nor "ran out of events", which silently returning
    ``False`` used to conflate.  Carries enough context to size the next
    attempt.
    """

    def __init__(self, max_events: int, now: float, events_pending: int) -> None:
        self.max_events = max_events
        self.now = now
        self.events_pending = events_pending
        super().__init__(
            f"predicate not satisfied after {max_events} executed events "
            f"(virtual time {now}, {events_pending} still pending); pass a "
            "larger max_events or treat the scenario as divergent"
        )


class Event:
    """A handle to one scheduled callback.

    ``time`` and ``sequence`` say when the event fires (or fired);
    ``cancelled`` and ``fired`` say whether it still will.
    """

    __slots__ = ("_sim", "time", "sequence", "callback", "cancelled", "fired")

    def __init__(
        self,
        sim: "Simulator",
        time: float,
        sequence: int,
        callback: Callable[[], None],
    ) -> None:
        self._sim = sim
        self.time = time
        self.sequence = sequence
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the event from firing (it tombstones in place).

        Cancelling an event that already fired, or twice, is a no-op — the
        owning simulator's live-event accounting stays exact either way.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self.callback = None
        self._sim._on_cancel()

    def __repr__(self) -> str:
        state = (
            "cancelled" if self.cancelled else "fired" if self.fired else "pending"
        )
        return f"Event(t={self.time}, seq={self.sequence}, {state})"


class Simulator:
    """A single-threaded discrete-event simulator.

    Parameters
    ----------
    obs:
        An :class:`~repro.obs.Instrumentation` context; defaults to the
        process-wide one.  Channels and timers built on this simulator
        report into the same context.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    def __init__(self, obs: Optional[Instrumentation] = None) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._now = 0.0
        self._sequence = 0
        self._events_processed = 0
        self._cancelled_pending = 0
        self._compactions = 0
        self.obs = obs if obs is not None else get_default()
        if self.obs.enabled:
            # Latest simulator wins the tracer's virtual clock: trace
            # records are stamped with this sim's time from here on.
            self.obs.tracer.virtual_clock = lambda: self._now

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events executed so far (cancelled events never count)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Events still queued (including cancelled tombstones)."""
        return len(self._heap)

    @property
    def events_pending(self) -> int:
        """Events scheduled and still due to fire (cancelled ones excluded)."""
        return len(self._heap) - self._cancelled_pending

    @property
    def compactions(self) -> int:
        """Times the queue has been compacted to shed tombstones."""
        return self._compactions

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.at(self._now + delay, callback)

    def at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        seq = self._sequence
        self._sequence = seq + 1
        event = Event(self, time, seq, callback)
        heapq.heappush(self._heap, (time, seq, event))
        obs = self.obs
        if obs.enabled:
            obs.registry.counter("sim.events_scheduled").inc()
            obs.registry.gauge("sim.events_pending").set(self.events_pending)
        return event

    def _on_cancel(self) -> None:
        """Bookkeeping hook invoked by :meth:`Event.cancel`."""
        self._cancelled_pending += 1
        obs = self.obs
        if obs.enabled:
            obs.registry.counter("sim.events_cancelled").inc()
            obs.registry.gauge("sim.events_pending").set(self.events_pending)
        # Compact when tombstones outnumber live events: each compaction
        # is O(queue) and removes more than half of it, so the cost is
        # amortized O(1) per cancellation and the queue stays within 2x
        # of the live count no matter how hot the schedule/cancel churn.
        if self._cancelled_pending > len(self._heap) - self._cancelled_pending:
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone from the queue and re-heapify the rest.

        In place: :meth:`run` holds the queue list across the callbacks
        whose cancellations trigger a compaction.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled_pending = 0
        self._compactions += 1
        obs = self.obs
        if obs.enabled:
            obs.registry.counter("sim.compactions").inc()

    def step(self) -> bool:
        """Run the next live event; returns False when none remain.

        Tombstones surfacing on the way are discarded without advancing
        the clock, :attr:`events_processed`, or any caller's budget.
        """
        heap = self._heap
        obs = self.obs
        while heap:
            time, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled_pending -= 1
                if obs.enabled:
                    obs.registry.counter("sim.events_skipped").inc()
                continue
            callback = event.callback
            event.callback = None
            event.fired = True
            self._now = time
            self._events_processed += 1
            if obs.enabled:
                obs.registry.counter("sim.events_fired").inc()
                obs.registry.gauge("sim.events_pending").set(self.events_pending)
            callback()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue drains, ``until`` passes, or the budget ends.

        ``until`` is an absolute virtual time; events scheduled later stay
        queued and the clock advances to ``until`` exactly.  ``max_events``
        bounds *executed* events for safety against runaway protocols (the
        bug-seeded baselines in the correctness experiments rely on this);
        cancelled events skipped along the way do not consume the budget.
        """
        heap = self._heap
        executed = 0
        while heap:
            if max_events is not None and executed >= max_events:
                return
            top_time, _seq, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled_pending -= 1
                if self.obs.enabled:
                    self.obs.registry.counter("sim.events_skipped").inc()
                continue
            if until is not None and top_time > until:
                self._now = until
                return
            if not self.step():
                break
            executed += 1
        if until is not None and self._now < until:
            self._now = until

    def run_until(
        self, predicate: Callable[[], bool], max_events: int = 1_000_000
    ) -> bool:
        """Run until ``predicate()`` is true; returns whether it became true.

        Returns ``False`` only when the event queue drained without the
        predicate holding.  Exhausting ``max_events`` while live events
        remain raises :class:`BudgetExhausted` instead of returning an
        ambiguous ``False`` — a megascale scenario that silently stops a
        million events in is indistinguishable from a protocol failure
        otherwise.  Callers with open-ended workloads should size the
        budget explicitly.
        """
        if predicate():
            return True
        executed = 0
        while executed < max_events and self.step():
            executed += 1
            if predicate():
                return True
        if predicate():
            return True
        if self.events_pending > 0:
            raise BudgetExhausted(max_events, self._now, self.events_pending)
        return False
