"""Property tests for the simulator's cancel/timer accounting.

The simulator promises exact live-event accounting under any
interleaving of schedule, cancel, and fire:

* ``events_pending`` always equals the number of scheduled-but-unfired,
  uncancelled events;
* cancelled tombstones never consume a ``max_events`` budget slot and
  never count as processed;
* cancelling twice, or cancelling an already-fired event, is a no-op.

Hypothesis drives random interleavings of those operations and checks
the invariants after every step — the regression net for the O(1)
tombstone-cancellation scheme.
"""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.simulator import BudgetExhausted, Simulator

# One step of an interleaving: (op, a, b) where the integers parameterize
# the op (delay choice, victim index, budget size).
_steps = st.lists(
    st.tuples(
        st.sampled_from(["schedule", "cancel", "step", "run_budget", "double_cancel"]),
        st.integers(0, 7),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=60,
)


class _Model:
    """Reference bookkeeping mirrored alongside the real simulator."""

    def __init__(self):
        self.sim = Simulator()
        self.events = []  # every Event ever scheduled, in order
        self.fired = []

    def live(self):
        return [
            e for e in self.events if not e.fired and not e.cancelled
        ]


class TestCancelTimerAccounting:
    @given(steps=_steps)
    @settings(max_examples=200, deadline=None)
    def test_events_pending_matches_reference_model(self, steps):
        model = _Model()
        sim = model.sim
        for op, a, b in steps:
            if op == "schedule":
                event = sim.schedule(a * 0.25, lambda: model.fired.append(None))
                model.events.append(event)
            elif op in ("cancel", "double_cancel"):
                if model.events:
                    victim = model.events[a % len(model.events)]
                    victim.cancel()
                    if op == "double_cancel":
                        victim.cancel()  # must be a no-op
            elif op == "step":
                before = len(model.live())
                progressed = sim.step()
                assert progressed == (before > 0)
            elif op == "run_budget":
                processed_before = sim.events_processed
                live_before = len(model.live())
                sim.run(max_events=b)
                # The budget bounds *executed* events; tombstones skipped
                # along the way never consume a slot.
                executed = sim.events_processed - processed_before
                assert executed == min(b, live_before)
            # The core invariant, after every operation.
            assert sim.events_pending == len(model.live())
            assert sim.events_pending >= 0
            assert sim.events_pending <= sim.pending

    @given(
        delays=st.lists(st.integers(0, 10), min_size=1, max_size=20),
        cancel_mask=st.integers(0, 2**20 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_cancelled_events_never_fire_and_never_bill_the_budget(
        self, delays, cancel_mask
    ):
        sim = Simulator()
        fired = []
        events = [
            sim.schedule(d * 0.5, lambda i=i: fired.append(i))
            for i, d in enumerate(delays)
        ]
        cancelled = {
            i for i, e in enumerate(events) if (cancel_mask >> i) & 1
        }
        for i in cancelled:
            events[i].cancel()
        live = len(events) - len(cancelled)
        assert sim.events_pending == live
        # A budget exactly equal to the live count must drain everything:
        # if tombstones billed the budget this would fall short.
        sim.run(max_events=live)
        assert sorted(fired) == sorted(set(range(len(events))) - cancelled)
        assert sim.events_processed == live
        assert sim.events_pending == 0

    @given(budget=st.integers(0, 5), extra=st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_max_events_budget_is_exact(self, budget, extra):
        sim = Simulator()
        fired = []
        total = budget + extra
        for i in range(total):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        sim.run(max_events=budget)
        assert len(fired) == min(budget, total)
        assert sim.events_pending == total - len(fired)

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1]
        event.cancel()  # already fired: accounting must not go negative
        assert sim.events_pending == 0
        assert sim.pending == 0

    @given(steps=_steps)
    @settings(max_examples=100, deadline=None)
    def test_clock_is_monotone_under_any_interleaving(self, steps):
        model = _Model()
        sim = model.sim
        last = sim.now
        for op, a, b in steps:
            if op == "schedule":
                model.events.append(sim.schedule(a * 0.25, lambda: None))
            elif op in ("cancel", "double_cancel") and model.events:
                model.events[a % len(model.events)].cancel()
            elif op == "step":
                sim.step()
            elif op == "run_budget":
                sim.run(max_events=b)
            assert sim.now >= last
            last = sim.now


# ---------------------------------------------------------------------------
# The compacting simulator vs. the original never-compacting heap
# ---------------------------------------------------------------------------


class _RefEvent:
    """One event record in the reference implementation."""

    __slots__ = ("time", "sequence", "callback", "cancelled", "fired")

    def __init__(self, time, sequence, callback):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def __lt__(self, other):
        return (self.time, self.sequence) < (other.time, other.sequence)


class _ReferenceSimulator:
    """The original per-object heap semantics, kept verbatim as the oracle.

    Cancelled events stay in the heap forever (no compaction); skipping a
    tombstone never counts as processing.  The simulator must agree on
    fire order, clock, and all live-event accounting — only the physical
    queue size (``pending``) may differ, because the simulator compacts
    tombstones away.
    """

    def __init__(self):
        self._heap = []
        self.now = 0.0
        self._sequence = 0
        self.events_processed = 0
        self._cancelled_pending = 0

    @property
    def events_pending(self):
        return len(self._heap) - self._cancelled_pending

    def schedule(self, delay, callback):
        event = _RefEvent(self.now + delay, self._sequence, callback)
        self._sequence += 1
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event):
        if event.cancelled or event.fired:
            return
        event.cancelled = True
        self._cancelled_pending += 1

    def step(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            self.now = event.time
            self.events_processed += 1
            event.fired = True
            event.callback()
            return True
        return False

    def run(self, max_events=None):
        executed = 0
        while max_events is None or executed < max_events:
            if not self.step():
                return
            executed += 1


class TestSlabMatchesReferenceHeap:
    """Differential: every interleaving agrees with the old heap, exactly."""

    @given(steps=_steps)
    @settings(max_examples=200, deadline=None)
    def test_fire_order_and_accounting_identical(self, steps):
        sim = Simulator()
        ref = _ReferenceSimulator()
        sim_fired, ref_fired = [], []
        sim_events, ref_events = [], []
        tag = 0
        for op, a, b in steps:
            if op == "schedule":
                delay = a * 0.25
                sim_events.append(
                    sim.schedule(delay, lambda t=tag: sim_fired.append(t))
                )
                ref_events.append(
                    ref.schedule(delay, lambda t=tag: ref_fired.append(t))
                )
                tag += 1
            elif op in ("cancel", "double_cancel"):
                if sim_events:
                    index = a % len(sim_events)
                    sim_events[index].cancel()
                    ref.cancel(ref_events[index])
                    if op == "double_cancel":
                        sim_events[index].cancel()
                        ref.cancel(ref_events[index])
            elif op == "step":
                assert sim.step() == ref.step()
            elif op == "run_budget":
                sim.run(max_events=b)
                ref.run(max_events=b)
            # Observable state must agree after every operation...
            assert sim_fired == ref_fired
            assert sim.now == ref.now
            assert sim.events_processed == ref.events_processed
            assert sim.events_pending == ref.events_pending
            # ...and the simulator's physical queue never exceeds the
            # reference's (compaction only ever sheds tombstones).
            assert sim.pending <= len(ref._heap)
        sim.run()
        ref.run()
        assert sim_fired == ref_fired
        assert sim.now == ref.now
        assert sim.events_pending == ref.events_pending == 0

    @given(steps=_steps)
    @settings(max_examples=100, deadline=None)
    def test_handles_agree_with_reference_records(self, steps):
        sim = Simulator()
        ref = _ReferenceSimulator()
        sim_events, ref_events = [], []
        for op, a, b in steps:
            if op == "schedule":
                sim_events.append(sim.schedule(a * 0.25, lambda: None))
                ref_events.append(ref.schedule(a * 0.25, lambda: None))
            elif op in ("cancel", "double_cancel") and sim_events:
                index = a % len(sim_events)
                sim_events[index].cancel()
                ref.cancel(ref_events[index])
            elif op == "step":
                sim.step()
                ref.step()
            elif op == "run_budget":
                sim.run(max_events=b)
                ref.run(max_events=b)
            # Every handle ever issued — pending, fired, cancelled,
            # compacted — answers like the reference record does.
            for ours, theirs in zip(sim_events, ref_events):
                assert ours.time == theirs.time
                assert ours.sequence == theirs.sequence
                assert ours.cancelled == theirs.cancelled
                assert ours.fired == theirs.fired


class TestTombstoneCompaction:
    def test_cancel_reschedule_churn_keeps_heap_bounded(self):
        """The OLSR-retransmit pattern: schedule, cancel, reschedule, forever.

        Pre-compaction, every cancelled event sat in the heap until its
        time surfaced — a tight restart loop grew the heap without bound.
        Now tombstones are compacted whenever they outnumber live events,
        so the queue stays within a small constant of the live count.
        """
        sim = Simulator()
        live = None
        for i in range(10_000):
            if live is not None:
                live.cancel()
            live = sim.schedule(1000.0 + i * 0.001, lambda: None)
            assert sim.events_pending == 1
            assert sim.pending <= 3  # 1 live + at most 1 tombstone + slack
        assert sim.compactions > 0
        fired = []
        sim.schedule(0.5, lambda: fired.append("first"))
        sim.run(max_events=2)
        assert fired == ["first"]
        assert sim.events_processed == 2
        assert sim.events_pending == 0

    def test_compaction_inside_run_keeps_until_and_accounting(self):
        # A callback's cancellations compact the queue while run() is
        # walking it: run must still stop at `until` and count exactly.
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(10.0 + i, lambda: fired.append("doomed"))
                  for i in range(4)]
        sim.schedule(14.0, lambda: fired.append(14.0))
        sim.schedule(20.0, lambda: fired.append(20.0))
        sim.schedule(1.0, lambda: [event.cancel() for event in doomed])
        sim.run(until=15.0)
        assert sim.compactions > 0
        assert fired == [14.0]
        assert sim.now == 15.0
        assert sim.events_pending == sim.pending == 1

    def test_mass_cancel_compacts_immediately(self):
        sim = Simulator()
        events = [sim.schedule(float(i), lambda: None) for i in range(1000)]
        survivor = sim.schedule(2000.0, lambda: None)
        for event in events:
            event.cancel()
        # Tombstones outnumber the single live event by far: compaction
        # must have shed them from the physical queue.
        assert sim.events_pending == 1
        assert sim.pending < 500
        sim.run()
        assert survivor.fired
        assert sim.events_processed == 1

    def test_compaction_preserves_fire_order(self):
        sim = Simulator()
        fired = []
        keep = [sim.schedule(float(i), lambda i=i: fired.append(i)) for i in range(20)]
        doomed = [sim.schedule(0.5 + i, lambda: fired.append(-1)) for i in range(30)]
        for event in doomed:
            event.cancel()
        sim.run()
        assert fired == list(range(20))
        assert all(e.fired for e in keep)
        assert all(e.cancelled and not e.fired for e in doomed)


class TestRunUntilBudget:
    def test_exhaustion_with_pending_events_raises(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(BudgetExhausted) as excinfo:
            sim.run_until(lambda: False, max_events=25)
        assert excinfo.value.max_events == 25
        assert excinfo.value.events_pending == 1
        assert sim.events_processed == 25

    def test_drained_queue_returns_false(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run_until(lambda: False, max_events=100) is False
        assert sim.events_pending == 0

    def test_predicate_satisfied_on_last_budgeted_event(self):
        sim = Simulator()
        count = []

        def tick():
            count.append(1)
            sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        assert sim.run_until(lambda: len(count) >= 5, max_events=5) is True
